"""Release gate: nine numbered criteria, one ``ACCEPTANCE n: PASS/FAIL``
line each, echoed in the terminal summary by conftest. Statistical
criteria use fixed seeds that were validated against their bands before
being frozen here.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import conftest

from qaoa_locality.experiments import (
    cycle_census_experiment,
    ensemble_equivalence,
    locality_check,
    prune,
    ratio_ceiling,
)
from qaoa_locality.graphs import EnsembleSpec, sample_graph
from qaoa_locality.optimize import optimize
from qaoa_locality.qaoa import (
    MAXCUT,
    MIS,
    CostModel,
    QaoaParams,
    cost_value,
    expect_edges,
    expect_total,
    run_qaoa,
)
from qaoa_locality.rng import as_generator, derive_seeds

from test_qaoa import all_graphs_up_to_four_vertices, dense_qaoa, random_params

MC = CostModel.maxcut()
MIS3 = CostModel.mis(3)


def verdict(number, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {number}: {status}"
    print(line)
    conftest.VERDICTS.append(line)
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def maxcut_p1():
    start = time.monotonic()
    result = optimize(3, 1, MC)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def optimized(maxcut_p1):
    return {
        (MAXCUT, 1): maxcut_p1[0],
        (MAXCUT, 2): optimize(3, 2, MC),
        (MIS, 1): optimize(3, 1, MIS3),
        (MIS, 2): optimize(3, 2, MIS3),
    }


def test_acceptance_1_locality_on_random_graphs():
    failures = []
    start = time.monotonic()
    worst = 0.0
    graphs = 0
    edges_checked = 0
    rng = as_generator(101)
    for n in (12, 14, 16):
        for seed in derive_seeds(n, 7):
            spec = EnsembleSpec(n, 3, "general", seed)
            graphs += 1
            for _ in range(10):
                params = random_params(MC, 1, rng)
                report = locality_check(spec, 1, MC, params, trials=1)
                results = report["results"]
                worst = max(worst, results["max_discrepancy"])
                edges_checked += results["tree_edges_checked"]
    elapsed = time.monotonic() - start
    if graphs < 20:
        failures.append(f"only {graphs} graphs")
    if edges_checked == 0:
        failures.append("no tree edges were ever checked")
    if worst >= 1e-9:
        failures.append(f"worst discrepancy {worst:.3e} >= 1e-9")
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    verdict(1, failures)


def test_acceptance_2_dense_oracle_small_graphs():
    failures = []
    graphs = all_graphs_up_to_four_vertices()
    if len(graphs) != 75:
        failures.append(f"expected 75 graphs, built {len(graphs)}")
    rng = np.random.default_rng(202)
    worst = 0.0
    for model in (MC, MIS3):
        for p in (1, 2):
            params = random_params(model, p, rng)
            for initial in ("plus", "zero"):
                for g in graphs:
                    got = run_qaoa(g, model, params, initial).amplitudes
                    want = dense_qaoa(g, model, params, initial)
                    worst = max(worst, float(np.max(np.abs(got - want))))
    if worst >= 1e-10:
        failures.append(f"worst amplitude error {worst:.3e} >= 1e-10")
    verdict(2, failures)


def test_acceptance_3_depth1_optimum(maxcut_p1):
    failures = []
    result, elapsed = maxcut_p1
    if abs(result.best_value - 0.6924) > 1e-3:
        failures.append(f"best_value {result.best_value!r} not 0.6924 +- 1e-3")
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    verdict(3, failures)


def test_acceptance_4_ratio_ceilings(optimized):
    failures = []
    cut = ratio_ceiling(MC, 3, 1, optimized[(MAXCUT, 1)].best_value)
    if abs(cut["ceiling"] - 0.93507) > 1e-5:
        failures.append(f"cut ceiling {cut['ceiling']!r}")
    ind = ratio_ceiling(MIS3, 3, 1, optimized[(MIS, 1)].best_value)
    if abs(ind["ceiling"] - 0.90800) > 1e-5:
        failures.append(f"independent-set ceiling {ind['ceiling']!r}")
    for (kind, p), result in optimized.items():
        model = MC if kind == MAXCUT else MIS3
        report = ratio_ceiling(model, 3, p, result.best_value)
        if not report["within_ceiling"]:
            failures.append(
                f"{kind} p={p}: achieved {report['achieved_ratio']!r} "
                f"exceeds ceiling {report['ceiling']!r}"
            )
    verdict(4, failures)


def test_acceptance_5_cycle_census():
    failures = []
    general = cycle_census_experiment(
        EnsembleSpec(1000, 3, "general", 7), 6, trials=200
    )
    for row in general["results"]["series"]:
        if not row["within_3_se"]:
            failures.append(
                f"k={row['k']}: mean {row['mean']:.4f} outside 3 se of "
                f"{row['oracle_mean']:.4f}"
            )
    bipartite = cycle_census_experiment(
        EnsembleSpec(1000, 3, "bipartite", 7), 6, trials=200
    )
    if not bipartite["results"]["odd_counts_all_zero"]:
        failures.append("bipartite ensemble produced an odd cycle")
    verdict(5, failures)


def test_acceptance_6_ensemble_equivalence(maxcut_p1):
    failures = []
    report = ensemble_equivalence(
        [12, 16, 20], 3, 1, MC, maxcut_p1[0].best_params, trials=100, seed=7
    )
    for row in report["results"]["series"]:
        if not row["gap_within_band"]:
            failures.append(
                f"n={row['n']}: gap {row['gap']:.5f} over "
                f"tolerance {row['gap_tolerance']:.5f}"
            )
        if not (row["general_matches_tree"] and row["bipartite_matches_tree"]):
            failures.append(f"n={row['n']}: ensemble mean far from tree value")
    verdict(6, failures)


def test_acceptance_7_pruning_never_fails():
    failures = []
    rng = as_generator(707)
    pairs = 0
    for d, sizes in ((2, (8, 10, 12, 14)), (3, (8, 10, 12, 14))):
        model = CostModel.mis(d)
        for _ in range(125):
            for n in sizes:
                seed = int(rng.integers(0, 2**31))
                g = sample_graph(EnsembleSpec(n, d, "general", seed))
                bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=n))
                result = prune(g, bits, d)
                pairs += 1
                out = [int(c) for c in result.output_bitstring]
                if any(out[u] and out[v] for u, v in g.edges):
                    failures.append(f"dependent output on seed {seed}")
                if any(
                    after < before
                    for before, after in zip(result.costs, result.costs[1:])
                ):
                    failures.append(f"cost decreased on seed {seed}")
                if result.costs[-1] != cost_value(model, g, out):
                    failures.append(f"final cost mismatch on seed {seed}")
                if result.input_cost > 0 and (
                    result.output_set_size < result.input_cost
                ):
                    failures.append(f"set smaller than cost on seed {seed}")
                if failures:
                    break
            if failures:
                break
    if pairs != 1000 and not failures:
        failures.append(f"ran {pairs} pairs, wanted 1000")
    verdict(7, failures)


def test_acceptance_8_invariance_suite(optimized):
    failures = []
    rng = np.random.default_rng(808)
    for model in (MC, MIS3):
        for trial in range(6):
            n = int(rng.choice((8, 10, 12)))
            g = sample_graph(EnsembleSpec(n, 3, "general", 800 + trial))
            p = int(rng.integers(1, 4))
            params = random_params(model, p, rng)
            state = run_qaoa(g, model, params)

            norm = float(np.linalg.norm(state.amplitudes))
            if abs(norm - 1.0) > 1e-12:
                failures.append(f"norm drift {abs(norm - 1.0):.2e}")

            total = expect_total(state, g, model)
            per_edge = sum(expect_edges(state, g.edges, model))
            if abs(total - per_edge) > 1e-10:
                failures.append("expectation not additive over edges")

            shifted = QaoaParams(
                (params.gammas[0] + model.gamma_period,) + params.gammas[1:],
                (params.betas[0] + math.pi,) + params.betas[1:],
            )
            other = run_qaoa(g, model, shifted)
            if abs(expect_total(other, g, model) - total) > 1e-10:
                failures.append(f"periodicity broken for {model.kind}")

            negated = QaoaParams(
                tuple(-x for x in params.gammas), tuple(-x for x in params.betas)
            )
            mirrored = run_qaoa(g, model, negated)
            if abs(expect_total(mirrored, g, model) - total) > 1e-10:
                failures.append("angle negation changed an expectation")

    for kind in (MAXCUT, MIS):
        lower = optimized[(kind, 1)].best_value
        upper = optimized[(kind, 2)].best_value
        if upper < lower - 1e-9:
            failures.append(f"{kind}: p=2 value {upper!r} below p=1 {lower!r}")
    ring = [optimize(2, p, MC).best_value for p in (0, 1, 2)]
    for shallow, deep in zip(ring, ring[1:]):
        if deep < shallow - 1e-9:
            failures.append("ring depth chain is not monotone")
    verdict(8, failures)


def test_acceptance_9_byte_identical_reports(tmp_path):
    failures = []
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "command": "cycles",
                "n": 60,
                "d": 3,
                "kind": "general",
                "trials": 10,
                "kmax": 5,
                "seed": 3,
            }
        )
    )
    runs = [
        subprocess.run(
            [sys.executable, "-m", "qaoa_locality", "run", "--config", str(config)],
            capture_output=True,
        )
        for _ in range(2)
    ]
    if any(proc.returncode != 0 for proc in runs):
        failures.append("run --config exited nonzero")
    elif runs[0].stdout != runs[1].stdout:
        failures.append("reports differ between identical runs")
    elif not runs[0].stdout:
        failures.append("empty report")
    verdict(9, failures)
