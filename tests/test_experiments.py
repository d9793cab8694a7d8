import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qaoa_locality import experiments as experiments_module
from qaoa_locality import graphs as graphs_module
from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.experiments import (
    SCHEMA_VERSION,
    csv_from_report,
    cycle_census_experiment,
    cycle_oracle_mean,
    end_to_end,
    ensemble_equivalence,
    locality_check,
    make_report,
    prune,
    ratio_ceiling,
    report_json,
    tree_fraction_experiment,
)
from qaoa_locality.graphs import EnsembleSpec, Graph, sample_graph
from qaoa_locality.optimize import optimize
from qaoa_locality.qaoa import CostModel, QaoaParams, cost_value
from qaoa_locality.rng import as_generator
from qaoa_locality.trees import TreePathSum, tree_expectation
from small_graphs import complete_graph, cycle_graph, path_graph

MC = CostModel.maxcut()
MIS3 = CostModel.mis(3)


# ---------------------------------------------------------------- constants


def test_literature_constants_pinned():
    assert ratio_ceiling(MC, 3, 1, 0.5)["provenance"]["constant"] == 1.4026
    assert ratio_ceiling(MIS3, 3, 1, 0.05)["provenance"]["constant"] == 0.454
    mis10 = ratio_ceiling(CostModel.mis(10), 10, 1, 0.01)
    assert mis10["provenance"]["constant"] == 2.0 * math.log(10) / 10
    with pytest.raises(InputError) as refusal:
        ratio_ceiling(MC, 4, 1, 0.6)
    assert "O(sqrt(d))" in str(refusal.value)
    with pytest.raises(InputError):
        ratio_ceiling(CostModel.mis(2), 2, 1, 0.1)


def test_ratio_ceiling_cut_d3():
    report = ratio_ceiling(MC, 3, 1, 0.6924500897298755)
    assert list(report) == [
        "model", "d", "p", "tree_value", "ceiling", "achieved_ratio",
        "finite_size_flag", "provenance", "asymptotic", "within_ceiling",
    ]
    assert abs(report["ceiling"] - 0.93507) < 1e-5
    assert report["achieved_ratio"] == 0.6924500897298755  # identity, no rescaling
    assert report["within_ceiling"] and report["finite_size_flag"]
    assert not report["asymptotic"]
    assert "constant" in report["provenance"]


def test_ratio_ceiling_independent_set_d3():
    report = ratio_ceiling(MIS3, 3, 1, 0.0631880662)
    assert abs(report["ceiling"] - 0.90800) < 1e-5
    assert report["achieved_ratio"] == pytest.approx(3 * 0.0631880662)
    assert report["within_ceiling"]


def test_ratio_ceiling_large_d_independent_set_is_asymptotic():
    report = ratio_ceiling(CostModel.mis(5), 5, 1, 0.02)
    assert report["asymptotic"]
    assert report["ceiling"] == pytest.approx(2 * (2 * math.log(5) / 5))
    assert report["achieved_ratio"] == pytest.approx(0.1)


def test_ratio_ceiling_refuses_unknown_constants():
    with pytest.raises(InputError, match="no constant available"):
        ratio_ceiling(MC, 4, 1, 0.6)
    with pytest.raises(InputError, match="no constant available"):
        ratio_ceiling(CostModel.mis(2), 2, 1, 0.1)
    # a model is a CostModel: the name "mis" has no degree to check d against
    for name, d in (("vertexcover", 3), ("maxcut", 3), ("mis", 4)):
        with pytest.raises(InputError, match="unknown cost model"):
            ratio_ceiling(name, d, 1, 0.1)


def test_ratio_ceiling_flags_violation():
    report = ratio_ceiling(MC, 3, 1, 0.95)
    assert not report["within_ceiling"]


def test_an_mis_model_must_match_the_degree(monkeypatch):
    """mis(k) is a cost per edge of a k-regular graph, so a degree that
    differs is refused where the two meet; locality_check refuses it before
    it samples a graph."""
    mis5 = CostModel.mis(5)
    message = r"mis\(5\) is defined on 5-regular graphs, not at degree 3"
    with pytest.raises(InputError, match=message):
        TreePathSum(3, 1, mis5)
    with pytest.raises(InputError, match=message):
        ratio_ceiling(mis5, 3, 1, 0.05)
    with pytest.raises(InputError, match=message):
        optimize(3, 1, mis5, resolution=2)

    def no_sampling(spec):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(experiments_module, "sample_graph", no_sampling)
    with pytest.raises(InputError, match=message):
        locality_check(EnsembleSpec(12, 3, "general", 1), 1, mis5, QaoaParams((0.3,), (0.2,)))


# ------------------------------------------------------------------ pruning


def test_prune_ring_example():
    result = prune(cycle_graph(4), "1100", 2)
    assert result.output_bitstring == "1000"
    assert result.output_set_size == 1
    assert result.steps == [((0, 1), 1)]
    assert result.costs == [Fraction(0), Fraction(1, 2)]


def test_prune_all_zeros_unchanged():
    result = prune(complete_graph(4), "0000", 3)
    assert result.output_bitstring == "0000"
    assert result.steps == []
    assert result.output_set_size == 0


def test_prune_clique_all_ones():
    result = prune(complete_graph(4), "1111", 3)
    assert result.input_cost == Fraction(-4)
    assert result.output_set_size == 1
    out = result.output_bitstring
    g = complete_graph(4)
    assert all(not (out[u] == "1" and out[v] == "1") for u, v in g.edges)


def test_prune_rejects_irregular_graph():
    with pytest.raises(InputError):
        prune(path_graph(4), "1111", 2)


def test_prune_random_pairs_hold_the_contract():
    """Independence, exact non-decreasing cost per step, each step's cost
    equal to the exact cost of the string at that step, and size >= cost
    for positive input costs, across random graphs and bitstrings."""
    rng = as_generator(404)
    checked = 0
    for d, n in ((2, 10), (3, 12)):
        model = CostModel.mis(d)
        for seed in range(40):
            g = sample_graph(EnsembleSpec(n, d, "general", seed))
            bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=n))
            result = prune(g, bits, d)
            out = [int(c) for c in result.output_bitstring]
            assert all(not (out[u] and out[v]) for u, v in g.edges)
            for before, after in zip(result.costs, result.costs[1:]):
                assert after >= before  # exact rationals
            work = [int(c) for c in bits]
            assert len(result.costs) == len(result.steps) + 1
            assert result.costs[0] == cost_value(model, g, work)
            for (_, cleared), cost in zip(result.steps, result.costs[1:]):
                work[cleared] = 0
                assert cost == cost_value(model, g, work)
            assert result.costs[-1] == cost_value(model, g, out)
            assert result.output_set_size == sum(out)
            if result.input_cost > 0:
                assert result.output_set_size >= result.input_cost
            checked += 1
    assert checked == 80


def restart_scan_prune(g, bits):
    """Reference repair: rescan from the first edge after every step."""
    work = [int(c) for c in bits]
    steps = []
    while True:
        violated = next(((u, v) for u, v in g.edges if work[u] and work[v]), None)
        if violated is None:
            return steps, "".join(str(x) for x in work)
        work[violated[1]] = 0
        steps.append((violated, violated[1]))


def test_prune_single_scan_matches_restart_scan():
    rng = as_generator(1212)
    cases = ((2, 12, "general"), (3, 16, "general"), (4, 14, "bipartite"), (5, 12, "general"))
    for d, n, kind in cases:
        for seed in range(60):
            g = sample_graph(EnsembleSpec(n, d, kind, seed))
            density = rng.uniform(0.2, 1.0)
            bits = "".join(str(int(b)) for b in rng.random(n) < density)
            result = prune(g, bits, d)
            assert (result.steps, result.output_bitstring) == restart_scan_prune(g, bits)


# ------------------------------------------------------------ locality check


def test_locality_check_ring_ensemble_exact():
    # 2-regular bipartite on 6 vertices is always a single 6-cycle, whose
    # radius-1 neighborhoods are all paths
    spec = EnsembleSpec(6, 2, "bipartite", 21)
    report = locality_check(spec, 1, MC, QaoaParams((1.1,), (0.6,)), trials=4)
    results = report["results"]
    assert not results["no_tree_edges"]
    assert results["tree_edges_checked"] == 4 * 6
    assert results["max_discrepancy"] < 1e-12


def test_locality_check_general_d3():
    spec = EnsembleSpec(14, 3, "general", 33)
    report = locality_check(spec, 1, MC, QaoaParams((0.8,), (0.4,)), trials=5)
    assert report["results"]["max_discrepancy"] < 1e-9
    assert report["results"]["tree_edges_checked"] > 0


def test_locality_check_clique_has_no_tree_edges():
    # the only simple 3-regular graph on 4 vertices is the clique
    spec = EnsembleSpec(4, 3, "general", 0)
    report = locality_check(spec, 1, MC, QaoaParams((0.5,), (0.3,)), trials=2)
    results = report["results"]
    assert results["no_tree_edges"]
    assert results["note"] == "no tree edges"
    assert results["max_discrepancy"] == 0.0


def test_locality_check_without_tree_edges_evaluates_no_tree():
    # no tree ball fits the register at p=13, and TreePathSum(3, 13) raises
    # ResourceError; the clique's balls are never trees, so nothing asks
    spec = EnsembleSpec(4, 3, "general", 0)
    params = QaoaParams((0.5,) * 13, (0.3,) * 13)
    results = locality_check(spec, 13, MC, params, trials=2)["results"]
    assert results["no_tree_edges"]
    assert results["tree_edges_checked"] == 0
    assert results["edges_seen"] == 12


def test_locality_check_holds_one_state_at_a_time():
    """Each trial's state is freed before the next trial builds its own, so
    the peak holds one 2**16-amplitude state, its cost-level index and one
    block buffer, not two states."""
    spec = EnsembleSpec(16, 3, "general", 5)
    params = QaoaParams((0.8,), (0.4,))
    locality_check(EnsembleSpec(8, 3, "general", 5), 1, MC, params, trials=1)  # lazy imports
    tracemalloc.start()
    try:
        report = locality_check(spec, 1, MC, params, trials=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["results"]["tree_edges_checked"] > 0
    assert peak <= 1.6 * (16 << spec.n)


def test_locality_check_validates():
    spec = EnsembleSpec(8, 3, "general", 0)
    with pytest.raises(InputError):
        locality_check(spec, 2, MC, QaoaParams((0.1,), (0.1,)), trials=2)
    with pytest.raises(InputError):
        locality_check(spec, 1, MC, QaoaParams((0.1,), (0.1,)), trials=0)
    # 1.5 used to run 1 trial
    with pytest.raises(InputError):
        locality_check(spec, 1, MC, QaoaParams((0.1,), (0.1,)), trials=1.5)
    # a perfect matching's tree balls have no canonical tree to compare with
    with pytest.raises(InputError, match="degree must be at least 2"):
        locality_check(EnsembleSpec(4, 1, "general", 0), 1, MC, QaoaParams((0.1,), (0.1,)))


# ------------------------------------------------------ ensemble equivalence


def test_equivalence_zero_angles_is_exact():
    report = ensemble_equivalence(
        [8, 12], 3, 1, MC, QaoaParams.zeros(1), trials=4, seed=5
    )
    results = report["results"]
    assert results["tree_value"] == pytest.approx(0.5, abs=1e-12)
    assert results["all_within_bands"]
    for row in results["series"]:
        assert row["general_mean"] == pytest.approx(0.5, abs=1e-12)
        assert row["bipartite_mean"] == pytest.approx(0.5, abs=1e-12)
        assert row["gap"] < 1e-12


@pytest.mark.parametrize("model", [MC, MIS3], ids=["maxcut", "mis3"])
@pytest.mark.parametrize(
    "params",
    [QaoaParams((0.9,), (0.5,)), QaoaParams((0.7, 1.9), (0.4, 0.2))],
    ids=["p1", "p2"],
)
def test_equivalence_tree_value_matches_statevector(model, params):
    report = ensemble_equivalence([8], 3, params.p, model, params, trials=2)
    want = tree_expectation(3, params.p, model, params).value
    assert abs(report["results"]["tree_value"] - want) < 1e-12


@pytest.mark.parametrize(
    "n_list, kwargs, message",
    [
        ([16, 9], {}, "general ensemble needs n*d even"),
        ([16], {"trials": 1}, "need at least two trials for standard errors"),
        ([16], {"seed": -1}, "seed must be nonnegative, got -1"),
        ([16], {"p": 2}, "parameter depth 1 must equal p=2"),
    ],
    ids=["later-n", "trials", "seed", "depth"],
)
def test_equivalence_refuses_bad_input_before_any_work(monkeypatch, n_list, kwargs, message):
    """Every ensemble is built and checked before the first graph is drawn,
    so a bad later n costs no trials of the earlier ones."""

    def no_sampling(spec):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(experiments_module, "sample_graph", no_sampling)
    kwargs = {"p": 1, **kwargs}
    with pytest.raises(InputError) as refusal:
        ensemble_equivalence(n_list, 3, model=MC, params=QaoaParams((0.9,), (0.5,)), **kwargs)
    assert str(refusal.value) == message


def test_equivalence_report_shape():
    report = ensemble_equivalence(
        [10], 3, 1, MC, QaoaParams((0.9,), (0.5,)), trials=6, seed=1
    )
    row = report["results"]["series"][0]
    for key in (
        "general_mean",
        "general_se",
        "general_nontree_fraction",
        "bipartite_mean",
        "bipartite_se",
        "bipartite_nontree_fraction",
        "gap",
        "gap_tolerance",
        "gap_within_band",
    ):
        assert key in row
    assert report["config"]["trials"] == 6
    with pytest.raises(InputError):
        ensemble_equivalence([], 3, 1, MC, QaoaParams.zeros(1), trials=4)


# ------------------------------------------------------------- cycle census


def test_cycle_oracle_values():
    assert cycle_oracle_mean(3, 3) == pytest.approx(8 / 6)
    assert cycle_oracle_mean(3, 6) == pytest.approx(64 / 12)
    assert cycle_oracle_mean(3, 3, "bipartite") == 0.0
    assert cycle_oracle_mean(3, 4, "bipartite") == pytest.approx(16 / 4)
    with pytest.raises(InputError):
        cycle_oracle_mean(3, 2)
    with pytest.raises(InputError):
        cycle_oracle_mean(3, 4, "planar")
    # 3.5 used to answer for degree 3.5
    for d in (3.5, True, 0):
        with pytest.raises(InputError, match="degree must be"):
            cycle_oracle_mean(d, 4)
    assert cycle_oracle_mean(np.int64(3), np.int32(6)) == cycle_oracle_mean(3, 6)


def test_census_bipartite_has_no_odd_cycles(monkeypatch):
    spec = EnsembleSpec(60, 3, "bipartite", 9)
    report = cycle_census_experiment(spec, 5, trials=12)
    results = report["results"]
    assert results["odd_counts_all_zero"]
    assert results["all_within_bands"]
    for row in results["series"]:
        if row["k"] % 2 == 1:
            assert row["mean"] == 0.0 and row["within_3_se"]
    # an odd count at the odd kmax itself clears both summaries
    count_cycles = graphs_module.count_cycles
    monkeypatch.setattr(
        experiments_module, "count_cycles", lambda g, kmax: {**count_cycles(g, kmax), 5: 1}
    )
    results = cycle_census_experiment(spec, 5, trials=12)["results"]
    assert not results["odd_counts_all_zero"]
    assert not results["all_within_bands"]


def test_census_report_shape(monkeypatch):
    spec = EnsembleSpec(40, 3, "general", 2)
    report = cycle_census_experiment(spec, 4, trials=10)
    rows = report["results"]["series"]
    assert [row["k"] for row in rows] == [3, 4]
    for row in rows:
        assert row["se"] >= 0.0
        assert row["oracle_mean"] == cycle_oracle_mean(3, row["k"])
    with pytest.raises(InputError):
        cycle_census_experiment(spec, 2, trials=10)
    # a kmax above the cap is refused before any graph is sampled
    monkeypatch.setattr(experiments_module, "sample_graph", None)
    cycle = EnsembleSpec(10, 2, "general", 0)
    with pytest.raises(ResourceError, match="above the limit"):
        cycle_census_experiment(cycle, graphs_module.MAX_CYCLE_LENGTH + 1, trials=2)
    # and so is one whose path bound n*d*(d-1)^(kmax-2) is above the limit
    for spec in (EnsembleSpec(100, 7, "general", 0), EnsembleSpec(60, 6, "bipartite", 0)):
        with pytest.raises(ResourceError, match=r"may follow up to .* above the limit of 1e"):
            cycle_census_experiment(spec, 12, trials=2)


def test_census_reports_are_pinned():
    # recorded with the first, recursive search; the counts must not move
    general = cycle_census_experiment(EnsembleSpec(300, 3, "general", 1), 7, trials=10)
    rows = general["results"]["series"]
    assert [row["mean"] for row in rows] == [1.9, 1.8, 4.0, 5.3, 8.7]
    assert [row["variance"] for row in rows] == [
        0.5444444444444444, 1.0666666666666669, 2.0, 3.788888888888889, 4.677777777777778
    ]
    bipartite = cycle_census_experiment(EnsembleSpec(100, 4, "bipartite", 2), 6, trials=5)
    rows = bipartite["results"]["series"]
    assert [row["mean"] for row in rows] == [0.0, 19.8, 0.0, 126.4]
    assert [row["variance"] for row in rows] == [0.0, 8.7, 0.0, 19.300000000000004]


# ------------------------------------------------------------ tree fraction


def test_tree_fraction_experiment_growth_indicator():
    spec = EnsembleSpec(32, 3, "general", 13)
    report = tree_fraction_experiment(spec, [1, 4], trials=10)
    rows = report["results"]["series"]
    assert rows[0]["neighborhood_growth"] == 4
    assert rows[0]["growth_below_n"]
    assert rows[1]["neighborhood_growth"] == 256
    assert not rows[1]["growth_below_n"]
    # once the ball outgrows the graph, most neighborhoods contain a cycle
    assert rows[0]["mean_tree_fraction"] > rows[1]["mean_tree_fraction"]
    assert rows[1]["mean_tree_fraction"] < 0.5
    with pytest.raises(InputError):
        tree_fraction_experiment(spec, [], trials=5)


def test_tree_fraction_reports_are_pinned():
    # recorded when every radius still walked every ball by BFS
    general = tree_fraction_experiment(EnsembleSpec(300, 3, "general", 2), [0, 1, 2, 3, 4], trials=5)
    rows = general["results"]["series"]
    assert [row["mean_tree_fraction"] for row in rows] == [
        1.0, 0.9946666666666666, 0.9248888888888889, 0.6271111111111111, 0.11288888888888889
    ]
    assert [row["min_tree_fraction"] for row in rows] == [
        1.0, 0.9866666666666667, 0.8977777777777778, 0.5844444444444444, 0.08
    ]
    bipartite = tree_fraction_experiment(EnsembleSpec(200, 4, "bipartite", 9), [1, 2, 3], trials=4)
    rows = bipartite["results"]["series"]
    assert [row["mean_tree_fraction"] for row in rows] == [1.0, 0.5475, 0.0]
    assert [row["min_tree_fraction"] for row in rows] == [1.0, 0.4775, 0.0]


# --------------------------------------------------------------- end to end


def test_end_to_end_depth0_baseline():
    spec = EnsembleSpec(10, 3, "bipartite", 3)
    report = end_to_end(spec, 0, MC, seed=3, trials=3, samples=0)
    results = report["results"]
    assert results["ratio"]["achieved_ratio"] == pytest.approx(0.5, abs=1e-12)
    assert results["prediction"]["predicted_per_edge"] == pytest.approx(0.5)
    assert results["simulation"]["mean_per_edge"] == pytest.approx(0.5, abs=1e-12)
    assert results["ratio"]["within_ceiling"]


def test_end_to_end_refuses_a_negative_seed_before_it_searches(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched the angles")

    monkeypatch.setattr(experiments_module, "optimize", no_search)
    with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
        end_to_end(EnsembleSpec(8, 3, "general", 0), 2, MC, seed=-1, trials=2)
    # without a seed the spec's own is read
    with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
        end_to_end(EnsembleSpec(8, 3, "general", -1), 2, MC, trials=2)


def test_numpy_integers_give_the_same_reports():
    """Every count, degree, depth and seed may be a numpy integer: the
    serialized report is the one Python ints give."""
    spec = EnsembleSpec(10, 3, "general", 4)
    params = QaoaParams((0.4,), (0.3,))
    runs = [
        lambda n: end_to_end(
            spec, n(1), MIS3, budget=n(5000), seed=n(5), trials=n(2), samples=n(4)
        ),
        lambda n: locality_check(spec, n(1), MC, params, trials=n(2)),
        lambda n: ensemble_equivalence(
            [n(8), n(10)], n(3), n(1), MC, params, trials=n(2), seed=n(3)
        ),
        lambda n: cycle_census_experiment(spec, n(5), trials=n(3)),
        lambda n: tree_fraction_experiment(spec, [n(0), n(1)], trials=n(2)),
        lambda n: ratio_ceiling(MIS3, n(3), n(1), 0.06),
    ]
    for run in runs:
        assert report_json(run(np.int64)) == report_json(run(int))
    ring = cycle_graph(6)
    assert prune(ring, "111111", np.int64(2)) == prune(ring, "111111", 2)


def test_end_to_end_independent_set_prunes_samples():
    spec = EnsembleSpec(8, 3, "general", 11)
    report = end_to_end(spec, 1, MIS3, seed=11, trials=2, samples=10)
    pruning = report["results"]["pruning"]
    assert pruning["samples"] == 20
    assert pruning["all_independent"]
    assert pruning["size_at_least_cost"]
    assert report["results"]["ratio"]["available"]
    assert "pruning" not in end_to_end(spec, 1, MIS3, seed=11, trials=2, samples=0)["results"]


def test_independent_set_end_to_end_reports_are_pinned():
    # recorded before every cost was read from the model's one edge table;
    # se_total again when the mixer went to Kronecker factors, and the
    # simulation floats again when the path sum went to fused slice factors
    # (the searched angles moved to a symmetric point; samples stayed equal),
    # and when refine went to BFGS (totals moved by at most 2.8e-9), and when
    # the grid went to one box of the angle symmetries (the canonical point;
    # totals moved by at most 1.9e-13, samples stayed equal)
    general = end_to_end(EnsembleSpec(16, 3, "general", 7), 1, MIS3, seed=7, trials=3, samples=32)
    assert general["results"]["pruning"] == {
        "samples": 96, "all_independent": True, "positive_cost_samples": 93,
        "size_at_least_cost": True, "mean_set_size": 3.7916666666666665,
        "max_set_size": 6, "mean_input_cost": 1.5104166666666667,
    }
    assert general["results"]["simulation"] == {
        "trials": 3, "mean_total": 1.4972116762069145, "se_total": 0.009650956393112864,
        "mean_per_edge": 0.06238381984195477, "mean_nontree_fraction": 0.08333333333333333,
    }
    # without a seed the spec's own is read
    unseeded = end_to_end(EnsembleSpec(16, 3, "general", 7), 1, MIS3, trials=3, samples=32)
    assert report_json(unseeded) == report_json(general)
    bipartite = end_to_end(
        EnsembleSpec(12, 3, "bipartite", 8), 1, MIS3, seed=8, trials=2, samples=24
    )
    assert bipartite["results"]["pruning"] == {
        "samples": 48, "all_independent": True, "positive_cost_samples": 42,
        "size_at_least_cost": True, "mean_set_size": 2.9583333333333335,
        "max_set_size": 6, "mean_input_cost": 1.1770833333333333,
    }
    assert bipartite["results"]["simulation"] == {
        "trials": 2, "mean_total": 1.1373851917448552, "se_total": 0.0,
        "mean_per_edge": 0.06318806620804751, "mean_nontree_fraction": 0.0,
    }


def test_prune_report_is_pinned():
    # recorded before every cost was read from the model's one edge table
    g = sample_graph(EnsembleSpec(20, 3, "general", 5))
    result = prune(g, "10110111001101011101", 3)
    assert result.output_bitstring == "10100001000100010000"
    assert result.output_set_size == 5
    assert result.steps == [
        ((0, 3), 3), ((0, 13), 13), ((2, 5), 5), ((2, 6), 6),
        ((2, 17), 17), ((7, 10), 10), ((15, 16), 16), ((15, 19), 19),
    ]
    assert [str(c) for c in result.costs] == [
        "-11/2", "-4", "-5/2", "-1", "-1/2", "1", "3/2", "2", "5/2"
    ]
    assert result.input_cost == result.costs[0] == cost_value(MIS3, g, result.input_bitstring)
    assert result.costs[-1] == cost_value(MIS3, g, result.output_bitstring)


def test_independent_set_optimize_report_is_pinned():
    # recorded before every cost was read from the model's one edge table,
    # and again when the path sum went to fused slice factors (the angles
    # moved by at most 1.4e-8 and the value by 1.4e-17), and again when
    # refine went to BFGS (a symmetric point; the value moved by 7.0e-15),
    # and again when the grid went to one box of the angle symmetries and
    # refine to distinct starts: a higher basin, 0.08842126322192997 before
    result = optimize(3, 2, MIS3, "plus")
    assert result.best_value == 0.08937931564893899
    assert result.best_params == QaoaParams(
        (0.6446328876073221, 1.9277044874530092), (2.0757325096596104, 1.3549677516253147)
    )
    assert (result.refinement_iterations, result.converged, result.evaluations) == (
        73, True, 17093
    )


def test_end_to_end_where_no_ceiling_constant_exists():
    spec = EnsembleSpec(8, 2, "general", 1)
    report = end_to_end(spec, 1, MC, seed=1, trials=2, samples=0)
    ratio = report["results"]["ratio"]
    assert ratio["available"] is False
    assert "no constant available" in ratio["reason"]
    report = end_to_end(EnsembleSpec(12, 4, "general", 2), 1, MC, seed=2, trials=2)
    assert report["results"]["ratio"] == {
        "available": False,
        "reason": "no constant available for the cut ceiling at d=4: the literature "
        "gives only the form 'd/4 + O(sqrt(d))'",
    }


# ------------------------------------------------------------ whole reports

P1 = QaoaParams((0.8,), (0.4,))
P2 = QaoaParams((0.7, 1.9), (0.4, 0.2))

# sha256 of each report's JSON text, recorded before the experiments shared
# one trial loop and the ratio ceiling held its constants inline. The
# locality, equivalence and d=4 end-to-end digests were recorded again when
# the mixer went to 16 x 16 Kronecker factors: only floats moved, by at most
# 3.6e-15, and every string, count and sample stayed equal. The locality,
# p=2 equivalence and d=4 end-to-end digests were recorded again when the
# edge reader went to sums over the register's two halves: only floats
# moved, by at most 3.6e-15. The locality-p2, p=2 equivalence and four
# end-to-end digests were recorded again when the path sum went to fused
# slice factors: tree values moved by at most 2.8e-16, each end-to-end angle
# search returned a symmetric point of its old one, simulated totals moved
# by at most 4.1e-8, and every string, count and sample stayed equal
# (CHANGES.md lists each move). The four end-to-end digests with an angle
# search were recorded again when refine went to BFGS: optimized values
# moved by at most 1.8e-15, two searches returned a symmetric point of their
# old one, simulated totals moved by at most 2.9e-8, the refinement
# iteration counts fell, and every sample stayed equal. The same four again
# when the grid went to one box of the angle symmetries: each search reports
# the canonical point in the box, optimized values moved by at most 2.2e-16,
# simulated totals by at most 1.9e-8, and every sample stayed equal.
PINNED_REPORTS = {
    "locality-p1": (
        lambda: locality_check(EnsembleSpec(14, 3, "general", 7), 1, MC, P1, trials=4),
        "e0451f5e9675fcb9fbef28e0aa8a04eb9092c8c4531fe82eedf8b2ea38cff550",
    ),
    "locality-p2": (
        lambda: locality_check(EnsembleSpec(16, 3, "general", 3), 2, MIS3, P2, "zero", trials=3),
        "b84be56c7f84da1d35bff30714f5464061c08db4e585e422a968ac9b0229e1c5",
    ),
    "equivalence-p1": (
        lambda: ensemble_equivalence([10, 12], 3, 1, MC, P1, trials=5, seed=4),
        "ba4140189966ea190a392b3f5248cfcfc3b777d31e2511554b5e27351c2bdcc0",
    ),
    "equivalence-p2": (
        lambda: ensemble_equivalence([14], 3, 2, MIS3, P2, trials=3, seed=6),
        "32f2c2dcdbfe8394d64184a26ed5679dd824f2eadf6cf3304649b9f2d9024504",
    ),
    "cycles-general": (
        lambda: cycle_census_experiment(EnsembleSpec(200, 3, "general", 5), 6, trials=10),
        "f207e032474e11d6d3b3df06719b165adebcded61db601b523f7adbe0b2e9758",
    ),
    "cycles-bipartite": (
        lambda: cycle_census_experiment(EnsembleSpec(100, 4, "bipartite", 3), 6, trials=5),
        "d90790550b7021fb72141868b4773b2d505425281e88b2f5ee6edb3372d0d272",
    ),
    "tree-fraction": (
        lambda: tree_fraction_experiment(EnsembleSpec(100, 3, "general", 8), [0, 1, 2, 3], trials=5),
        "1ed4e4e1a1757e69cf1538a4494389f9a9de772f672626e21cb8a24c85761edf",
    ),
    # a ratio from the d=3 cut constant
    "end-to-end-maxcut-d3": (
        lambda: end_to_end(EnsembleSpec(16, 3, "general", 4), 1, MC, seed=4, trials=3),
        "d4ea1a45f3306f33f3dbeca8749ac982b367ab1cd96cb21ac466e98a3bee2816",
    ),
    "end-to-end-mis-d3-bipartite": (
        lambda: end_to_end(
            EnsembleSpec(12, 3, "bipartite", 5), 1, MIS3, seed=5, trials=2, samples=16
        ),
        "8006f307fca2594065964a0667c8169760305142c4c44f5be9b151fe1f4f5db4",
    ),
    # the asymptotic large-d independent-set ceiling
    "end-to-end-mis-d4": (
        lambda: end_to_end(
            EnsembleSpec(10, 4, "general", 6), 1, CostModel.mis(4), seed=6, trials=2, samples=8
        ),
        "259eb0fd31635d522c4011eaaa333a268db9d9eec050420289ddaaa8f5d61e52",
    ),
    # no cut constant: the ratio section holds the refusal's text
    "end-to-end-maxcut-d4": (
        lambda: end_to_end(EnsembleSpec(12, 4, "general", 2), 1, MC, seed=2, trials=2),
        "5507697a8086346e67037a1c72a5fea2a24014e6e50a0207b251b47061e1aaa9",
    ),
    "end-to-end-p0": (
        lambda: end_to_end(EnsembleSpec(10, 3, "bipartite", 3), 0, MC, seed=3, trials=3, samples=0),
        "7e7926678bfb4d6b93219bd0bfe1325100b4ce556d10a04e8ad91da966213dc5",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_REPORTS))
def test_whole_reports_are_pinned(case):
    build, digest = PINNED_REPORTS[case]
    text = report_json(build())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, text


def digests_by_blas_threads(case):
    """The digest of one pinned report, built with one and with two BLAS
    threads, each in a fresh interpreter."""
    script = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]); "
        "from test_experiments import PINNED_REPORTS, report_json; "
        f"text = report_json(PINNED_REPORTS[{case!r}][0]()); "
        "print(hashlib.sha256(text.encode('utf-8')).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).parent)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    return digests


def test_a_pinned_report_does_not_depend_on_the_blas_thread_count():
    """The mixer's matrix products run in BLAS, which may split them over
    threads; the report must come out byte-equal either way."""
    assert digests_by_blas_threads("locality-p2") == {PINNED_REPORTS["locality-p2"][1]}


def test_a_pinned_path_sum_report_does_not_depend_on_the_blas_thread_count():
    """The path sum's group factors run in BLAS too: this report's angle
    search (grid and refinement) and tree value go through it."""
    case = "end-to-end-maxcut-d3"
    assert digests_by_blas_threads(case) == {PINNED_REPORTS[case][1]}


# ------------------------------------------------------------ serialization


def test_make_report_envelope():
    report = make_report("demo", {"a": 1}, {"b": 2})
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["kind"] == "demo"
    assert report["config"] == {"a": 1}
    assert report["results"] == {"b": 2}


def test_report_json_handles_fractions_numpy_and_tuples():
    report = make_report(
        "demo",
        {"seed": np.int64(7)},
        {
            "cost": Fraction(3, 2),
            "pair": (1, 2),
            "arr": np.array([0.5, 0.25]),
            "flag": np.bool_(True),
        },
    )
    decoded = json.loads(report_json(report))
    assert decoded["config"]["seed"] == 7
    assert decoded["results"]["cost"] == "3/2"
    assert decoded["results"]["pair"] == [1, 2]
    assert decoded["results"]["arr"] == [0.5, 0.25]
    assert decoded["results"]["flag"] is True


def test_report_json_deterministic_and_full_precision():
    spec = EnsembleSpec(6, 2, "bipartite", 21)
    a = locality_check(spec, 1, MC, QaoaParams((1.1,), (0.6,)), trials=2)
    b = locality_check(spec, 1, MC, QaoaParams((1.1,), (0.6,)), trials=2)
    assert report_json(a) == report_json(b)
    value = 0.6924500897298755
    assert repr(value) in report_json(make_report("demo", {}, {"v": value}))


def test_csv_from_report():
    spec = EnsembleSpec(40, 3, "general", 2)
    report = cycle_census_experiment(spec, 4, trials=5)
    text = csv_from_report(report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("k,")
    assert len(lines) == 3  # header + k=3 + k=4
    with pytest.raises(InputError):
        csv_from_report(make_report("demo", {}, {"no": "table"}))
