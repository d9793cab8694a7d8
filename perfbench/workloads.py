"""The four workloads: fixed lists of calls into the package's public entry
points, each paired with an oracle.

Every call is made through the ``qaoa_locality`` package namespace at call
time, so a traced pass sees the wrapped functions. Inputs derive from the
workload seed only. An oracle returns a list of problems, each tagged
``exact`` (an identity every correct implementation satisfies, for every
seed) or ``target`` (a published optimum the optimizer should reach); both
count the op as failed, and only ``exact`` problems make a run incorrect.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# Optimal middle-edge MaxCut value of QAOA at p=2 on the d=3 tree (Farhi,
# Goldstone & Gutmann, arXiv:1411.4028, quoted there as 0.7559); a scipy
# Nelder-Mead multistart on tree_expectation reaches it at
# gammas ~ (0.488, 0.898), betas ~ (0.555, 0.293).
P2_D3_OPTIMUM = 0.755906458453
OPT_TOLERANCE = 1e-6  # one-sided: a value this far below an optimum misses it
# 1/2 + 1/(3*sqrt(3)): the p=1 optimum on the d=3 tree, from the closed form.
P1_D3_OPTIMUM = 0.5 + 1.0 / (3.0 * math.sqrt(3.0))
GAP_FLOOR = 1e-9  # opt_gap below this reads as 0

LOCALITY_TOL = 1e-10
FORMULA_TOL = 1e-12
BIPARTITE_TREE_TOL = 1e-10
# Cycle-census means sit within 8 standard errors of the limiting mean for
# any seed in practice (a normal tail of about 1e-15 per length).
CENSUS_SIGMAS = 8.0


@dataclass
class Op:
    """One top-level call; ``call`` gets the package and the results of the
    ops before it, ``check`` gets this op's result, and ``gap``, where set,
    measures how far the result falls short of a known optimum."""

    name: str
    call: Callable
    check: Callable
    gap: Callable | None = None


def _seeds(seed: int, count: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64) >> 1]


def p1_tree_value(d: int, gamma: float, beta: float) -> float:
    """Closed-form p=1 MaxCut middle-edge value on the d-regular tree."""
    return 0.5 + 0.5 * math.sin(4 * beta) * math.sin(gamma) * math.cos(gamma) ** (d - 1)


def _reported(q, report: dict) -> dict:
    # Every report goes through report_json; the oracle reads what a user reads.
    return json.loads(q.report_json(report))


def _exact(ok: bool, message: str) -> list:
    return [] if ok else [("exact", message)]


# ----------------------------------------------------------------------
# ensemble: the full-statevector path
# ----------------------------------------------------------------------

def _check_p1_opt(res) -> list:
    g, b = res.best_params.gammas[0], res.best_params.betas[0]
    closed = p1_tree_value(3, g, b)
    problems = _exact(
        abs(res.best_value - closed) <= FORMULA_TOL,
        f"p=1 value {res.best_value!r} differs from the closed form {closed!r}",
    )
    if res.best_value < P1_D3_OPTIMUM - OPT_TOLERANCE:
        problems.append(("target", f"p=1 value {res.best_value!r} below {P1_D3_OPTIMUM!r}"))
    return problems


def _check_equivalence(rep: dict) -> list:
    res = rep["results"]
    params = rep["config"]["params"]
    closed = p1_tree_value(3, params["gammas"][0], params["betas"][0])
    problems = _exact(
        abs(res["tree_value"] - closed) <= FORMULA_TOL,
        f"tree value {res['tree_value']!r} differs from the closed form {closed!r}",
    )
    # Bipartite graphs have no triangles, so at p=1 every edge ball is the
    # tree and every edge's value is exactly the tree value.
    for row in res["series"]:
        problems += _exact(
            row["bipartite_nontree_fraction"] == 0.0
            and abs(row["bipartite_mean"] - res["tree_value"]) <= BIPARTITE_TREE_TOL,
            f"bipartite n={row['n']} mean {row['bipartite_mean']!r} is not the tree value",
        )
    return problems


def _check_locality(rep: dict) -> list:
    res = rep["results"]
    return _exact(
        res["max_discrepancy"] <= LOCALITY_TOL and res["tree_edges_checked"] > 0,
        f"locality: max_discrepancy {res['max_discrepancy']!r} over "
        f"{res['tree_edges_checked']} tree edges",
    )


def _seed_with_tree_edge(q, candidates, n: int, d: int, radius: int, trials: int) -> int:
    """First ensemble seed whose trial graphs (seeded per trial through
    ``derive_seeds``, as the experiments do) have an edge with a tree ball.

    At n=20 and radius 2 the ball holds 14 of the 20 vertices, and about 2.4%
    of seeds give two graphs without a single tree edge, which would leave
    the locality oracle nothing to compare.
    """
    for candidate in candidates:
        for child in q.derive_seeds(candidate, trials):
            g = q.sample_graph(q.EnsembleSpec(n, d, "general", child))
            if q.tree_edge_fraction(g, radius) > 0.0:
                return candidate
    raise ValueError(f"no candidate seed gives a radius-{radius} tree edge at n={n}")


def ensemble(seed: int) -> list[Op]:
    import numpy as np
    import qaoa_locality as q

    s = _seeds(seed, 12)
    rng = np.random.default_rng(s[0])
    gammas = tuple(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
    betas = tuple(float(x) for x in rng.uniform(0.0, math.pi, 2))
    p2_seed = _seed_with_tree_edge(q, s[3:], 20, 3, 2, 2)

    def opt_p1(q, prior):
        return q.optimize(3, 1, q.CostModel.maxcut())

    def equivalence(q, prior):
        return _reported(q, q.ensemble_equivalence(
            [16, 18, 20], 3, 1, q.CostModel.maxcut(), prior[0].best_params,
            trials=8, seed=s[1],
        ))

    def locality_p2(q, prior):
        return _reported(q, q.locality_check(
            q.EnsembleSpec(20, 3, "general", p2_seed), 2, q.CostModel.maxcut(),
            q.QaoaParams(gammas, betas), trials=2,
        ))

    def locality_p1(q, prior):
        return _reported(q, q.locality_check(
            q.EnsembleSpec(18, 3, "general", s[2]), 1, q.CostModel.maxcut(),
            prior[0].best_params, trials=6,
        ))

    return [
        Op("optimize(3,1)", opt_p1, _check_p1_opt),
        Op("ensemble_equivalence", equivalence, _check_equivalence),
        Op("locality_check(n=20,p=2)", locality_p2, _check_locality),
        Op("locality_check(n=18,p=1)", locality_p1, _check_locality),
    ]


# ----------------------------------------------------------------------
# angles: the optimizer alone
# ----------------------------------------------------------------------

def opt_gap(best_value: float) -> float:
    gap = P2_D3_OPTIMUM - best_value
    return 0.0 if gap < GAP_FLOOR else gap


def angles(seed: int) -> list[Op]:
    # optimize() is deterministic; the seed changes nothing here.
    def opt_p2(q, prior):
        return q.optimize(3, 2, q.CostModel.maxcut())

    def check(res) -> list:
        import qaoa_locality as q

        again = q.tree_expectation(3, 2, q.CostModel.maxcut(), res.best_params).value
        problems = _exact(
            abs(again - res.best_value) <= LOCALITY_TOL,
            f"best_value {res.best_value!r} differs from tree_expectation {again!r}",
        )
        if res.best_value < P2_D3_OPTIMUM - OPT_TOLERANCE:
            problems.append((
                "target",
                f"best_value {res.best_value!r} below the p=2 optimum "
                f"{P2_D3_OPTIMUM!r} - {OPT_TOLERANCE:g} (converged={res.converged})",
            ))
        return problems

    return [Op("optimize(3,2)", opt_p2, check, gap=lambda res: opt_gap(res.best_value))]


# ----------------------------------------------------------------------
# census: graph sampling, edge balls and cycles only
# ----------------------------------------------------------------------

def _check_census(rep: dict) -> list:
    res, cfg = rep["results"], rep["config"]
    problems = []
    if cfg["kind"] == "bipartite":
        problems += _exact(res["odd_counts_all_zero"] is True, "bipartite graph with an odd cycle")
    ks = [row["k"] for row in res["series"]]
    problems += _exact(ks == list(range(3, cfg["kmax"] + 1)), f"census lengths {ks}")
    for row in res["series"]:
        k = row["k"]
        if cfg["kind"] == "bipartite":
            limit = 0.0 if k % 2 else (cfg["d"] - 1) ** k / k
        else:
            limit = (cfg["d"] - 1) ** k / (2 * k)
        problems += _exact(
            abs(row["mean"] - limit) <= CENSUS_SIGMAS * row["se"] + 1e-12,
            f"{cfg['kind']} k={k}: mean {row['mean']!r} vs limit {limit!r}, se {row['se']!r}",
        )
    return problems


def _check_tree_fraction(rep: dict) -> list:
    # A ball that is a tree at radius p+1 is a tree at radius p, so the
    # fractions can only fall as p grows.
    rows = rep["results"]["series"]
    problems = []
    for row in rows:
        problems += _exact(
            0.0 <= row["min_tree_fraction"] <= row["mean_tree_fraction"] <= 1.0,
            f"tree fraction out of order at p={row['p']}",
        )
    for a, b in zip(rows, rows[1:]):
        problems += _exact(
            b["mean_tree_fraction"] <= a["mean_tree_fraction"]
            and b["min_tree_fraction"] <= a["min_tree_fraction"],
            f"tree fraction rises from p={a['p']} to p={b['p']}",
        )
    return problems


def _check_regular(n: int, d: int):
    def check(g) -> list:
        degrees = [0] * n
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        return _exact(
            g.n == n
            and len(g.edges) == n * d // 2
            and len(set(g.edges)) == len(g.edges)
            and all(0 <= u < v < n for u, v in g.edges)
            and all(x == d for x in degrees),
            f"sample_graph(n={n}, d={d}) is not a simple {d}-regular graph",
        )

    return check


def census(seed: int) -> list[Op]:
    s = _seeds(seed, 23)

    def cycles(kind, sd):
        return lambda q, prior: _reported(
            q, q.cycle_census_experiment(q.EnsembleSpec(1000, 3, kind, sd), 7, trials=100)
        )

    def tree_fraction(q, prior):
        return _reported(q, q.tree_fraction_experiment(
            q.EnsembleSpec(2000, 3, "general", s[2]), [1, 2, 3, 4], trials=10
        ))

    def sample(n, d, sd):
        return lambda q, prior: q.sample_graph(q.EnsembleSpec(n, d, "general", sd))

    ops = [
        Op("cycle_census(general)", cycles("general", s[0]), _check_census),
        Op("cycle_census(bipartite)", cycles("bipartite", s[1]), _check_census),
        Op("tree_fraction", tree_fraction, _check_tree_fraction),
    ]
    # d=5 keeps stub matching near 0.24% acceptance (about 416 attempts a
    # graph). d=6 (about 8.6k attempts a graph, geometric, so the standard
    # deviation equals the mean) would swing pass time by ~9% with the seed.
    ops += [Op("sample_graph(d=5,n=200)", sample(200, 5, sd), _check_regular(200, 5)) for sd in s[3:]]
    return ops


# ----------------------------------------------------------------------
# sample-prune: sampling from the full state, then pruning
# ----------------------------------------------------------------------

def _check_pruning(trials: int, samples: int):
    def check(rep: dict) -> list:
        pr = rep["results"].get("pruning")
        if pr is None:
            return [("exact", "end_to_end report has no pruning section")]
        return _exact(
            pr["samples"] == trials * samples
            and pr["all_independent"] is True
            and pr["size_at_least_cost"] is True,
            f"pruning: samples {pr['samples']}, all_independent {pr['all_independent']}, "
            f"size_at_least_cost {pr['size_at_least_cost']}",
        )

    return check


def sample_prune(seed: int) -> list[Op]:
    s = _seeds(seed, 4)

    def run(n, kind, spec_seed, graph_seed, trials, samples):
        return lambda q, prior: _reported(q, q.end_to_end(
            q.EnsembleSpec(n, 3, kind, spec_seed), 1, q.CostModel.mis(3),
            seed=graph_seed, trials=trials, samples=samples,
        ))

    return [
        Op("end_to_end(mis,n=20)", run(20, "general", s[0], s[1], 6, 256), _check_pruning(6, 256)),
        Op("end_to_end(mis,n=16,bipartite)", run(16, "bipartite", s[2], s[3], 20, 128),
           _check_pruning(20, 128)),
    ]


WORKLOADS = {
    "ensemble": ensemble,
    "angles": angles,
    "census": census,
    "sample-prune": sample_prune,
}
