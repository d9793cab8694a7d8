"""Experiment harness: locality verification, ensemble comparison, cycle
census, tree-fraction curves, ratio ceilings, pruning, and report output.

Every experiment returns a plain-dict report with a schema version. Reports
serialize to JSON with sorted keys and full double precision, so a fixed
configuration always produces byte-identical output; experiments that
produce a table also expose it as a ``series`` list renderable to CSV.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, integer
from .graphs import (
    EnsembleSpec,
    Graph,
    _check_census,
    count_cycles,
    edge_tree_radii,
    sample_graph,
)
from .optimize import DEFAULT_BUDGET, optimize
from .qaoa import (
    MAXCUT,
    MIS,
    CostModel,
    QaoaParams,
    bit_values,
    cost_value,
    expect_edges,
    run_qaoa,
    sample_bitstrings,
)
from .rng import derive_seeds
from .trees import LightConeSum, TreePathSum

__all__ = [
    "SCHEMA_VERSION",
    "PruneResult",
    "ratio_ceiling",
    "prune",
    "locality_check",
    "ensemble_equivalence",
    "cycle_oracle_mean",
    "cycle_census_experiment",
    "tree_fraction_experiment",
    "end_to_end",
    "make_report",
    "report_json",
    "csv_from_report",
]

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# ratio ceilings
# ----------------------------------------------------------------------

def ratio_ceiling(model: CostModel, d: int, p: int, best_tree_value: float) -> dict:
    """Compare the ratio implied by a single-edge tree value against the
    literature ceiling for the ensemble optimum.

    The record holds ``model``, ``d``, ``p``, ``tree_value``, ``ceiling``
    and ``achieved_ratio``: ``tree_value`` for the cut model (expected cut
    n*d/2 * C over the bipartite optimum n*d/2) and ``d * tree_value`` for
    the independent-set model (output value n*d/2 * C over the bipartite
    optimum n/2). ``within_ceiling`` compares the two. ``finite_size_flag``
    records that the prediction carries an unquantified finite-size
    correction, ``provenance`` holds the constant and its source, and
    ``asymptotic`` marks ceilings taken from a large-d formula rather than
    a fixed-d constant.

    Covered cases: cut model at d = 3 (optimal cut below 1.4026 n, ceiling
    2 * 1.4026 / 3); independent set at d = 3 (maximum set below 0.454 n,
    ceiling 2 * 0.454) and d >= 4 (coefficient 2 ln(d) / d, ceiling twice
    that, asymptotic). Any other request raises, because no trustworthy
    constant exists and a guessed number would be worse than an error: for
    the cut at large d only the form d/4 + O(sqrt(d)) is known.
    """
    if not isinstance(model, CostModel):
        raise InputError(f"unknown cost model {model!r}")
    d = integer(d, "degree", 1)
    model.check_degree(d)
    p = integer(p, "depth", 0)
    value = float(best_tree_value)
    asymptotic = False
    if model.kind == MAXCUT:
        if d != 3:
            raise InputError(
                f"no constant available for the cut ceiling at d={d}: the "
                "literature gives only the form 'd/4 + O(sqrt(d))'"
            )
        constant = 1.4026
        source = (
            "literature upper bound for random 3-regular graphs: "
            "optimal cut <= 1.4026 n asymptotically almost surely"
        )
        ceiling = 2.0 * constant / 3.0
        achieved = value
    else:
        if d == 3:
            constant = 0.454
            source = (
                "literature upper bound for random 3-regular graphs: "
                "maximum independent set <= 0.454 n asymptotically almost surely"
            )
        elif d >= 4:
            constant = 2.0 * math.log(d) / d
            source = (
                "literature upper bound for random d-regular graphs at large d: "
                "independence coefficient <= 2 ln(d) / d (asymptotic)"
            )
            asymptotic = True
        else:
            raise InputError(
                f"no constant available for the independent-set ceiling at d={d}"
            )
        ceiling = 2.0 * constant
        achieved = d * value
    return {
        "model": model.kind,
        "d": d,
        "p": p,
        "tree_value": value,
        "ceiling": ceiling,
        "achieved_ratio": achieved,
        "finite_size_flag": True,
        "provenance": {"constant": constant, "source": source},
        "asymptotic": asymptotic,
        "within_ceiling": achieved <= ceiling + 1e-9,
    }


# ----------------------------------------------------------------------
# pruning
# ----------------------------------------------------------------------

@dataclass
class PruneResult:
    """Outcome of greedy violated-edge repair on one bitstring.

    ``steps`` lists (edge, vertex zeroed) in execution order; ``costs``
    holds the exact rational independent-set cost before any step and after
    each one, so monotonicity can be checked without re-deriving anything.
    """

    input_bitstring: str
    output_bitstring: str
    input_cost: Fraction
    output_set_size: int
    steps: list
    costs: list


def prune(g: Graph, b, d: int) -> PruneResult:
    """Zero out one endpoint of each violated edge until the string is an
    independent set.

    While any edge has both endpoints set, the lexicographically smallest
    such edge (u, v) with u < v is repaired by clearing the larger endpoint
    v. Clearing a bit never makes an edge violated, so one scan of the
    sorted edges makes these repairs in turn. Each repair raises the exact
    independent-set cost by at least 1/2, so the final set size is at least
    the input cost whenever that cost is positive. Terminates in at most n
    steps.
    """
    d = integer(d, "degree", 1)
    for v in range(g.n):
        if g.degree_of(v) != d:
            raise InputError(
                f"pruning needs a d-regular graph: vertex {v} has degree "
                f"{g.degree_of(v)}, expected {d}"
            )
    bits = bit_values(b, g.n)
    model = CostModel.mis(d)
    work = list(bits)
    costs = [cost_value(model, g, work)]
    steps: list[tuple[tuple[int, int], int]] = []
    for u, v in g.edges:
        if work[u] and work[v]:
            work[v] = 0
            steps.append(((u, v), v))
            # On a d-regular graph the cost is |set|/2 minus the violated
            # edges, so clearing v adds one per neighbour still set, minus 1/2.
            still_set = sum(work[w] for w in g.adjacency[v])
            costs.append(costs[-1] + still_set - Fraction(1, 2))
    return PruneResult(
        input_bitstring="".join(str(x) for x in bits),
        output_bitstring="".join(str(x) for x in work),
        input_cost=costs[0],
        output_set_size=sum(work),
        steps=steps,
        costs=costs,
    )


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def _model_config(model: CostModel) -> dict:
    return {"kind": model.kind, "d": model.d}


def _params_config(params: QaoaParams) -> dict:
    return {"gammas": list(params.gammas), "betas": list(params.betas)}


def _trial_graphs(spec: EnsembleSpec, seeds):
    """Yield (seed, graph) for each trial seed: the graph of ``spec``
    drawn with that seed in place of the spec's own."""
    for child in seeds:
        yield child, sample_graph(dataclasses.replace(spec, seed=child))


def _mean_se(values) -> tuple[float, float]:
    """Mean and standard error of the mean; one value has error 0."""
    values = np.asarray(values)
    trials = len(values)
    se = values.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
    return float(values.mean()), float(se)


def locality_check(
    spec: EnsembleSpec,
    p: int,
    model: CostModel,
    params: QaoaParams,
    initial: str = "plus",
    trials: int = 10,
) -> dict:
    """Compare full-graph edge expectations against the canonical tree's
    :class:`TreePathSum` value on every edge whose radius-p ball is a tree.

    Every tree ball is the canonical tree, so one path-sum value serves all
    of them; it is computed at the first tree edge, and a run without one
    evaluates no tree. The edges of one graph are read from one probability
    vector, and its state is freed before the next graph's is built. Reports
    the maximum absolute discrepancy over everything checked; if no edge
    anywhere has a tree neighborhood the report says so instead.
    """
    p = integer(p, "depth", 0)
    trials = integer(trials, "trials", 1)
    if params.p != p:
        raise InputError(f"parameter depth {params.p} must equal p={p}")
    model.check_degree(spec.d)
    tree_value = None
    rows = []
    trial_graphs = _trial_graphs(spec, derive_seeds(spec.seed, trials))
    for trial, (child, g) in enumerate(trial_graphs):
        radii = edge_tree_radii(g, p).tolist()
        tree_edges = [edge for edge, radius in zip(g.edges, radii) if radius >= p]
        state = run_qaoa(g, model, params, initial)
        values = expect_edges(state, tree_edges, model)
        del state  # freed before the next trial builds its own
        if values and tree_value is None:
            tree_value = TreePathSum(spec.d, p, model, initial).value(
                params.gammas, params.betas
            )
        worst = max((abs(value - tree_value) for value in values), default=0.0)
        rows.append(
            {
                "trial": trial,
                "seed": child,
                "edges": g.m,
                "tree_edges": len(tree_edges),
                "max_abs_diff": worst,
            }
        )
    tree_edges_checked = sum(row["tree_edges"] for row in rows)
    config = {
        **dataclasses.asdict(spec),
        "p": p,
        "model": _model_config(model),
        "params": _params_config(params),
        "initial": initial,
        "trials": trials,
    }
    payload = {
        "max_discrepancy": max(row["max_abs_diff"] for row in rows),
        "tree_edges_checked": tree_edges_checked,
        "edges_seen": sum(row["edges"] for row in rows),
        "no_tree_edges": tree_edges_checked == 0,
        "note": "no tree edges" if tree_edges_checked == 0 else "",
        "series": rows,
    }
    return make_report("locality-check", config, payload)


def _equivalence_specs(n_list, d: int, trials: int = 100, seed: int = 0) -> list:
    """The general and the bipartite ensemble of each n, seeded as
    :func:`ensemble_equivalence` seeds them: every input of that experiment
    but the model and the angles is checked before anything is sampled."""
    n_list = list(n_list)
    if not n_list:
        raise InputError("n_list must not be empty")
    integer(trials, "trials", 2, "need at least two trials for standard errors")
    seeds = iter(derive_seeds(seed, 2 * len(n_list)))
    return [
        tuple(EnsembleSpec(n, d, kind, next(seeds)) for kind in ("general", "bipartite"))
        for n in n_list
    ]


def ensemble_equivalence(
    n_list,
    d: int,
    p: int,
    model: CostModel,
    params: QaoaParams,
    initial: str = "plus",
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Monte Carlo per-edge cost on general versus bipartite ensembles.

    For each n the two ensemble means are compared with each other and with
    the canonical-tree value. Tolerances are 3 combined standard errors
    plus each ensemble's measured non-tree-edge fraction, since edges whose
    neighborhood is not a tree contribute an unquantified bias. Each graph's
    exact total and tree-edge count come from :class:`LightConeSum`.
    """
    specs = _equivalence_specs(n_list, d, trials, seed)
    p = integer(p, "depth", 0)
    if params.p != p:
        raise InputError(f"parameter depth {params.p} must equal p={p}")
    light_cone = LightConeSum(d, model, params, initial)
    tree_value = light_cone.tree_value
    rows = []
    for general, bipartite in specs:
        stats = []
        for spec in (general, bipartite):
            per_edge = []
            nontree = []
            for _, g in _trial_graphs(spec, derive_seeds(spec.seed, trials)):
                total, tree_edges = light_cone.total(g)
                per_edge.append(total / g.m)
                nontree.append(1.0 - tree_edges / g.m)
            stats.append((*_mean_se(per_edge), float(np.mean(nontree))))
        (mean_g, se_g, frac_g), (mean_b, se_b, frac_b) = stats
        gap = abs(mean_g - mean_b)
        # the 1e-9 floor keeps a zero-variance band (every sampled graph
        # locally tree-like, e.g. bipartite at p=1) from rejecting float
        # accumulation noise
        gap_tolerance = 3.0 * math.hypot(se_g, se_b) + frac_g + frac_b + 1e-9
        general_near = abs(mean_g - tree_value) <= 3.0 * se_g + frac_g + 1e-9
        bipartite_near = abs(mean_b - tree_value) <= 3.0 * se_b + frac_b + 1e-9
        rows.append(
            {
                "n": general.n,
                "general_mean": mean_g,
                "general_se": se_g,
                "general_nontree_fraction": frac_g,
                "general_matches_tree": general_near,
                "bipartite_mean": mean_b,
                "bipartite_se": se_b,
                "bipartite_nontree_fraction": frac_b,
                "bipartite_matches_tree": bipartite_near,
                "gap": gap,
                "gap_tolerance": gap_tolerance,
                "gap_within_band": gap <= gap_tolerance,
            }
        )
    config = {
        "n_list": [general.n for general, _ in specs],
        "d": light_cone.d,
        "p": p,
        "model": _model_config(model),
        "params": _params_config(params),
        "initial": initial,
        "trials": trials,
        "seed": seed,
    }
    payload = {
        "tree_value": tree_value,
        "all_within_bands": all(
            row["gap_within_band"] and row["general_matches_tree"] and row["bipartite_matches_tree"]
            for row in rows
        ),
        "series": rows,
    }
    return make_report("equivalence", config, payload)


def cycle_oracle_mean(d: int, k: int, kind: str = "general") -> float:
    """Limiting mean number of length-k cycles in the random d-regular
    ensemble: (d-1)^k / (2k) in general; bipartite doubles the even-length
    mean and has no odd cycles at all."""
    d = integer(d, "degree", 1)
    k = integer(k, "cycle length", 3)
    if kind == "bipartite":
        if k % 2 == 1:
            return 0.0
        return float((d - 1) ** k) / k
    if kind != "general":
        raise InputError(f"unknown ensemble kind {kind!r}")
    return float((d - 1) ** k) / (2 * k)


def cycle_census_experiment(spec: EnsembleSpec, kmax: int, trials: int = 100) -> dict:
    """Empirical short-cycle counts across seeds, banded against the
    limiting means; bipartite runs additionally require every odd count to
    be exactly zero."""
    kmax = _check_census(kmax, spec.n, spec.d)
    trials = integer(trials, "trials", 2, "need at least two trials for standard errors")
    samples: dict[int, list[int]] = {k: [] for k in range(3, kmax + 1)}
    for _, g in _trial_graphs(spec, derive_seeds(spec.seed, trials)):
        census = count_cycles(g, kmax)
        for k in samples:
            samples[k].append(census[k])
    rows = []
    for k in range(3, kmax + 1):
        values = np.asarray(samples[k], dtype=float)
        mean = float(values.mean())
        variance = float(values.var(ddof=1))
        se = math.sqrt(variance / trials)
        oracle = cycle_oracle_mean(spec.d, k, spec.kind)
        if spec.kind == "bipartite" and k % 2 == 1:
            within = mean == 0.0
        else:
            within = abs(mean - oracle) <= 3.0 * se or mean == oracle
        rows.append(
            {
                "k": k,
                "mean": mean,
                "variance": variance,
                "se": se,
                "oracle_mean": oracle,
                "within_3_se": within,
            }
        )
    config = {**dataclasses.asdict(spec), "kmax": kmax, "trials": trials}
    payload = {"all_within_bands": all(row["within_3_se"] for row in rows), "series": rows}
    if spec.kind == "bipartite":
        payload["odd_counts_all_zero"] = not any(any(samples[k]) for k in samples if k % 2)
    return make_report("cycles", config, payload)


def tree_fraction_experiment(spec: EnsembleSpec, p_list, trials: int = 20) -> dict:
    """Mean fraction of edges with tree radius-p neighborhoods, per p,
    reported next to the neighborhood growth (d-1)^(2p) whose comparison
    against n indicates whether near-1 fractions should be expected."""
    p_list = [integer(p, "radius", 0) for p in p_list]
    if not p_list:
        raise InputError("p_list must not be empty")
    trials = integer(trials, "trials", 1)
    # Each graph is walked once, at the largest radius, and only its
    # fractions are kept: a ball is a tree at radius p exactly when the
    # edge's tree radius is at least p.
    tree_fractions: dict[int, list[float]] = {p: [] for p in p_list}
    for _, g in _trial_graphs(spec, derive_seeds(spec.seed, trials)):
        radii = edge_tree_radii(g, max(p_list))
        for p in p_list:
            short = int(np.count_nonzero(np.maximum(p - radii, 0)))
            tree_fractions[p].append((g.m - short) / g.m)
    rows = []
    for p in p_list:
        values = np.asarray(tree_fractions[p])
        growth = (spec.d - 1) ** (2 * p)
        rows.append(
            {
                "p": p,
                "mean_tree_fraction": float(values.mean()),
                "min_tree_fraction": float(values.min()),
                "neighborhood_growth": growth,
                "growth_below_n": growth < spec.n,
            }
        )
    config = {**dataclasses.asdict(spec), "p_list": p_list, "trials": trials}
    return make_report("tree-fraction", config, {"series": rows})


def end_to_end(
    spec: EnsembleSpec,
    p: int,
    model: CostModel,
    budget: int = DEFAULT_BUDGET,
    seed: int | None = None,
    *,
    initial: str = "plus",
    trials: int = 20,
    samples: int = 64,
) -> dict:
    """Full pipeline: optimize angles on the canonical tree, predict the
    ensemble cost, check against exact totals of sampled graphs at this n
    (:class:`LightConeSum`), attach the ratio ceiling where constants exist,
    and (independent-set model only) sample bitstrings from each graph's full
    state and prune them into independent sets.

    Every graph and every sample is drawn from ``seed``, or from
    ``spec.seed`` when ``seed`` is None; the report echoes it as ``seed_graphs``."""
    seed = spec.seed if seed is None else seed
    p = integer(p, "depth", 0)
    trials = integer(trials, "trials", 1)
    samples = integer(samples, "sample count", 0)
    children = derive_seeds(seed, 2 * trials)  # refuses a bad seed before the search
    opt = optimize(spec.d, p, model, initial, budget=budget)
    params = opt.best_params
    tree_value = opt.best_value
    light_cone = LightConeSum(spec.d, model, params, initial)
    totals = []
    nontree = []
    independent = []
    sizes = []
    input_costs = []
    for t, (_, g) in enumerate(_trial_graphs(spec, children[:trials])):
        total, tree_edges = light_cone.total(g)
        totals.append(total)
        nontree.append(1.0 - tree_edges / g.m)
        if model.kind == MIS and samples > 0:
            state = run_qaoa(g, model, params, initial)
            picks = sample_bitstrings(state, samples, children[trials + t])
            del state  # freed before the next trial builds its own
            for bits in picks:
                result = prune(g, bits, spec.d)
                out = bit_values(result.output_bitstring, g.n)
                independent.append(all(not (out[u] and out[v]) for u, v in g.edges))
                sizes.append(result.output_set_size)
                input_costs.append(float(result.input_cost))
    mean_total, se_total = _mean_se(totals)
    edges = spec.n * spec.d // 2
    try:
        ratio = {**ratio_ceiling(model, spec.d, p, tree_value), "available": True}
    except InputError as exc:
        ratio = {"available": False, "reason": str(exc)}
    config = {
        "n": spec.n,
        "d": spec.d,
        "kind": spec.kind,
        "seed_graphs": seed,
        "p": p,
        "model": _model_config(model),
        "initial": initial,
        "budget": budget,
        "trials": trials,
        "samples": samples,
    }
    payload = {
        "optimization": {
            "best_value": tree_value,
            "params": _params_config(params),
            "grid_resolution": opt.grid_resolution,
            "refinement_iterations": opt.refinement_iterations,
            "converged": opt.converged,
        },
        "prediction": {
            "tree_value": tree_value,
            "predicted_total": 0.5 * spec.n * spec.d * float(tree_value),  # n*d/2 edges
            "predicted_per_edge": tree_value,
            "finite_size_correction_unquantified": True,
        },
        "simulation": {
            "trials": trials,
            "mean_total": mean_total,
            "se_total": se_total,
            "mean_per_edge": mean_total / edges,
            "mean_nontree_fraction": float(np.mean(nontree)),
        },
        "ratio": ratio,
    }
    if sizes:
        # input costs are half-integers, so the float comparison is exact
        payload["pruning"] = {
            "samples": len(sizes),
            "all_independent": all(independent),
            "positive_cost_samples": sum(cost > 0 for cost in input_costs),
            "size_at_least_cost": all(
                size >= cost for size, cost in zip(sizes, input_costs) if cost > 0
            ),
            "mean_set_size": float(np.mean(sizes)),
            "max_set_size": max(sizes),
            "mean_input_cost": float(np.mean(input_costs)),
        }
    return make_report("end-to-end", config, payload)


# ----------------------------------------------------------------------
# report serialization
# ----------------------------------------------------------------------

def make_report(kind: str, config: dict, payload: dict) -> dict:
    """Wrap an experiment's output in the versioned report envelope."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        "results": payload,
    }


def _plain(obj):
    """Recursively reduce report values to JSON-stable built-ins: dict keys
    become strings, tuples become lists, exact rationals become "a/b"
    strings, and numpy scalars unwrap to Python numbers."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def report_json(report: dict) -> str:
    """Serialize a report deterministically: sorted keys, two-space indent,
    full double precision, trailing newline."""
    return json.dumps(_plain(report), sort_keys=True, indent=2) + "\n"


def csv_from_report(report: dict) -> str:
    """Render a report's ``series`` table as CSV (header from the first
    row's key order, which is fixed by construction)."""
    results = report.get("results", report)
    series = results.get("series") if isinstance(results, dict) else None
    if not series:
        raise InputError("report has no tabular series section")
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=list(series[0].keys()), lineterminator="\n"
    )
    writer.writeheader()
    for row in series:
        writer.writerow({k: _plain(v) for k, v in row.items()})
    return buffer.getvalue()
