"""Deterministic angle search on the canonical tree.

Two stages: an exhaustive periodic grid, then derivative-free local ascent
(coordinate-wise golden-section) restarted from the best grid points. Both
stages evaluate the tree by its path sum and are fully deterministic; ties
are broken toward the lexicographically smallest (gammas, betas) vector.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .qaoa import CostModel, QaoaParams
from .trees import TreePathSum

__all__ = [
    "SearchDomain",
    "OptResult",
    "grid_search",
    "refine",
    "optimize",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6
_STARTS = 5  # optimize refines from this many of the best grid points
_INITIAL_STEP = 0.25  # half-width of refine's first line-search bracket


@dataclass(frozen=True)
class SearchDomain:
    """Half-open search box [0, gamma_period)^p x [0, beta_period)^p.

    The gamma period follows the cost model's spectrum (2*pi for the cut
    cost, 4*pi*d for the independent-set cost); the beta period is pi
    because shifting beta by pi only changes a global phase.
    """

    gamma_period: float
    beta_period: float
    p: int

    @classmethod
    def for_model(cls, model: CostModel, p: int) -> "SearchDomain":
        if p < 0:
            raise InputError("depth must be nonnegative")
        return cls(model.gamma_period, math.pi, p)


@dataclass
class OptResult:
    """Search outcome.

    ``trace`` lists ((gammas, betas), value) evaluations: every grid point
    for grid searches plus each accepted refinement point. ``evaluations``
    counts every value computed: grid points plus objective calls.
    ``best_value`` is the objective's value at ``best_params``, as computed
    when that point was evaluated.
    """

    best_params: QaoaParams
    best_value: float
    trace: list[tuple[tuple[float, ...], tuple[float, ...], float]] = field(
        repr=False, default_factory=list
    )
    grid_resolution: int = 0
    refinement_iterations: int = 0
    converged: bool = True
    evaluations: int = 0


class _TreeObjective:
    """Middle-edge expectation on the canonical tree as a callable.

    ``value`` evaluates the tree by its path sum and counts the calls; the
    grid scan calls ``path_sum`` directly, a whole row of betas at a time.
    """

    def __init__(self, d, p, model, initial="plus"):
        self.p = int(p)
        self.domain = SearchDomain.for_model(model, p)
        self.path_sum = TreePathSum(d, p, model, initial)
        self.evaluations = 0

    def value(self, gammas, betas) -> float:
        self.evaluations += 1
        return self.path_sum.value(gammas, betas)

    def value_x(self, x) -> float:
        p = self.p
        return self.value(tuple(x[:p]), tuple(x[p:]))


def _rank(record):
    """Sort key of a (gammas, betas, value) record: the highest value first,
    ties toward the lexicographically smallest (gammas, betas)."""
    gammas, betas, value = record
    return (-value, (gammas, betas))


def grid_search(
    d: int,
    p: int,
    model: CostModel,
    initial: str = "plus",
    resolution: int = 64,
    *,
    budget: int = DEFAULT_BUDGET,
    _objective: "_TreeObjective | None" = None,
) -> OptResult:
    """Evaluate every point of the periodic grid and return the argmax.

    The grid has ``resolution`` points per axis over the half-open periods,
    so p layers cost resolution**(2p) evaluations; exceeding ``budget``
    raises before any work happens. One path-sum call per gamma tuple
    evaluates every beta tuple at once; the trace lists gammas outermost.
    """
    if resolution < 2:
        raise InputError("resolution must be at least 2")
    obj = _objective if _objective is not None else _TreeObjective(
        d, p, model, initial
    )
    total = resolution ** (2 * p)
    if total > budget:
        raise ResourceError(
            f"grid of {total} evaluations exceeds the budget of {budget}"
        )
    calls = obj.evaluations
    trace: list[tuple[tuple[float, ...], tuple[float, ...], float]] = []
    dom = obj.domain
    gvals = [dom.gamma_period * k / resolution for k in range(resolution)]
    bvals = [dom.beta_period * k / resolution for k in range(resolution)]
    # At p=0 the one beta tuple is (), so columns has shape (0, 1).
    btuples = list(itertools.product(bvals, repeat=p))
    columns = np.array(btuples).T
    for gs in itertools.product(gvals, repeat=p):
        values = obj.path_sum.value(gs, columns).tolist()
        trace.extend(zip(itertools.repeat(gs), btuples, values))
    best_g, best_b, best_v = min(trace, key=_rank)
    return OptResult(
        best_params=QaoaParams(best_g, best_b),
        best_value=best_v,
        trace=trace,
        grid_resolution=resolution,
        refinement_iterations=0,
        evaluations=len(trace) + obj.evaluations - calls,
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, xtol: float):
    """Golden-section scan for a maximum on [lo, hi]; returns the best
    point actually evaluated and its value."""
    c = hi - _INVPHI * (hi - lo)
    d_ = lo + _INVPHI * (hi - lo)
    fc = f(c)
    fd = f(d_)
    if fc >= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d_, fd
    while hi - lo > xtol:
        if fc >= fd:
            hi, d_, fd = d_, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            lo, c, fc = c, d_, fd
            d_ = lo + _INVPHI * (hi - lo)
            fd = f(d_)
            if fd > best_f:
                best_x, best_f = d_, fd
    return best_x, best_f


def refine(
    start: QaoaParams,
    d: int,
    p: int,
    model: CostModel,
    initial: str = "plus",
    tolerance: float = 1e-6,
    *,
    max_passes: int = 80,
    _objective: "_TreeObjective | None" = None,
) -> OptResult:
    """Coordinate-wise golden-section ascent from ``start``.

    Each pass line-searches every coordinate inside a shrinking bracket,
    of half-width 0.25 at first; the loop ends once both the bracket size
    and the value gained in the last pass fall below ``tolerance`` (so a
    tolerance of 0.25 or more returns the start point untouched). The
    value never drops below the start value; hitting ``max_passes`` first
    returns the best point so far with ``converged`` false.
    """
    if tolerance <= 0:
        raise InputError("tolerance must be positive")
    if start.p != p:
        raise InputError(f"start has depth {start.p}, expected {p}")
    obj = _objective if _objective is not None else _TreeObjective(
        d, p, model, initial
    )
    calls = obj.evaluations
    fx = obj.value(start.gammas, start.betas)
    trace = [(start.gammas, start.betas, fx)]
    if p == 0:
        return OptResult(start, fx, trace, 0, 0, True, 1)
    x = list(start.gammas) + list(start.betas)
    xtol = max(tolerance * 0.25, 1e-12)
    step = _INITIAL_STEP
    gain = 0.0
    passes = 0
    converged = True
    while not (step <= tolerance and gain <= tolerance):
        if passes >= max_passes:
            converged = False
            break
        gain = 0.0
        for axis in range(2 * p):
            here = x[axis]

            def f_axis(t, _axis=axis):
                probe = list(x)
                probe[_axis] = t
                return obj.value_x(probe)

            bx, bf = _golden_max(f_axis, here - step, here + step, xtol)
            if bf > fx:
                gain += bf - fx
                fx = bf
                x[axis] = bx
                trace.append((tuple(x[:p]), tuple(x[p:]), bf))
        step = max(0.5 * step, 0.5 * tolerance)
        passes += 1
    params = QaoaParams(tuple(x[:p]), tuple(x[p:]))
    return OptResult(
        params, fx, trace, 0, passes, converged, obj.evaluations - calls
    )


def optimize(
    d: int,
    p: int,
    model: CostModel,
    initial: str = "plus",
    *,
    resolution: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> OptResult:
    """Grid search, then refinement from the five best grid points.

    The default resolution is 64 points per axis up to depth 1 and 16 from
    depth 2 on. Deterministic for fixed arguments.
    """
    if resolution is None:
        resolution = 64 if p <= 1 else 16
    obj = _TreeObjective(d, p, model, initial)
    grid = grid_search(
        d, p, model, initial, resolution, budget=budget, _objective=obj
    )
    if p == 0:
        return grid
    # The starts are among the records at or above the fifth-best value, so
    # only those are ranked, not every grid point with a key tuple of its own.
    cut = sorted([rec[2] for rec in grid.trace], reverse=True)[:_STARTS][-1]
    ranked = sorted((rec for rec in grid.trace if rec[2] >= cut), key=_rank)
    results = [
        refine(QaoaParams(gs, bs), d, p, model, initial, _objective=obj)
        for gs, bs, _ in ranked[:_STARTS]
    ]
    best_g, best_b, best_v = min(
        [(res.best_params.gammas, res.best_params.betas, res.best_value)
         for res in [grid, *results]],
        key=_rank,
    )
    return OptResult(
        best_params=QaoaParams(best_g, best_b),
        best_value=best_v,
        trace=grid.trace,
        grid_resolution=resolution,
        refinement_iterations=sum(res.refinement_iterations for res in results),
        converged=all(res.converged for res in results),
        evaluations=len(grid.trace) + obj.evaluations,
    )
