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

from .errors import InputError, ResourceError, integer
from .qaoa import CostModel, QaoaParams
from .trees import TreePathSum

__all__ = ["OptResult", "grid_search", "refine", "optimize", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10**6
_STARTS = 5  # optimize refines from this many of the best grid points
_INITIAL_STEP = 0.25  # half-width of refine's first line-search bracket


@dataclass
class OptResult:
    """Search outcome.

    ``trace`` holds a grid search's values as one float64 array, one entry
    per grid point in lexicographic (gammas, betas) order, gammas outermost;
    a refinement leaves it empty. ``evaluations`` counts every value
    computed: grid points plus objective calls. ``best_value`` is the
    objective's value at ``best_params``, as computed when that point was
    evaluated.
    """

    best_params: QaoaParams
    best_value: float
    trace: np.ndarray = field(repr=False, compare=False, default_factory=lambda: np.empty(0))
    grid_resolution: int = 0
    refinement_iterations: int = 0
    converged: bool = True
    evaluations: int = 0


class _TreeObjective:
    """Middle-edge expectation on the canonical tree by its path sum,
    counting the calls; the grid scan calls ``path_sum`` directly."""

    def __init__(self, d, p, model, initial="plus"):
        self.path_sum = TreePathSum(d, p, model, initial)
        self.evaluations = 0

    def value(self, gammas, betas) -> float:
        self.evaluations += 1
        return self.path_sum.value(gammas, betas)


def _rank(result: OptResult):
    """Sort key of a result: the highest value first, ties toward the
    lexicographically smallest (gammas, betas)."""
    params = result.best_params
    return (-result.best_value, (params.gammas, params.betas))


def _grid_point(index: int, p: int, resolution: int, gamma_period: float) -> QaoaParams:
    """Angles of the grid point at ``index`` of a grid search's trace."""
    ks = [int(k) for k in np.unravel_index(index, (resolution,) * (2 * p))]
    return QaoaParams(
        tuple(gamma_period * k / resolution for k in ks[:p]),
        tuple(math.pi * k / resolution for k in ks[p:]),
    )


def grid_search(
    d: int,
    p: int,
    model: CostModel,
    initial: str = "plus",
    *,
    resolution: int,
    budget: int = DEFAULT_BUDGET,
) -> OptResult:
    """Evaluate every point of the periodic grid and return the argmax.

    The grid has ``resolution`` points per axis over the half-open periods,
    [0, model.gamma_period) for gammas and [0, pi) for betas, so p layers
    cost resolution**(2p) evaluations; a ``budget`` below 1 is refused, and
    exceeding it raises, before any work happens. One path-sum call per
    gamma tuple evaluates every beta tuple at once. The first maximum in
    the trace is the best point.
    """
    resolution = integer(resolution, "resolution", 2)
    p = integer(p, "depth", 0)
    budget = integer(budget, "budget", 1)
    path_sum = TreePathSum(d, p, model, initial)
    total = resolution ** (2 * p)
    if total > budget:
        raise ResourceError(
            f"grid of {total} evaluations exceeds the budget of {budget}"
        )
    gvals = [model.gamma_period * k / resolution for k in range(resolution)]
    bvals = [math.pi * k / resolution for k in range(resolution)]
    # At p=0 the one beta tuple is (), so columns has shape (0, 1).
    columns = np.array(list(itertools.product(bvals, repeat=p))).T
    # Each call fills one row of the trace, so no list of rows is held.
    trace = np.empty((resolution**p, columns.shape[1]))
    for row, gs in zip(trace, itertools.product(gvals, repeat=p)):
        row[:] = path_sum.value(gs, columns)
    trace = trace.reshape(-1)
    best = int(np.argmax(trace))
    return OptResult(
        best_params=_grid_point(best, p, resolution, model.gamma_period),
        best_value=float(trace[best]),
        trace=trace,
        grid_resolution=resolution,
        evaluations=total,
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
) -> OptResult:
    """Coordinate-wise golden-section ascent from ``start``.

    Each pass line-searches every coordinate inside a shrinking bracket,
    of half-width 0.25 at first; the loop ends once both the bracket size
    and the value gained in the last pass fall below ``tolerance`` (so a
    tolerance of 0.25 or more returns the start point untouched). The
    value never drops below the start value; hitting ``max_passes`` first
    returns the best point so far with ``converged`` false.
    """
    if not tolerance > 0:
        raise InputError(f"tolerance must be positive, got {tolerance}")
    max_passes = integer(max_passes, "max_passes", 0)
    if start.p != p:
        raise InputError(f"start has depth {start.p}, expected {p}")
    obj = _TreeObjective(d, p, model, initial)
    fx = obj.value(start.gammas, start.betas)
    if p == 0:
        return OptResult(start, fx, evaluations=1)
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
                return obj.value(tuple(probe[:p]), tuple(probe[p:]))

            bx, bf = _golden_max(f_axis, here - step, here + step, xtol)
            if bf > fx:
                gain += bf - fx
                fx = bf
                x[axis] = bx
        step = max(0.5 * step, 0.5 * tolerance)
        passes += 1
    params = QaoaParams(tuple(x[:p]), tuple(x[p:]))
    return OptResult(
        params,
        fx,
        refinement_iterations=passes,
        converged=converged,
        evaluations=obj.evaluations,
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
    p = integer(p, "depth", 0)
    if resolution is None:
        resolution = 64 if p <= 1 else 16
    grid = grid_search(d, p, model, initial, resolution=resolution, budget=budget)
    if p == 0:
        return grid
    # The starts lie at or above the _STARTS-th largest distinct value,
    # found by masked maxima without a copy of the trace; a stable sort of
    # them keeps flat-index order among equal values, which is the
    # lexicographic (gammas, betas) order of _rank's tie-break.
    trace = grid.trace
    cut = np.inf
    for _ in range(_STARTS):
        cut = np.max(trace, where=trace < cut, initial=-np.inf)
    best = np.flatnonzero(trace >= cut).tolist()
    starts = sorted(best, key=trace.__getitem__, reverse=True)[:_STARTS]
    results = [
        refine(_grid_point(i, p, grid.grid_resolution, model.gamma_period), d, p, model, initial)
        for i in starts
    ]
    best = min([grid, *results], key=_rank)
    return OptResult(
        best_params=best.best_params,
        best_value=best.best_value,
        trace=grid.trace,
        grid_resolution=grid.grid_resolution,
        refinement_iterations=sum(res.refinement_iterations for res in results),
        converged=all(res.converged for res in results),
        evaluations=grid.evaluations + sum(res.evaluations for res in results),
    )
