"""Deterministic angle search on the canonical tree.

Two stages: an exhaustive periodic grid, then a BFGS ascent on
central-difference gradients restarted from the best grid points. Both
stages evaluate the tree by its path sum and are fully deterministic; ties
are broken toward the lexicographically smallest (gammas, betas) vector.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError, integer
from .qaoa import CostModel, QaoaParams
from .trees import TreePathSum

__all__ = ["OptResult", "grid_search", "refine", "optimize", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10**6
_STARTS = 5  # optimize refines from this many of the best grid points
_STEP = 1e-5  # central-difference step of refine's gradient
_ARMIJO = 1e-4  # share of the predicted rise a line-search step must gain
_BACKTRACKS = 40  # halvings of a line-search step before refine gives up


@dataclass
class OptResult:
    """Search outcome.

    ``trace`` holds a grid search's values as one float64 array, one entry
    per grid point in lexicographic (gammas, betas) order, gammas outermost;
    a refinement leaves it empty. ``evaluations`` counts every value
    computed: grid points plus objective calls, gradient probes included.
    ``best_value`` is the objective's value at ``best_params``, as computed
    when that point was evaluated.
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


def _gradient(obj: _TreeObjective, x: list, p: int) -> list:
    """Central differences of the objective at ``x`` (gammas then betas),
    one probe schedule per call."""
    grad = []
    for axis in range(2 * p):
        up, down = list(x), list(x)
        up[axis] += _STEP
        down[axis] -= _STEP
        rise = obj.value(up[:p], up[p:]) - obj.value(down[:p], down[p:])
        grad.append(rise / (2 * _STEP))
    return grad


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _identity(n: int) -> list:
    return [[float(i == j) for j in range(n)] for i in range(n)]


def refine(
    start: QaoaParams,
    d: int,
    model: CostModel,
    initial: str = "plus",
    tolerance: float = 1e-6,
    *,
    max_passes: int = 80,
) -> OptResult:
    """BFGS ascent from ``start`` on central-difference gradients, each
    step found by an Armijo backtracking line search, at the depth of
    ``start``.

    The loop ends once every partial derivative is at most ``tolerance``
    in size (so a start that meets it comes back untouched) or a step gains
    nothing; the value never drops below the start value. Hitting
    ``max_passes`` iterations first, or a gradient that is not finite,
    returns the best point so far with ``converged`` false.
    """
    if not tolerance > 0:
        raise InputError(f"tolerance must be positive, got {tolerance}")
    max_passes = integer(max_passes, "max_passes", 0)
    p = start.p
    obj = _TreeObjective(d, p, model, initial)
    fx = obj.value(start.gammas, start.betas)
    n = 2 * p
    x = [*start.gammas, *start.betas]
    grad = _gradient(obj, x, p)
    inverse = _identity(n)  # BFGS estimate of the inverse of minus the Hessian
    iterations = 0
    stalled = False
    while not all(abs(v) <= tolerance for v in grad):
        if iterations >= max_passes or not all(map(math.isfinite, grad)):
            break
        step = [_dot(row, grad) for row in inverse]
        slope = _dot(step, grad)
        if not slope > 0:  # not an ascent direction: restart from the gradient
            inverse, step, slope = _identity(n), list(grad), _dot(grad, grad)
        t = 1.0
        for _ in range(_BACKTRACKS):
            trial = [a + t * s for a, s in zip(x, step)]
            ft = obj.value(trial[:p], trial[p:])
            if ft >= fx + _ARMIJO * t * slope:
                break
            t *= 0.5
        stalled = not ft > fx
        if stalled:
            break
        new_grad = _gradient(obj, trial, p)
        s = [a - b for a, b in zip(trial, x)]
        y = [a - b for a, b in zip(grad, new_grad)]
        sy = _dot(s, y)
        if sy > 0:  # the update keeps ``inverse`` positive definite
            hy = [_dot(row, y) for row in inverse]
            scale = (1 + _dot(y, hy) / sy) / sy
            inverse = [
                [h + scale * si * sj - (hyi * sj + si * hyj) / sy
                 for h, sj, hyj in zip(row, s, hy)]
                for row, si, hyi in zip(inverse, s, hy)
            ]
        x, fx, grad = trial, ft, new_grad
        iterations += 1
    return OptResult(
        QaoaParams(x[:p], x[p:]),
        fx,
        refinement_iterations=iterations,
        converged=stalled or all(abs(v) <= tolerance for v in grad),
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
        refine(_grid_point(i, p, grid.grid_resolution, model.gamma_period), d, model, initial)
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
