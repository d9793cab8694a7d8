"""Deterministic angle search on the canonical tree.

Two stages: an exhaustive grid over one box of the tree value's angle
symmetries, then a BFGS ascent on central-difference gradients restarted
from grid peaks of distinct value. Both stages evaluate the one tree path
sum that :func:`optimize` builds per call and are fully deterministic;
ties are broken toward the lexicographically smallest (gammas, betas).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError, integer
from .qaoa import MAXCUT, MIS, CostModel, QaoaParams
from .trees import TreePathSum

__all__ = ["OptResult", "grid_search", "refine", "optimize", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10**6
_STARTS = 5  # optimize refines from this many grid peaks of distinct value
_DISTINCT = 1e-11  # two grid values are distinct if they differ by more
_TOLERANCE = 1e-6  # refine has converged once every partial is at most this
_MAX_PASSES = 80  # BFGS steps before refine stops unconverged
_STEP = 1e-5  # central-difference step of refine's gradient
_ARMIJO = 1e-4  # share of the predicted rise a line-search step must gain
_BACKTRACKS = 40  # halvings of a line-search step before refine gives up


# The tree value's angle symmetries. Each gamma_k has the period T_gamma and
# each beta_k the period T_beta of _PERIODS, at every d. The half shift
# gamma_k + T_gamma/2 is exp(-i*pi*C) for MaxCut, which is 1 at even d and the
# product of all Z at odd d, and exp(-2i*pi*C) = that product for mis(d),
# where C is sum(b)/2 - sum(b_i*b_j) on a d-regular graph. A product of all Z
# flips the sign of every later mixer, so for MaxCut at odd d and for mis(d)
# the half shift holds only with every beta_j, j >= k, negated. beta_k + pi/2
# flips every bit, which leaves the MaxCut cost unchanged. From "zero" the
# first phase layer is a global phase, so any gamma_1 gives the same value.
# Time reversal (gamma, beta) -> (-gamma, -beta) always holds but stays out of
# the box, as it would halve a different axis per model and d parity.
_PERIODS = {MAXCUT: (2 * math.pi, math.pi / 2), MIS: (4 * math.pi, math.pi)}


@dataclass
class OptResult:
    """Search outcome.

    ``trace`` holds a grid search's values as one float64 array, one entry
    per point of the box lattice in lexicographic (gammas, betas) order,
    gammas outermost; a refinement leaves it empty. ``evaluations`` counts
    every value computed: grid points plus objective calls, gradient probes
    included. ``best_value`` is the objective's value at ``best_params``, as
    computed when that point was evaluated.
    """

    best_params: QaoaParams
    best_value: float
    trace: np.ndarray = field(repr=False, compare=False, default_factory=lambda: np.empty(0))
    grid_resolution: int = 0
    refinement_iterations: int = 0
    converged: bool = True
    evaluations: int = 0


class _TreeObjective:
    """Middle-edge expectation of ``tree`` by its path sum, counting the
    calls; the grid scan calls the tree directly."""

    def __init__(self, tree: TreePathSum):
        self.tree = tree
        self.evaluations = 0

    def value(self, gammas, betas) -> float:
        self.evaluations += 1
        return self.tree.value(gammas, betas)


def _rank(result: OptResult):
    """Sort key of a result: the highest value first, ties toward the
    lexicographically smallest (gammas, betas)."""
    params = result.best_params
    return (-result.best_value, (params.gammas, params.betas))


def _wrap(x: float, period: float) -> tuple[float, float]:
    """divmod(x, period) with the remainder in [0, period): divmod rounds
    the remainder of a tiny negative x up to the period itself."""
    turns, rest = divmod(x, period)
    return (turns, rest) if rest < period else (turns + 1, 0.0)


def _canonical(params: QaoaParams, tree: TreePathSum) -> QaoaParams:
    """The image of ``params`` in the box gamma_k in [0, T_gamma/2),
    beta_k in [0, T_beta) under the generators above, with gamma_1 = 0
    from "zero"; the value of ``tree`` is the same there."""
    period, beta_period = _PERIODS[tree.model.kind]
    negates = tree.model.kind == MIS or tree.d % 2 == 1
    gammas, betas = list(params.gammas), list(params.betas)
    if tree.initial == "zero" and gammas:
        gammas[0] = 0.0
    for k, gamma in enumerate(gammas):
        turns, gammas[k] = _wrap(gamma, period / 2)
        if negates and turns % 2:
            betas[k:] = [-b for b in betas[k:]]
    return QaoaParams(gammas, [_wrap(b, beta_period)[1] for b in betas])


def _box_shape(tree: TreePathSum, resolution: int) -> list:
    """Lattice points on each axis of the box, p gamma axes then p beta
    axes: ``resolution`` per period, the ceil(resolution/2) below the half
    period on a gamma axis, and gamma_1 = 0 alone from "zero"."""
    half = (resolution + 1) // 2
    gammas = [1 if tree.initial == "zero" and k == 0 else half for k in range(tree.p)]
    return gammas + [resolution] * tree.p


def _box_axes(tree: TreePathSum, resolution: int) -> list:
    """The lattice values of each axis of the box of :func:`_box_shape`."""
    periods = [period for period in _PERIODS[tree.model.kind] for _ in range(tree.p)]
    shape = _box_shape(tree, resolution)
    return [[t * k / resolution for k in range(n)] for t, n in zip(periods, shape)]


def _grid_point(index: int, axes: list) -> QaoaParams:
    """Angles of the grid point at ``index`` of a grid search's trace."""
    ks = np.unravel_index(index, [len(axis) for axis in axes])
    angles = [axis[int(k)] for axis, k in zip(axes, ks)]
    p = len(axes) // 2
    return QaoaParams(angles[:p], angles[p:])


def _starts(trace: np.ndarray, axes: list) -> list:
    """Trace indices of the _STARTS best local maxima of distinct value.

    A local maximum is no lower than any lattice neighbour along one axis;
    the beta axes wrap around, and a point on a gamma box edge has no
    neighbour past that edge. Masked maxima pick the starts without sorting
    or copying the trace: each is the first peak at the highest value more
    than _DISTINCT below the last one taken, so symmetric twins of a start
    are skipped.
    """
    shape = [len(axis) for axis in axes]
    peaks = np.ones(trace.size, dtype=bool)
    for axis, n in enumerate(shape):
        step = math.prod(shape[axis + 1 :])
        box, mask = trace.reshape(-1, n, step), peaks.reshape(-1, n, step)
        pairs = [(slice(1, None), slice(None, -1)), (slice(None, -1), slice(1, None))]
        if axis >= len(shape) // 2:  # the first and last points of a beta axis are neighbours
            pairs += [(0, -1), (-1, 0)]
        for near, far in pairs:  # each point against its neighbour, where still a peak
            np.greater_equal(box[:, near], box[:, far], out=mask[:, near], where=mask[:, near])
    starts, cut = [], np.inf
    for _ in range(_STARTS):
        cut = np.max(trace, where=peaks & (trace < cut - _DISTINCT), initial=-np.inf)
        if cut == -np.inf:
            break
        starts.append(int(np.argmax(peaks & (trace == cut))))
    return starts


def grid_search(tree: TreePathSum, *, resolution: int, budget: int = DEFAULT_BUDGET) -> OptResult:
    """Evaluate ``tree`` at every lattice point of one box of its angle
    symmetries and return the argmax; d, p, the model and the initial
    state are the tree's.

    The box is gamma_k in [0, T_gamma/2) and beta_k in [0, T_beta), where
    T_gamma and T_beta are the tree value's own periods: 2*pi and pi/2 for
    MaxCut, 4*pi and pi for mis(d), at every d. From "zero" gamma_1 is 0
    alone, since the first phase layer is then a global phase. Each axis
    has ``resolution`` points per period, so a gamma axis holds the
    ceil(resolution/2) below its half period. A ``budget`` below 1 is
    refused, and a box of more points raises, before any work happens. One
    path-sum call per gamma tuple evaluates every beta tuple at once. The
    first maximum in the trace is the best point.
    """
    resolution = integer(resolution, "resolution", 2)
    budget = integer(budget, "budget", 1)
    total = math.prod(_box_shape(tree, resolution))
    if total > budget:
        raise ResourceError(
            f"grid of {total} evaluations exceeds the budget of {budget}"
        )
    axes = _box_axes(tree, resolution)
    # At p=0 the one beta tuple is (), so columns has shape (0, 1).
    columns = np.array(list(itertools.product(*axes[tree.p :]))).T
    # Each call fills one row of the trace, so no list of rows is held.
    trace = np.empty((total // columns.shape[1], columns.shape[1]))
    for row, gs in zip(trace, itertools.product(*axes[: tree.p])):
        row[:] = tree.value(gs, columns)
    trace = trace.reshape(-1)
    best = int(np.argmax(trace))
    return OptResult(
        best_params=_grid_point(best, axes),
        best_value=float(trace[best]),
        trace=trace,
        grid_resolution=resolution,
        evaluations=total,
    )


def _gradient(obj: _TreeObjective, x: np.ndarray, p: int) -> np.ndarray:
    """Central differences of the objective at ``x`` (gammas then betas),
    one probe schedule per call; each probe moves one axis of a copy."""
    grad = np.empty(2 * p)
    for axis in range(2 * p):
        up, down = x.copy(), x.copy()
        up[axis] += _STEP
        down[axis] -= _STEP
        rise = obj.value(up[:p], up[p:]) - obj.value(down[:p], down[p:])
        grad[axis] = rise / (2 * _STEP)
    return grad


def refine(start: QaoaParams, tree: TreePathSum) -> OptResult:
    """BFGS ascent of ``tree``'s value from ``start``, which must have the
    tree's depth, on central-difference gradients, each step found by an
    Armijo backtracking line search.

    The loop ends once every partial derivative is at most ``_TOLERANCE``
    in size (so a start that meets it comes back untouched) or a step gains
    nothing; the value never drops below the start value. Hitting
    ``_MAX_PASSES`` iterations first, or a gradient that is not finite,
    returns the best point so far with ``converged`` false.
    """
    p = start.p
    if p != tree.p:
        raise InputError(f"start depth {p} must equal the tree's radius {tree.p}")
    obj = _TreeObjective(tree)
    fx = obj.value(start.gammas, start.betas)
    x = np.array(start.gammas + start.betas)
    grad = _gradient(obj, x, p)
    inverse = np.eye(2 * p)  # BFGS estimate of the inverse of minus the Hessian
    iterations = 0
    stalled = False
    while not all(abs(v) <= _TOLERANCE for v in grad):
        if iterations >= _MAX_PASSES or not all(map(math.isfinite, grad)):
            break
        step = (inverse * grad).sum(axis=1)
        slope = (step * grad).sum()
        if not slope > 0:  # not an ascent direction: restart from the gradient
            inverse, step, slope = np.eye(2 * p), grad, (grad * grad).sum()
        t = 1.0
        for _ in range(_BACKTRACKS):
            trial = x + t * step
            ft = obj.value(trial[:p], trial[p:])
            if ft >= fx + _ARMIJO * t * slope:
                break
            t *= 0.5
        stalled = not ft > fx
        if stalled:
            break
        new_grad = _gradient(obj, trial, p)
        s, y = trial - x, grad - new_grad
        sy = (s * y).sum()
        if sy > 0:  # the update keeps ``inverse`` positive definite
            hy = (inverse * y).sum(axis=1)
            scale = (1 + (y * hy).sum() / sy) / sy
            inverse = inverse + scale * s[:, None] * s - (hy[:, None] * s + s[:, None] * hy) / sy
        x, fx, grad = trial, ft, new_grad
        iterations += 1
    return OptResult(
        QaoaParams(x[:p], x[p:]),
        fx,
        refinement_iterations=iterations,
        converged=stalled or all(abs(v) <= _TOLERANCE for v in grad),
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
    """Grid search, then refinement from grid peaks of distinct value.

    The grid scans one box of the angle symmetries (:func:`grid_search`)
    with a default ``resolution`` of 64 points per period up to depth 1 and
    16 from depth 2 on. ``refine`` starts from the five best local maxima of
    the trace whose values differ pairwise by more than 1e-11, each the
    first in trace order of its value. The winner is mapped into the box
    and evaluated once there, so ``best_value`` is the value at
    ``best_params``, and from "zero" gamma_1 reads 0. Deterministic for
    fixed arguments.
    """
    p = integer(p, "depth", 0)
    if resolution is None:
        resolution = 64 if p <= 1 else 16
    tree = TreePathSum(d, p, model, initial)
    grid = grid_search(tree, resolution=resolution, budget=budget)
    if p == 0:
        return grid
    # The grid's best point is always the first start. Refining it first
    # frees the tree's kept grid weight before the peak search runs.
    results = [refine(grid.best_params, tree)]
    axes = _box_axes(tree, grid.grid_resolution)
    results += [refine(_grid_point(i, axes), tree) for i in _starts(grid.trace, axes)[1:]]
    best = min([grid, *results], key=_rank)
    params = _canonical(best.best_params, tree)
    obj = _TreeObjective(tree)
    return OptResult(
        best_params=params,
        best_value=obj.value(params.gammas, params.betas),
        trace=grid.trace,
        grid_resolution=grid.grid_resolution,
        refinement_iterations=sum(res.refinement_iterations for res in results),
        converged=all(res.converged for res in results),
        evaluations=grid.evaluations + sum(res.evaluations for res in results) + obj.evaluations,
    )
