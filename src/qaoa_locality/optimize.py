"""Deterministic angle search on the canonical tree.

Two stages: an exhaustive periodic grid, then derivative-free local ascent
(coordinate-wise golden-section) restarted from the best grid points. Both
stages are fully deterministic; ties are broken toward the lexicographically
smallest (gammas, betas) vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .qaoa import (
    DEFAULT_QUBIT_CAP,
    CostModel,
    QaoaParams,
    _mix_inplace,
    cost_table,
    prepare_initial,
)
from .trees import TreePathSum, build_canonical_tree

__all__ = [
    "SearchDomain",
    "OptResult",
    "grid_search",
    "refine",
    "optimize",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6


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
    ``best_value`` is always a fresh re-evaluation of ``best_params``
    through the objective.
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

    ``value`` evaluates the tree by its path sum. The tree's statevector
    pieces (cost table, initial state, rotated edge cost) are built once
    for the grid scan, which sweeps whole layers of the statevector.
    """

    def __init__(self, d, p, model, initial="plus", qubit_cap=DEFAULT_QUBIT_CAP):
        self.d = int(d)
        self.p = int(p)
        self.model = model
        self.initial = initial
        self.tree = build_canonical_tree(d, p, qubit_cap)
        g = self.tree.graph
        self.m = g.n
        self.table = cost_table(model, g)
        self.start = prepare_initial(self.m, initial, qubit_cap).amplitudes
        self.domain = SearchDomain.for_model(model, p)
        self.path_sum = TreePathSum(d, p, model, initial)
        # Diagonal of the edge cost in the local 2-qubit basis 2*b1 + b0
        # (middle edge endpoints are tree vertices 0 and 1); the path sum's
        # table is indexed [b0, b1].
        self.cdiag = self.path_sum.cost.T.reshape(-1)
        self.evaluations = 0

    def value(self, gammas, betas) -> float:
        self.evaluations += 1
        return self.path_sum.value(gammas, betas)

    def value_x(self, x) -> float:
        p = self.p
        return self.value(tuple(x[:p]), tuple(x[p:]))

    def rotated_cost(self, beta: float) -> np.ndarray:
        # Conjugate the middle-edge cost by the final mixer restricted to the
        # two middle qubits; mixers on all other qubits commute with the edge
        # cost and cancel, so the last layer closes with 4x4 algebra.
        c = math.cos(beta)
        s = math.sin(beta)
        rot = np.array([[c, -1j * s], [-1j * s, c]])
        r2 = np.kron(rot, rot)
        return r2.conj().T @ (self.cdiag[:, None] * r2)


def _edge_rho(amps: np.ndarray, m: int) -> np.ndarray:
    # 4x4 reduced density matrix of qubits (0, 1), basis index 2*b1 + b0.
    view = amps.reshape(-1, 2, 2)
    rho = np.einsum("hij,hkl->ijkl", view, view.conj())
    return rho.reshape(4, 4)


def _params_key(gammas, betas):
    return (tuple(gammas), tuple(betas))


def _better(value, key, best_value, best_key) -> bool:
    if value > best_value:
        return True
    return value == best_value and key < best_key


def grid_search(
    d: int,
    p: int,
    model: CostModel,
    initial: str = "plus",
    resolution: int = 64,
    *,
    budget: int = DEFAULT_BUDGET,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
    _objective: "_TreeObjective | None" = None,
) -> OptResult:
    """Evaluate every point of the periodic grid and return the argmax.

    The grid has ``resolution`` points per axis over the half-open periods,
    so p layers cost resolution**(2p) evaluations; exceeding ``budget``
    raises before any work happens.
    """
    if resolution < 2:
        raise InputError("resolution must be at least 2")
    obj = _objective if _objective is not None else _TreeObjective(
        d, p, model, initial, qubit_cap
    )
    total = resolution ** (2 * p) if p > 0 else 1
    if total > budget:
        raise ResourceError(
            f"grid of {total} evaluations exceeds the budget of {budget}"
        )
    calls = obj.evaluations
    trace: list[tuple[tuple[float, ...], tuple[float, ...], float]] = []
    if p == 0:
        v = obj.value((), ())
        trace.append(((), (), v))
    else:
        dom = obj.domain
        gvals = [dom.gamma_period * k / resolution for k in range(resolution)]
        bvals = [dom.beta_period * k / resolution for k in range(resolution)]
        phase = {g: np.exp((-1j * g) * obj.table) for g in gvals}
        rotated = {b: obj.rotated_cost(b) for b in bvals}

        def scan(amps, gs, bs, layer):
            last = layer == p - 1
            for gam in gvals:
                a2 = amps * phase[gam]
                if last:
                    rho = _edge_rho(a2, obj.m)
                    for bet in bvals:
                        val = float(np.real(np.einsum("ij,ji->", rotated[bet], rho)))
                        trace.append((gs + (gam,), bs + (bet,), val))
                else:
                    for bet in bvals:
                        a3 = a2.copy()
                        _mix_inplace(a3, obj.m, bet)
                        scan(a3, gs + (gam,), bs + (bet,), layer + 1)

        scan(obj.start, (), (), 0)
    best_g, best_b, best_v = trace[0]
    best_key = _params_key(best_g, best_b)
    for gs, bs, val in trace[1:]:
        key = _params_key(gs, bs)
        if _better(val, key, best_v, best_key):
            best_g, best_b, best_v = gs, bs, val
            best_key = key
    params = QaoaParams(best_g, best_b)
    best_value = obj.value(params.gammas, params.betas)
    # At p=0 the single trace entry is itself an objective call.
    scanned = len(trace) if p > 0 else 0
    return OptResult(
        best_params=params,
        best_value=best_value,
        trace=trace,
        grid_resolution=resolution,
        refinement_iterations=0,
        evaluations=scanned + obj.evaluations - calls,
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
    initial_step: float = 0.25,
    max_passes: int = 80,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
    _objective: "_TreeObjective | None" = None,
) -> OptResult:
    """Coordinate-wise golden-section ascent from ``start``.

    Each pass line-searches every coordinate inside a shrinking bracket;
    the loop ends once both the bracket size and the value gained in the
    last pass fall below ``tolerance`` (so a tolerance at or above the
    initial bracket returns the start point untouched). The value never
    drops below the start value; hitting ``max_passes`` first returns the
    best point so far with ``converged`` false.
    """
    if tolerance <= 0:
        raise InputError("tolerance must be positive")
    if start.p != p:
        raise InputError(f"start has depth {start.p}, expected {p}")
    obj = _objective if _objective is not None else _TreeObjective(
        d, p, model, initial, qubit_cap
    )
    calls = obj.evaluations
    fx = obj.value(start.gammas, start.betas)
    trace = [(start.gammas, start.betas, fx)]
    if p == 0:
        return OptResult(start, fx, trace, 0, 0, True, 1)
    x = list(start.gammas) + list(start.betas)
    xtol = max(tolerance * 0.25, 1e-12)
    step = float(initial_step)
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
    best_value = obj.value_x(x)
    return OptResult(
        params, best_value, trace, 0, passes, converged, obj.evaluations - calls
    )


def optimize(
    d: int,
    p: int,
    model: CostModel,
    initial: str = "plus",
    *,
    resolution: int | None = None,
    budget: int = DEFAULT_BUDGET,
    top_k: int = 5,
    tolerance: float = 1e-6,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> OptResult:
    """Grid search, then refinement from the ``top_k`` best grid points.

    The default resolution is 64 points per axis up to depth 1 and 16 from
    depth 2 on. Deterministic for fixed arguments.
    """
    if resolution is None:
        resolution = 64 if p <= 1 else 16
    obj = _TreeObjective(d, p, model, initial, qubit_cap)
    grid = grid_search(
        d, p, model, initial, resolution,
        budget=budget, qubit_cap=qubit_cap, _objective=obj,
    )
    if p == 0:
        return grid
    ranked = sorted(
        grid.trace, key=lambda rec: (-rec[2], _params_key(rec[0], rec[1]))
    )
    starts = ranked[: max(1, int(top_k))]
    best_params = grid.best_params
    best_value = grid.best_value
    best_key = _params_key(best_params.gammas, best_params.betas)
    total_passes = 0
    all_converged = True
    for gs, bs, _ in starts:
        res = refine(
            QaoaParams(gs, bs), d, p, model, initial, tolerance,
            qubit_cap=qubit_cap, _objective=obj,
        )
        total_passes += res.refinement_iterations
        all_converged = all_converged and res.converged
        key = _params_key(res.best_params.gammas, res.best_params.betas)
        if _better(res.best_value, key, best_value, best_key):
            best_params, best_value, best_key = res.best_params, res.best_value, key
    best_value = obj.value(best_params.gammas, best_params.betas)
    return OptResult(
        best_params=best_params,
        best_value=best_value,
        trace=grid.trace,
        grid_resolution=resolution,
        refinement_iterations=total_passes,
        converged=all_converged,
        evaluations=len(grid.trace) + obj.evaluations,
    )
