"""The canonical regular tree around one edge, and expectations on it.

For degree d and radius p the canonical tree is two complete (d-1)-ary
trees of height p whose roots are joined by the middle edge. Its size is
2 * sum_{k=0..p} (d-1)^k vertices, each inner vertex has degree d, and
the leaves have degree 1. For an edge of a d-regular graph whose
radius-p edge ball is a tree, that ball is exactly this tree, so the
middle-edge expectation computed here is the per-edge building block for
whole-ensemble predictions; :class:`LightConeSum` adds these blocks up into
exact totals of whole graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from .graphs import Graph, edge_neighborhood, edge_tree_radii
from .qaoa import (
    DEFAULT_QUBIT_CAP,
    INITIAL_STATES,
    CostModel,
    QaoaParams,
    expect_edges,
    run_qaoa,
)

__all__ = [
    "TreeExpectation",
    "TreePathSum",
    "LightConeSum",
    "tree_vertex_count",
    "build_canonical_tree",
    "tree_expectation",
    "neighborhood_expectation",
    "predicted_ensemble_cost",
]


@dataclass
class TreeExpectation:
    """Middle-edge expectation of the canonical tree at one angle schedule."""

    value: float


def tree_vertex_count(d: int, p: int) -> int:
    return 2 * sum((d - 1) ** k for k in range(p + 1))


def build_canonical_tree(d: int, p: int) -> Graph:
    """Build the canonical tree with breadth-first vertex numbering.

    Endpoint A is 0 and endpoint B is 1; then A's children, B's children,
    and so on level by level, so the numbering (and the edge list) is the
    same every time, and the middle edge (0, 1) is edge 0, as in every ball
    from :func:`edge_neighborhood`.
    """
    if d < 2:
        raise InputError("degree must be at least 2")
    if p < 0:
        raise InputError("radius must be nonnegative")
    edges = [(0, 1)]
    frontier = [0, 1]
    nxt = 2
    for _ in range(p):
        grown = []
        for parent in frontier:
            for _ in range(d - 1):
                edges.append((parent, nxt))
                grown.append(nxt)
                nxt += 1
        frontier = grown
    return Graph.from_edges(tree_vertex_count(d, p), edges)


def tree_expectation(
    d: int,
    p: int,
    model: CostModel,
    params: QaoaParams,
    initial: str = "plus",
) -> TreeExpectation:
    """:func:`neighborhood_expectation` of the canonical tree; ``params``
    must have exactly p layers.

    This is the statevector oracle for :class:`TreePathSum`; it needs a
    register of ``tree_vertex_count(d, p)`` qubits, and like the path sum it
    refuses mis(k) at a degree other than k."""
    if params.p != p:
        raise InputError(f"parameter depth {params.p} must equal the radius {p}")
    model.check_degree(d)
    tree = build_canonical_tree(d, p)
    value = neighborhood_expectation(tree, model, params, initial)
    return TreeExpectation(value)


class TreePathSum:
    """Middle-edge value of the canonical tree as an exact sum over paths.

    Inserting basis resolutions between the layers gives every vertex
    2p+1 slice bits, ordered (a_1..a_p, a_0, a'_p..a'_1): the ket bits at
    the p phase layers, the measured bit, and the bra bits in reverse. The
    initial state and the mixers give each vertex the weight f over these
    bits. Each edge contributes the kernel K, a Kronecker product of one
    2x2 factor per slice: exp(-i*gamma_k*c) on the ket slices, its
    conjugate on the bra slices and ones on the measured slice, where c is
    the model's edge-cost table. On a tree the sum factors into messages
    passed up from the leaves, H <- (K (f*H))**(d-1) once per level, and
    the value is Re g.(K_c g) with g = f*H at the root, where K_c puts c on
    the measured slice. A level costs O(p * 4**p) whatever the size of the
    tree (Basso, Farhi, Marwaha, Villalonga & Zhou, arXiv:2110.14206).

    Build one per (d, p, model, initial) and call :meth:`value` per angle
    schedule; it equals :func:`tree_expectation`, whose register grows
    with the tree, while the path sum grows with p alone. ``betas`` of
    shape (p, n) evaluates n beta schedules at once: the batch rides as a
    trailing axis through the same code, and the n values come back as an
    array. The weight holds n * 2**(2p+1) complex entries and is refused
    above 2**(DEFAULT_QUBIT_CAP - 1) before anything is allocated, which
    allows p <= 12 for one schedule.
    """

    def __init__(self, d: int, p: int, model: CostModel, initial: str = "plus"):
        if d < 2:
            raise InputError("degree must be at least 2")
        if p < 0:
            raise InputError("radius must be nonnegative")
        if initial not in INITIAL_STATES:
            raise InputError(f"unknown initial state {initial!r}")
        model.check_degree(d)
        self.d = int(d)
        self.p = int(p)
        self._check_size(1)
        den = model.denominator
        self.cost = np.array([[n / den for n in row] for row in model.numerators])
        amp = [1.0, 0.0] if initial == "zero" else [math.sqrt(0.5)] * 2
        self.start = np.array([amp], dtype=np.complex128)
        # Slice j as the middle axis of a (2**j, 2, rest) view, so a 2x2
        # factor acts on it by one broadcast matmul; the later slices and
        # any batch axis fold into the last axis.
        self._views = [(1 << j, 2, -1) for j in range(2 * self.p + 1)]
        # Reverses the p+1 bits of a ket-chain index: the bra-chain order.
        bits = (2,) * (self.p + 1)
        self._reversed = np.arange(1 << (self.p + 1)).reshape(bits).transpose().reshape(-1)
        self._ones = np.ones((2, 2))

    def _check_size(self, schedules: int) -> None:
        # value() peaks at about five arrays the size of the weight (VmHWM
        # above the interpreter's, d=3 at p=10 and p=11), against run_qaoa's
        # 2.5 states, so half the register's entries keep the path sum at
        # the register's peak: 2.5 GiB at p=12.
        cap = DEFAULT_QUBIT_CAP - 1
        if schedules << (2 * self.p + 1) > 1 << cap:
            raise ResourceError(
                f"path sum at p={self.p} needs {schedules} x "
                f"2**{2 * self.p + 1} entries, above the cap of 2**{cap}"
            )

    def _weight(self, betas: np.ndarray) -> np.ndarray:
        # Ket chain over (a_1..a_p, a_0): initial amplitude times the mixer
        # element between consecutive slices; the mixer matrix is symmetric.
        batch = betas.shape[1:]
        ket = self.start.reshape((1, 2) + (1,) * len(batch))
        for c, s in zip(np.cos(betas), -1j * np.sin(betas)):
            mixer = np.array([[c, s], [s, c]])
            ket = (ket[:, :, None] * mixer).reshape((-1, 2) + batch)
        # The bra chain is the conjugate over (a_0, a'_p..a'_1).
        trailing = ket.shape[2:]
        bra = ket.reshape((-1,) + trailing)[self._reversed].conj()
        bra = bra.reshape((2, -1) + trailing)
        return (ket[:, :, None] * bra[None]).reshape((-1,) + trailing)

    def _apply(self, factors, x: np.ndarray) -> np.ndarray:
        shape = x.shape
        for factor, view in zip(factors, self._views):
            x = factor @ x.reshape(view)
        return x.reshape(shape)

    def value(self, gammas, betas):
        if len(gammas) != self.p or len(betas) != self.p:
            raise InputError(f"angle schedule must have exactly {self.p} layers")
        betas = np.asarray(betas, dtype=float)
        self._check_size(math.prod(betas.shape[1:]))
        f = self._weight(betas)
        ket = [np.exp((-1j * float(g)) * self.cost) for g in gammas]
        bra = [e.conj() for e in reversed(ket)]
        kernel = ket + [self._ones] + bra
        # At p=0 the weight has no beta to carry the batch; h brings it in.
        h = np.ones(f.shape[:1] + betas.shape[1:])
        for _ in range(self.p):
            h = self._apply(kernel, f * h) ** (self.d - 1)
        g = f * h
        measured = ket + [self.cost] + bra
        values = (g * self._apply(measured, g)).sum(axis=0).real
        return float(values) if values.ndim == 0 else values


def neighborhood_expectation(
    ball: Graph,
    model: CostModel,
    params: QaoaParams,
    initial: str = "plus",
) -> float:
    """Expectation of edge 0 of ``ball``, simulated on the ball alone.

    For product initial states, gates outside the radius-p ball of an edge
    cancel out of that edge's expectation, so on a ball from
    :func:`edge_neighborhood` this equals the full-graph expectation of the
    middle edge whenever the radius matches the depth.

    Any model is taken: a ball has no single degree to check mis(k)
    against, as its boundary vertices keep only the edges inside it.
    """
    state = run_qaoa(ball, model, params, initial)
    return expect_edges(state, ball.edges[:1], model)[0]


class LightConeSum:
    """Exact expected total cost of d-regular graphs at one angle schedule,
    summed over the light cones of their edges.

    At depth p an edge's expectation depends only on the ball of edges
    within p steps of it (:func:`edge_neighborhood`), so a graph's total is
    the sum of its edges' ball values. A ball that is a tree is the
    canonical tree and adds the one :class:`TreePathSum` value, computed
    once at construction (``tree_value``); :func:`edge_tree_radii` finds
    those balls without building them. Any other ball adds its
    :func:`neighborhood_expectation`, cached on the relabelled ball, so a
    ball shape met again, in this graph or a later one, is simulated once.
    A ball is part of its graph, so it never needs more qubits than the
    graph itself.
    """

    def __init__(
        self, d: int, model: CostModel, params: QaoaParams, initial: str = "plus"
    ):
        self.d = int(d)
        self.model = model
        self.params = params
        self.initial = initial
        self.tree_value = TreePathSum(self.d, params.p, model, initial).value(
            params.gammas, params.betas
        )
        self._balls: dict = {}

    def total(self, g: Graph) -> tuple[float, int]:
        """Expected total cost of ``g`` and the number of its edges whose
        ball is a tree."""
        if any(len(nbrs) != self.d for nbrs in g.adjacency):
            raise InputError(f"light-cone sums need a {self.d}-regular graph")
        p = self.params.p
        radii = edge_tree_radii(g, p)
        # only balls with a cycle are built, still in edge order
        cyclic = np.flatnonzero(p - radii).tolist()
        total = 0.0
        for idx in cyclic:
            ball = edge_neighborhood(g, g.edges[idx], p)
            # the middle edge is always edge 0 of the relabelled ball
            key = (ball.n, tuple(ball.edges))
            if key not in self._balls:
                self._balls[key] = neighborhood_expectation(
                    ball, self.model, self.params, self.initial
                )
            total += self._balls[key]
        tree_edges = g.m - len(cyclic)
        return tree_edges * self.tree_value + total, tree_edges


def predicted_ensemble_cost(n: int, d: int, tree_value: float) -> float:
    """Leading-order predicted total cost over the ensemble: (n*d/2) * value.

    The remainder is a finite-size correction that this package never
    estimates numerically; reports carry it as the boolean flag
    ``finite_size_correction_unquantified`` instead.
    """
    return 0.5 * n * d * float(tree_value)
