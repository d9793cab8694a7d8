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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError, integer
from .graphs import Graph, edge_neighborhood, edge_tree_radii
from .qaoa import (
    DEFAULT_QUBIT_CAP,
    INITIAL_STATES,
    CostModel,
    QaoaParams,
    expect_edges,
    run_qaoa,
)

# K and K_c act on groups of at most this many adjacent slices. With 5 the
# 2p+1 slices of p <= 2 form one group: optimize(3, 2) took 0.18 s, against
# 0.22 s with groups of 3 or 4. One d=3 value at p=10 took 0.37 s, against
# 0.34 s with groups of 3 or 4 and 0.50 s with groups of 6.
_GROUP = 5

__all__ = [
    "TreeExpectation",
    "TreePathSum",
    "LightConeSum",
    "tree_vertex_count",
    "build_canonical_tree",
    "tree_expectation",
    "neighborhood_expectation",
]


@dataclass
class TreeExpectation:
    """Middle-edge expectation of the canonical tree at one angle schedule."""

    value: float


def tree_vertex_count(d: int, p: int) -> int:
    d = integer(d, "degree", 2)
    p = integer(p, "radius", 0)
    return 2 * sum((d - 1) ** k for k in range(p + 1))


def build_canonical_tree(d: int, p: int) -> Graph:
    """Build the canonical tree with breadth-first vertex numbering.

    Endpoint A is 0 and endpoint B is 1; then A's children, B's children,
    and so on level by level, so the numbering (and the edge list) is the
    same every time, and the middle edge (0, 1) is edge 0, as in every ball
    from :func:`edge_neighborhood`. Vertex k >= 2 is then the child of
    vertex (k - 2) // (d - 1).
    """
    n = tree_vertex_count(d, p)
    edges = [(0, 1)] + [((k - 2) // (d - 1), k) for k in range(2, n)]
    return Graph.from_edges(n, edges)


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
    the measured slice (Basso, Farhi, Marwaha, Villalonga & Zhou,
    arXiv:2110.14206).

    K and K_c act through ceil((2p+1)/5) groups of at most ``_GROUP`` = 5
    adjacent slices, one dense 2**w x 2**w factor per group, so a level
    costs one matrix product of the 2**(2p+1) entries with each group's
    factor, whatever the size of the tree. The factors depend on the
    gammas alone and the weight on the betas alone; the last of each is
    kept, so a call that repeats either one reuses it.

    Build one per (d, p, model, initial), kept as attributes of those
    names, and call :meth:`value` per angle schedule; one object serves a
    whole angle search. It equals :func:`tree_expectation`, whose register
    grows with the tree, while the path sum grows with p alone. ``gammas``
    must be p numbers. ``betas`` of shape (p, n) evaluates n beta schedules
    at once: the batch rides as a further axis through the same code, and
    the n values come back as an array. The weight holds n * 2**(2p+1)
    complex entries and is refused above 2**(DEFAULT_QUBIT_CAP - 1) before
    anything is allocated, which allows p <= 12 for one schedule.
    """

    def __init__(self, d: int, p: int, model: CostModel, initial: str = "plus"):
        self.d = integer(d, "degree", 2)
        self.p = integer(p, "radius", 0)
        if initial not in INITIAL_STATES:
            raise InputError(f"unknown initial state {initial!r}")
        model.check_degree(self.d)
        self._check_size(1)
        self.model, self.initial = model, initial
        self.cost = np.array(model.costs)
        amp = [1.0, 0.0] if initial == "zero" else [math.sqrt(0.5)] * 2
        self.start = np.array(amp, dtype=np.complex128)
        # Reverses the p+1 bits of a ket-chain index: the bra-chain order.
        bits = (2,) * (self.p + 1)
        self._reversed = np.arange(1 << (self.p + 1)).reshape(bits).transpose().reshape(-1)
        # K's phase on slice j is gamma_k times c on ket slice k-1, minus it
        # on bra slice 2p+1-k, and 0 on the measured slice p; a last row
        # puts c on the measured slice alone, for K_c.
        slices = 2 * self.p + 1
        signs = np.zeros((self.p + 1, slices))
        for k in range(self.p):
            signs[k, k], signs[k, slices - 1 - k] = 1.0, -1.0
        signs[self.p, self.p] = 1.0
        # Per group of w slices, each row of signs gives one 2**w x 2**w
        # table over the group's (row, column) bits, the Kronecker sum of
        # sign * c over its slices; a group's phases are gammas @ its first
        # p tables, all groups end to end.
        count = -(-slices // _GROUP)
        widths = [slices // count + (i < slices % count) for i in range(count)]
        sizes = [1 << w for w in widths]
        # (offset, size) of each group's factor in the flat phase list
        self._blocks = list(zip(itertools.accumulate([m * m for m in sizes], initial=0), sizes))
        blocks, s = [], 0
        for w in widths:
            table = np.zeros((self.p + 1, 1, 1))
            for j in range(s, s + w):
                term = signs[:, j, None, None] * self.cost
                table = table[:, :, None, :, None] + term[:, None, :, None, :]
                table = table.reshape(self.p + 1, 2 * table.shape[1], -1)
            if s <= self.p < s + w:
                self._measured_slice = (len(blocks), table[self.p])
            blocks.append(table[: self.p].reshape(self.p, 1 << 2 * w))
            s += w
        # The entries take few distinct phases (9 at p=2 for MaxCut), so
        # exp runs on those alone and one take spreads them over the groups.
        columns = {}
        phases = np.concatenate(blocks, axis=1).T.tolist()
        self._index = np.array([columns.setdefault(tuple(c), len(columns)) for c in phases])
        self._levels = np.array(list(columns)).T
        self._f = self._weight_key = self._gamma_key = None

    def _check_size(self, schedules: int) -> None:
        # value() peaks at four arrays the size of the weight, the kept
        # weight and three work arrays (VmHWM above the interpreter's, d=3:
        # 4.05 weights at p=10, 4.02 at p=11). Half the register's entries
        # hold that to two states of the register, 2 GiB at p=12, against
        # run_qaoa's 1.5 states at the qubit cap.
        cap = DEFAULT_QUBIT_CAP - 1
        if schedules << (2 * self.p + 1) > 1 << cap:
            raise ResourceError(
                f"path sum at p={self.p} needs {schedules} x "
                f"2**{2 * self.p + 1} entries, above the cap of 2**{cap}"
            )

    def _weight(self, betas: np.ndarray) -> np.ndarray:
        # Ket chain over (a_1..a_p, a_0): initial amplitude times the mixer
        # element between consecutive slices; the mixer matrix is symmetric.
        n = betas.shape[1]
        ket = np.repeat(self.start[None, :, None], n, axis=2)
        cos, sin = np.cos(betas), -1j * np.sin(betas)
        mixers = np.array([[cos, sin], [sin, cos]])
        for k in range(self.p):
            ket = (ket[:, :, None] * mixers[:, :, k]).reshape(-1, 2, n)
        # The bra chain is the conjugate over (a_0, a'_p..a'_1).
        bra = ket.reshape(-1, n)[self._reversed].conj().reshape(2, -1, n)
        return (ket[:, :, None] * bra[None]).reshape(-1, n)

    def _factors(self, gammas: np.ndarray):
        # One dense factor of K per group, exp of the group's phases; K_c's
        # group that holds the measured slice also multiplies by c there.
        flat = np.exp(-1j * (gammas[:, None] * self._levels).sum(axis=0))[self._index]
        kernel = [flat[a : a + m * m].reshape(m, m) for a, m in self._blocks]
        measured = list(kernel)
        group, cost = self._measured_slice
        measured[group] = kernel[group] * cost
        return kernel, measured

    def _apply(self, factors, x: np.ndarray, bufs) -> np.ndarray:
        # Each step contracts the leading group's bits and writes them last,
        # one gemm per group into the next of ``bufs``, so after every group
        # the slices are back in order with any batch axis moved to the
        # front: the buffer returned holds (n, 2**(2p+1)). The factors are
        # symmetric, since c is.
        for factor, out in zip(factors, itertools.cycle(bufs)):
            m = factor.shape[0]
            np.matmul(x.reshape(m, -1).T, factor, out=out.reshape(-1, m))
            x = out
        return x

    def value(self, gammas, betas):
        gammas = np.asarray(gammas, dtype=float)
        betas = np.asarray(betas, dtype=float)
        if gammas.shape != (self.p,) or betas.shape[:1] != (self.p,):
            raise InputError(
                f"angle schedule must have exactly {self.p} layers: {self.p} gammas"
                f" and {self.p} rows of betas"
            )
        batch = betas.shape[1:]
        n = math.prod(batch)
        self._check_size(n)
        key = (betas.shape, betas.tobytes())
        if key != self._weight_key:
            self._f = None  # the old weight goes before the new one is built
            self._f = self._weight(betas.reshape(self.p, n))
            self._weight_key = key
        if gammas.tobytes() != self._gamma_key:
            self._kernel, self._measured = self._factors(gammas)
            self._gamma_key = gammas.tobytes()
        f = self._f
        # g is f or sits in x; K g starts in y, so it never overwrites g.
        g, x, y = f, np.empty_like(f), np.empty_like(f)
        for _ in range(self.p):
            h = self._apply(self._kernel, g, (y, x))
            h **= self.d - 1
            if h is x:
                x, y = y, x
            g = np.multiply(f, h.reshape(n, -1).T, out=x)
        # K_c g must leave g whole, so past one group it takes a third array.
        spare = (y, np.empty_like(f)) if len(self._blocks) > 1 else (y,)
        out = self._apply(self._measured, g, spare).reshape(n, -1)
        values = np.multiply(out, g.T, out=out).sum(axis=1).real
        return float(values[0]) if not batch else values.reshape(batch)


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
        path_sum = TreePathSum(d, params.p, model, initial)
        self.d = path_sum.d
        self.model = model
        self.params = params
        self.initial = initial
        self.tree_value = path_sum.value(params.gammas, params.betas)
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
