"""Undirected graphs on dense 0..n-1 vertex labels.

Everything the rest of the package needs from graph land: random d-regular
ensembles (general and bipartite, configuration model conditioned on
simplicity), edge neighborhoods out to a radius, an exact short-cycle census,
and a small text edge-list format.

Edges are always stored as (u, v) pairs with u < v, sorted lexicographically,
so any scan over edges is deterministic and "first edge" is well defined.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .rng import as_generator

__all__ = [
    "Graph",
    "EnsembleSpec",
    "Neighborhood",
    "CycleCensus",
    "generate_regular",
    "generate_bipartite_regular",
    "sample_graph",
    "expected_matchings",
    "matching_budget",
    "edge_neighborhood",
    "count_cycles",
    "tree_edge_fraction",
    "max_cut_of_bipartition",
    "read_edgelist",
    "write_edgelist",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "complete_bipartite_graph",
]

# A general stub matching is simple with probability about
# exp(-(d*d - 1)/4 - d**3/(12*n)) (McKay & Wormald) and a bipartite one
# about exp(-(d - 1)**2/2 - (d - 1)**3/(2*n)) (McKay; the second term is
# fitted to sampled means at n=12..200, d=3..5), so a sampler needs the
# inverse in matchings on average. Both estimates came within 12% of
# sampled means for n >= 100 and at or above them for smaller n. A spec that
# expects more than MAX_EXPECTED_MATCHINGS is refused before any matching
# is drawn, whatever its seed: general d=7 runs from n=16, bipartite d=6
# from n=48, and general d >= 8 and bipartite d >= 7 never run. A spec that
# passes may draw MATCHING_BUDGET_FACTOR times its expectation, which runs
# out with chance about exp(-MATCHING_BUDGET_FACTOR).
MAX_EXPECTED_MATCHINGS = 1_000_000
MATCHING_BUDGET_FACTOR = 50


@dataclass
class Graph:
    """Simple undirected graph.

    Build instances through :meth:`from_edges`, which normalizes edge order,
    rejects self-loops and duplicates, and (when asked) validates regularity
    and a stored bipartition. ``bipartition[v]`` is the 0/1 class of vertex v,
    and when it is present every edge must join the two classes.
    """

    n: int
    edges: list[tuple[int, int]]
    adjacency: list[list[int]]
    degree: int | None = None
    bipartition: list[int] | None = None
    _incident: list[list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        degree: int | None = None,
        bipartition=None,
    ) -> "Graph":
        if int(n) < 1:
            raise InputError("vertex count must be at least 1")
        n = int(n)
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for pair in edges:
            u, v = int(pair[0]), int(pair[1])
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) is out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v))
        norm.sort()
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for nbrs in adjacency:
            nbrs.sort()
        if degree is not None:
            degree = int(degree)
            for v in range(n):
                if len(adjacency[v]) != degree:
                    raise InputError(
                        f"vertex {v} has degree {len(adjacency[v])}, expected {degree}"
                    )
        if bipartition is not None:
            bipartition = [int(b) for b in bipartition]
            if len(bipartition) != n:
                raise InputError("bipartition length must equal the vertex count")
            if any(b not in (0, 1) for b in bipartition):
                raise InputError("bipartition entries must be 0 or 1")
            for u, v in norm:
                if bipartition[u] == bipartition[v]:
                    raise InputError(
                        f"edge ({u}, {v}) stays inside one bipartition class"
                    )
        return cls(n, norm, adjacency, degree, bipartition)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[int]:
        return self.adjacency[v]

    def degree_of(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        a, b = (u, v) if len(self.adjacency[u]) <= len(self.adjacency[v]) else (v, u)
        return b in self.adjacency[a]

    def incident_edges(self) -> list[list[int]]:
        """Edge indices incident to each vertex (computed once, then cached)."""
        if self._incident is None:
            inc: list[list[int]] = [[] for _ in range(self.n)]
            for idx, (u, v) in enumerate(self.edges):
                inc[u].append(idx)
                inc[v].append(idx)
            self._incident = inc
        return self._incident


@dataclass(frozen=True)
class EnsembleSpec:
    """A random regular ensemble: n vertices, degree d, kind, 64-bit seed.

    ``kind`` is "general" (uniform simple d-regular) or "bipartite" (uniform
    simple d-regular bipartite with classes 0..n/2-1 and n/2..n-1).
    """

    n: int
    d: int
    kind: str = "general"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("general", "bipartite"):
            raise InputError(f"unknown ensemble kind {self.kind!r}")
        if self.d < 1:
            raise InputError("degree must be at least 1")
        if self.n <= self.d:
            raise InputError("need n > d for a simple d-regular graph")
        if self.kind == "general" and (self.n * self.d) % 2 != 0:
            raise InputError("general ensemble needs n*d even")
        if self.kind == "bipartite":
            if self.n % 2 != 0:
                raise InputError("bipartite ensemble needs even n")
            if self.d > self.n // 2:
                raise InputError("bipartite ensemble needs d <= n/2")


@dataclass
class Neighborhood:
    """A radius-p ball of edges around a middle edge, relabeled to 0..k-1.

    ``vertex_map[i]`` is the host vertex behind subgraph vertex i; the middle
    edge's endpoints map to subgraph vertices 0 and 1, and ``middle_edge``
    indexes the middle edge inside ``subgraph.edges``.
    """

    subgraph: Graph
    middle_edge: int
    vertex_map: list[int]
    radius: int
    is_tree: bool


@dataclass
class CycleCensus:
    """Exact counts of simple cycles by length, 3 up to ``max_length``."""

    max_length: int
    counts: dict[int, int]


def generate_regular(spec: EnsembleSpec) -> Graph:
    """Sample a uniform simple d-regular graph by stub matching.

    The whole matching is resampled whenever it produces a self-loop or a
    repeated edge, which conditions the configuration model on simplicity
    and therefore lands uniformly on simple d-regular graphs. It raises
    ``ResourceError`` when :func:`matching_budget` does.
    """
    if spec.kind != "general":
        raise InputError("generate_regular expects a general-kind spec")
    budget = matching_budget(spec)
    stubs = np.repeat(np.arange(spec.n), spec.d)
    return _first_simple_matching(spec, budget, stubs, stubs[0::2], stubs[1::2])


def generate_bipartite_regular(spec: EnsembleSpec) -> Graph:
    """Sample a uniform simple d-regular bipartite graph by stub matching.

    Left class is 0..n/2-1, right class n/2..n-1, d stubs per vertex on each
    side; a uniformly shuffled matching of left stubs to right stubs is
    resampled whenever it repeats an edge (self-loops cannot occur). It
    raises ``ResourceError`` when :func:`matching_budget` does.
    """
    if spec.kind != "bipartite":
        raise InputError("generate_bipartite_regular expects a bipartite-kind spec")
    budget = matching_budget(spec)
    half = spec.n // 2
    left = np.repeat(np.arange(half), spec.d)
    right = np.repeat(np.arange(half, spec.n), spec.d)
    classes = [0] * half + [1] * (spec.n - half)
    return _first_simple_matching(spec, budget, right, left, right, classes)


def _first_simple_matching(
    spec: EnsembleSpec, budget: int, shuffled, left, right, bipartition=None
) -> Graph:
    # Each attempt shuffles ``shuffled`` in place (``left`` and ``right``
    # are it or views of it) and pairs left[i] with right[i]; the first
    # matching without a self-loop or a repeated edge is the graph. The
    # self-loop test subtracts rather than compares: numpy's integer
    # comparison kernels would add about 0.1 MiB of code pages to the
    # peak RSS of every run that samples a graph.
    rng = as_generator(spec.seed)
    for _ in range(budget):
        rng.shuffle(shuffled)
        lo, hi = np.minimum(left, right), np.maximum(left, right)
        if (hi - lo).min() > 0 and len(set((lo * spec.n + hi).tolist())) == lo.size:
            return Graph.from_edges(
                spec.n,
                zip(lo.tolist(), hi.tolist()),
                degree=spec.d,
                bipartition=bipartition,
            )
    raise ResourceError(
        f"no simple {spec.kind} graph with n={spec.n}, d={spec.d} in "
        f"{budget} stub matchings"
    )


def expected_matchings(spec: EnsembleSpec) -> float:
    """Estimated mean number of stub matchings until one is simple."""
    d = spec.d
    if spec.kind == "bipartite":
        return math.exp((d - 1) ** 2 / 2 + (d - 1) ** 3 / (2 * spec.n))
    return math.exp((d * d - 1) / 4 + d**3 / (12 * spec.n))


def matching_budget(spec: EnsembleSpec) -> int:
    """Stub matchings a sampler may draw for ``spec``; ``ResourceError`` if
    even the expected number is above ``MAX_EXPECTED_MATCHINGS``."""
    expected = expected_matchings(spec)
    if expected > MAX_EXPECTED_MATCHINGS:
        raise ResourceError(
            f"a simple {spec.kind} graph with n={spec.n}, d={spec.d} needs "
            f"about {expected:.3g} stub matchings, above the limit of "
            f"{MAX_EXPECTED_MATCHINGS}"
        )
    return math.ceil(MATCHING_BUDGET_FACTOR * expected)


def sample_graph(spec: EnsembleSpec) -> Graph:
    """Dispatch to the generator matching ``spec.kind``."""
    if spec.kind == "bipartite":
        return generate_bipartite_regular(spec)
    return generate_regular(spec)


def _edge_ball(g: Graph, incident, middle: int, radius: int) -> list[int]:
    # BFS over edges; two edges are adjacent when they share an endpoint.
    # Returns edge ids at edge-distance <= radius in discovery order.
    edges = g.edges
    dist = {middle: 0}
    order = [middle]
    queue = deque([middle])
    while queue:
        e = queue.popleft()
        de = dist[e]
        if de == radius:
            continue
        u, v = edges[e]
        for w in (u, v):
            for f in incident[w]:
                if f not in dist:
                    dist[f] = de + 1
                    order.append(f)
                    queue.append(f)
    return order


def edge_neighborhood(g: Graph, edge, radius: int) -> Neighborhood:
    """Extract the ball of edges within ``radius`` edge-steps of ``edge``.

    The middle edge is at distance 0 and edges sharing an endpoint are one
    step apart. The subgraph keeps exactly the edges of the ball; its vertex
    set is their endpoints, relabeled with the middle endpoints first.
    """
    if radius < 0:
        raise InputError("radius must be nonnegative")
    u, v = int(edge[0]), int(edge[1])
    if u > v:
        u, v = v, u
    if u == v or not g.has_edge(u, v):
        raise InputError(f"({u}, {v}) is not an edge of the graph")
    incident = g.incident_edges()
    middle = next(e for e in incident[u] if g.edges[e] == (u, v))
    ids = _edge_ball(g, incident, middle, radius)
    pos = {u: 0, v: 1}
    vertex_map = [u, v]
    sub_edges = []
    for e in ids:
        a, b = g.edges[e]
        for w in (a, b):
            if w not in pos:
                pos[w] = len(vertex_map)
                vertex_map.append(w)
        sub_edges.append((pos[a], pos[b]))
    sub = Graph.from_edges(len(vertex_map), sub_edges)
    # (0, 1) sorts first, so the middle edge is index 0 in the subgraph.
    middle_idx = sub.edges.index((0, 1))
    is_tree = sub.m == sub.n - 1  # the ball is connected by construction
    return Neighborhood(sub, middle_idx, vertex_map, radius, is_tree)


def count_cycles(g: Graph, kmax: int) -> CycleCensus:
    """Exact simple-cycle counts for every length 3..kmax.

    DFS from each anchor vertex over strictly larger vertices; a cycle is
    recorded once, at its lexicographically canonical traversal (smallest
    vertex first, smaller of its two cycle neighbors second).
    """
    if kmax < 3:
        raise InputError("kmax must be at least 3")
    counts = {k: 0 for k in range(3, kmax + 1)}
    adj = g.adjacency
    adjsets = [set(nbrs) for nbrs in adj]
    on_path = bytearray(g.n)

    def extend(start: int, second: int, vertex: int, length: int) -> None:
        on_path[vertex] = 1
        for w in adj[vertex]:
            if w <= start or on_path[w]:
                continue
            grown = length + 1
            if grown >= 3 and second < w and start in adjsets[w]:
                counts[grown] += 1
            if grown < kmax:
                extend(start, second, w, grown)
        on_path[vertex] = 0

    for s in range(g.n):
        on_path[s] = 1
        for a in adj[s]:
            if a > s:
                extend(s, a, a, 2)
        on_path[s] = 0
    return CycleCensus(kmax, counts)


def tree_edge_fraction(g: Graph, radius: int) -> float:
    """Fraction of edges whose radius-ball of edges is a tree."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    if g.m == 0:
        return 1.0
    incident = g.incident_edges()
    edges = g.edges
    trees = 0
    for mid in range(g.m):
        ids = _edge_ball(g, incident, mid, radius)
        vertices: set[int] = set()
        for e in ids:
            vertices.add(edges[e][0])
            vertices.add(edges[e][1])
        if len(ids) == len(vertices) - 1:
            trees += 1
    return trees / g.m


def max_cut_of_bipartition(g: Graph) -> int:
    """Number of edges crossing the stored bipartition."""
    if g.bipartition is None:
        raise InputError("graph carries no bipartition")
    classes = g.bipartition
    return sum(1 for u, v in g.edges if classes[u] != classes[v])


def write_edgelist(g: Graph, path) -> None:
    """Write the text edge-list format: "n m", then one "u v" line per edge,
    then an optional "bipartition: <0/1 string>" line."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    if g.bipartition is not None:
        lines.append("bipartition: " + "".join(str(b) for b in g.bipartition))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edgelist(path) -> Graph:
    """Read the text edge-list format written by :func:`write_edgelist`.

    Self-loops, duplicate edges, malformed counts, and non-crossing
    bipartitions are rejected. If every vertex ends up with the same degree
    the graph is tagged with it.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = [line.strip() for line in fh]
    except OSError as exc:
        raise InputError(f"cannot read edge list {path!s}: {exc}") from exc
    lines = [line for line in raw if line]
    if not lines:
        raise InputError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError("first line must be 'n m' with integers") from exc
    body = lines[1:]
    bipartition = None
    if body and body[-1].startswith("bipartition:"):
        bits = body[-1].split(":", 1)[1].strip()
        if not bits or any(c not in "01" for c in bits):
            raise InputError("bipartition line must be a 0/1 string")
        bipartition = [int(c) for c in bits]
        body = body[:-1]
    if len(body) != m:
        raise InputError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"malformed edge line {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"malformed edge line {line!r}") from exc
    g = Graph.from_edges(n, edges, bipartition=bipartition)
    degrees = {g.degree_of(v) for v in range(g.n)}
    if len(degrees) == 1:
        g.degree = degrees.pop()
    return g


def complete_graph(n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, edges, degree=n - 1 if n > 1 else None)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, degree=2)


def path_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(n, edges)


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InputError("both classes must be nonempty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    classes = [0] * a + [1] * b
    return Graph.from_edges(
        a + b, edges, degree=a if a == b else None, bipartition=classes
    )
