"""Undirected graphs on dense 0..n-1 vertex labels.

Everything the rest of the package needs from graph land: random d-regular
ensembles (general and bipartite, configuration model conditioned on
simplicity), edge neighborhoods out to a radius, the radius up to which each
edge's ball is a tree, an exact short-cycle census, and a small text
edge-list format.

Edges are always stored as (u, v) pairs with u < v, sorted lexicographically,
so any scan over edges is deterministic and "first edge" is well defined.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError, ResourceError, integer, zero_one
from .rng import as_generator

__all__ = [
    "Graph",
    "EnsembleSpec",
    "generate_regular",
    "generate_bipartite_regular",
    "sample_graph",
    "expected_matchings",
    "matching_budget",
    "edge_neighborhood",
    "edge_tree_radii",
    "count_cycles",
    "tree_edge_fraction",
    "read_edgelist",
    "write_edgelist",
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
_PAIR_CHUNK = 64

# count_cycles refuses a search that may follow more than MAX_CYCLE_PATHS
# paths, its bound n*D*(D-1)**(kmax-2) for maximum degree D. On random 3- to
# 6-regular graphs near the limit (2-vCPU VM) it took 6-10 ns a path of the
# bound, up to 1 s, and its chunks of about kmax**2/2 arrays of 2**14 entries
# peaked at 4.5-17 MiB. The census at n=1000, d=3, kmax=7 is 96,000 paths.
MAX_CYCLE_PATHS = 10**8
# A census holds one count per length 3..kmax, and on graphs of maximum
# degree <= 2 the path bound above does not grow with kmax, so kmax itself
# is capped too.
MAX_CYCLE_LENGTH = 10**4

# The walk kernel behind edge_tree_radii handles its roots in blocks, so
# that the walks of one level of one block hold at most about this many
# entries; its hash table has four slots per entry. count_cycles grows its
# paths in chunks that make at most this many new paths.
_WALK_BLOCK_ENTRIES = 1 << 14


def _edge(pair) -> tuple[int, int]:
    # The edge rule: two endpoints, each an int or numpy integer and not a
    # bool, as (u, v) with u <= v; the caller checks range and self-loops.
    try:
        u, v = pair
    except (TypeError, ValueError):
        raise InputError(f"an edge is two endpoints, got {pair!r}") from None
    if type(u) is not int or type(v) is not int:
        if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in (u, v)):
            raise InputError(f"edge endpoints must be integers, got {pair!r}")
        u, v = int(u), int(v)
    return (u, v) if u <= v else (v, u)


@dataclass
class Graph:
    """Simple undirected graph.

    Build instances through :meth:`from_edges`, which normalizes edge order,
    rejects self-loops and duplicates, and validates a stored bipartition.
    ``bipartition[v]`` is the 0/1 class of vertex v, and when it is present
    every edge must join the two classes.
    """

    n: int
    edges: list[tuple[int, int]]
    adjacency: list[list[int]]
    bipartition: list[int] | None = None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        bipartition=None,
    ) -> "Graph":
        n = integer(n, "vertex count", 1)
        norm = [_edge(pair) for pair in edges]
        norm.sort()
        # Each row comes out sorted: a vertex x meets its smaller neighbours
        # first, in order, as the second element of (u, x), and then its
        # larger ones as the first element of (x, v). A repeat sorts next
        # to its first copy.
        adjacency: list[list[int]] = [[] for _ in range(n)]
        last = None
        for edge in norm:
            u, v = edge
            if u < 0 or v >= n:
                raise InputError(f"edge ({u}, {v}) is out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if edge == last:
                raise InputError(f"duplicate edge ({u}, {v})")
            last = edge
            adjacency[u].append(v)
            adjacency[v].append(u)
        if bipartition is not None:
            bipartition = zero_one(bipartition, "bipartition entries")
            if len(bipartition) != n:
                raise InputError("bipartition length must equal the vertex count")
            for u, v in norm:
                if bipartition[u] == bipartition[v]:
                    raise InputError(
                        f"edge ({u}, {v}) stays inside one bipartition class"
                    )
        return cls(n, norm, adjacency, bipartition)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree_of(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class EnsembleSpec:
    """A random regular ensemble: n vertices, degree d, kind, 64-bit seed.

    ``kind`` is "general" (uniform simple d-regular) or "bipartite" (uniform
    simple d-regular bipartite with classes 0..n/2-1 and n/2..n-1). ``n``
    and ``d`` must be integers of at least 1; numpy integers are stored as
    ``int``.
    """

    n: int
    d: int
    kind: str = "general"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("general", "bipartite"):
            raise InputError(f"unknown ensemble kind {self.kind!r}")
        for name in ("n", "d"):
            object.__setattr__(self, name, integer(getattr(self, name), f"ensemble {name}", 1))
        if self.n <= self.d:
            raise InputError("need n > d for a simple d-regular graph")
        if self.kind == "general" and (self.n * self.d) % 2 != 0:
            raise InputError("general ensemble needs n*d even")
        if self.kind == "bipartite":
            if self.n % 2 != 0:
                raise InputError("bipartite ensemble needs even n")
            if self.d > self.n // 2:
                raise InputError("bipartite ensemble needs d <= n/2")


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
    # peak RSS of every run that samples a graph. A bipartite pair already
    # runs from the left class to the right one, so it needs neither. The
    # repeat test adds _PAIR_CHUNK pairs at a time to a set and stops at the
    # first chunk that repeats one, about a third of the way in on average.
    rng = as_generator(spec.seed)
    for _ in range(budget):
        rng.shuffle(shuffled)
        lo, hi = left, right
        if bipartition is None:
            lo, hi = np.minimum(left, right), np.maximum(left, right)
            if not (hi - lo).min():
                continue
        keys = (lo * spec.n + hi).tolist()
        seen: set[int] = set()
        for start in range(0, len(keys), _PAIR_CHUNK):
            seen.update(keys[start : start + _PAIR_CHUNK])
            if len(seen) < min(start + _PAIR_CHUNK, len(keys)):
                break
        else:
            return Graph.from_edges(
                spec.n,
                zip(lo.tolist(), hi.tolist()),
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


def edge_neighborhood(g: Graph, edge, radius: int) -> Graph:
    """The ball of edges within ``radius`` edge-steps of ``edge``, as a graph.

    The middle edge is at distance 0 and edges sharing an endpoint are one
    step apart. The ball keeps exactly those edges; its vertices are their
    endpoints, relabeled in discovery order with the middle endpoints 0 and
    1, so the middle edge (0, 1) sorts first and is ``ball.edges[0]``. The
    ball is connected, so it is a tree exactly when ``ball.m == ball.n - 1``.
    """
    radius = integer(radius, "radius", 0)
    u, v = _edge(edge)
    if not (0 <= u and v < g.n and v in g.adjacency[u]):
        raise InputError(f"({u}, {v}) is not an edge of the graph")
    # BFS over edges (u, v), u < v, adjacent when they share an endpoint. A sorted
    # row meets its vertex's edges in edge order; a vertex is labelled when reached.
    adjacency = g.adjacency
    pos = {u: 0, v: 1}
    dist = {(u, v): 0}
    ball_edges = [(0, 1)]
    queue = deque([(u, v)])
    while queue:
        e = queue.popleft()
        de = dist[e]
        if de == radius:
            continue
        for w in e:
            for x in adjacency[w]:
                f = (w, x) if w < x else (x, w)
                if f not in dist:
                    dist[f] = de + 1
                    pos.setdefault(x, len(pos))
                    ball_edges.append((pos[f[0]], pos[f[1]]))
                    queue.append(f)
    return Graph.from_edges(len(pos), ball_edges)


def _walk_tables(g: Graph):
    # Non-backtracking walks, stepped by directed edges: edge i = (u, v)
    # gives 2i = u->v and 2i+1 = v->u, and 2m is a sentinel edge whose head
    # is the sentinel vertex n. Returns ``head`` (2m+1), ``out`` (n, D), the
    # directed edges leaving each vertex, and ``turns`` (2m+1, D-1), the
    # directed edges that continue each one without stepping back; short
    # rows are padded with the sentinel, which continues only to itself.
    n, m = g.n, g.m
    width = max(map(len, g.adjacency))
    tails = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64, count=2 * m)
    head = np.append(tails.reshape(m, 2)[:, ::-1].reshape(-1), n)
    out = np.full((n + 1, width), 2 * m)
    column_of = np.empty(2 * m, dtype=np.int64)
    pending = np.arange(2 * m)
    for column in range(width):
        # one pending edge of each vertex lands in this column
        out[tails[pending], column] = pending
        landed = out[tails[pending], column]
        column_of[landed] = column
        pending = pending[np.flatnonzero(pending - landed)]
    back = column_of[np.arange(2 * m).reshape(m, 2)[:, ::-1].reshape(-1)]
    # the row of a directed edge's head, rotated so the way back comes last
    rotated = (back[:, None] + 1 + np.arange(width - 1)) % width
    turns = np.full((2 * m + 1, max(width - 1, 0)), 2 * m)
    turns[:-1] = out[head[:-1, None], rotated]
    return head, out[:n], turns


def _rows_with_repeats(keys, owner, rows: int, table):
    # 1 for each of ``rows`` rows that holds some key twice, else 0;
    # ``owner[i]`` is the row of ``keys[i]``. Each key is hashed into
    # ``table`` and one entry wins each slot: an entry that lost to its own
    # key is a repeat, and one that lost to another key tries again with a
    # new modulus. Every slot read was written in the same round, so the
    # table is never cleared. Indexing, arithmetic and bincount load no
    # numpy code beyond what sampling and simulation already use.
    repeats = np.zeros(rows, dtype=np.int64)
    size = table.size
    while keys.size:
        slots = keys % size
        index = np.arange(keys.size)
        table.put(slots, index)
        winner = table.take(slots)
        lost = np.flatnonzero(index - winner)
        again = lost.take(np.flatnonzero(keys.take(lost) - keys.take(winner.take(lost))))
        repeats += np.bincount(owner.take(lost), minlength=rows)
        repeats -= np.bincount(owner.take(again), minlength=rows)
        keys, owner = keys.take(again), owner.take(again)
        size -= 1
    return np.minimum(repeats, 1)


def _first_collisions(head, turns, start_heads, first_steps, levels: int):
    # For each root, the first walk length L <= levels at which two of its
    # non-backtracking walks of length <= L end at one vertex, else
    # levels + 1. Root i's walks of length 0 end at start_heads[i] and its
    # walks of length 1 cross the directed edges first_steps[i]. Once no two
    # walks up to length L-1 meet, a walk of length L can only meet one of
    # length L or L-1, so each level is tested against the one before.
    # Walks are flat arrays of the directed edge last crossed and the row of
    # their root; walks that reach the sentinel, and the walks of decided
    # roots, leave them. A vertex v of row r is the key r*(n+1) + v.
    sentinel = int(head[-1])
    dead = turns.shape[0] - 1
    roots = start_heads.shape[0]
    first = np.full(roots, levels + 1)
    # Until two of its walks meet, a root's walks of one length end at
    # distinct vertices, so the next length holds at most n*(D-1) of them.
    branching = max(turns.shape[1], 1)
    growth = branching ** min(max(levels - 1, 0), sentinel.bit_length())
    widest = min(first_steps.shape[1] * growth, sentinel * branching)
    block = max(1, _WALK_BLOCK_ENTRIES // max(2 * widest, 1))
    table = np.empty(min(4 * _WALK_BLOCK_ENTRIES, block * (sentinel + 1)), dtype=np.int64)
    for lo in range(0, roots, block):
        rows = min(block, roots - lo)
        owner = np.repeat(np.arange(rows), start_heads.shape[1])
        keys = owner * (sentinel + 1) + start_heads[lo : lo + rows].reshape(-1)
        steps = first_steps[lo : lo + rows].reshape(-1)
        row = np.repeat(np.arange(rows), first_steps.shape[1])
        for level in range(1, levels + 1):
            if level > 1:
                steps = turns.take(steps, axis=0).reshape(-1)
                row = np.repeat(row, turns.shape[1])
            live = np.flatnonzero(dead - steps)
            steps, row = steps.take(live), row.take(live)
            if not steps.size:
                break
            ends = row * (sentinel + 1) + head.take(steps)
            repeats = _rows_with_repeats(
                np.concatenate([keys, ends]), np.concatenate([owner, row]), rows, table
            )
            first.put(lo + np.flatnonzero(repeats), level)
            going = np.flatnonzero(1 - repeats.take(row))
            steps, row, keys = steps.take(going), row.take(going), ends.take(going)
            owner = row
    return first


def edge_tree_radii(g: Graph, rmax: int) -> np.ndarray:
    """For each edge, in edge order, the largest radius r <= ``rmax`` at
    which its ball (:func:`edge_neighborhood`) is a tree.

    A radius-r ball is a tree exactly when the non-backtracking walks of
    length <= r that leave the middle edge's two endpoints, neither crossing
    the middle edge, end at distinct vertices: those walks cover every edge
    of the ball. One vectorized walk from all edges gives every radius.
    """
    rmax = integer(rmax, "radius", 0)
    if g.m == 0:
        return np.zeros(0, dtype=np.int64)
    head, _, turns = _walk_tables(g)
    middles = np.arange(2 * g.m).reshape(g.m, 2)
    first_steps = turns[middles].reshape(g.m, -1)
    return _first_collisions(head, turns, head[middles], first_steps, rmax) - 1


def _check_census(kmax, n: int, top: int) -> int:
    kmax = integer(kmax, "kmax", 3)
    if kmax > MAX_CYCLE_LENGTH:
        raise ResourceError(
            f"a cycle census to length {kmax} is above the limit of {MAX_CYCLE_LENGTH}"
        )
    # from D=3 on, (D-1)**64 alone is above the limit, and below it the
    # power is 0 or 1, so a capped exponent gives the same answer
    if n * top * max(top - 1, 0) ** min(kmax - 2, 64) > MAX_CYCLE_PATHS:
        raise ResourceError(
            f"a cycle census to length {kmax} on n={n} vertices of degree up "
            f"to {top} may follow up to {n}*{top}*{top - 1}^{kmax - 2} "
            f"paths, above the limit of {MAX_CYCLE_PATHS:.0e}"
        )
    return kmax


def count_cycles(g: Graph, kmax: int) -> dict[int, int]:
    """Exact simple-cycle counts ``{k: count}`` for every length 3..kmax.

    Refused with ``ResourceError`` before any search when kmax exceeds
    ``MAX_CYCLE_LENGTH`` or n*D*(D-1)^(kmax-2), D the maximum degree, exceeds
    ``MAX_CYCLE_PATHS``. The search walks the simple paths that start at
    their smallest vertex, one length at a time; each cycle is two of them
    that return to the start.
    """
    top = max(map(len, g.adjacency))
    kmax = _check_census(kmax, g.n, top)
    counts = dict.fromkeys(range(3, kmax + 1), 0)
    head, out, turns = _walk_tables(g)
    width = turns.shape[1]
    # A chunk of paths s, v1, .., vL holds the columns s, v1, .., v(L-1) and
    # the directed edge into vL; the sentinel's end, -1, is below every s.
    ends = np.append(head[:-1], -1)
    steps, starts = out.reshape(-1), np.repeat(np.arange(g.n), top)
    live = np.flatnonzero(np.maximum(ends.take(steps) - starts, 0))
    stack = [(1, steps.take(live), [starts.take(live)])]
    block = _WALK_BLOCK_ENTRIES // max(width, 1)
    while stack:
        length, steps, path = stack.pop()
        if steps.size > block:
            stack.append((length, steps[block:], [v[block:] for v in path]))
            steps, path = steps[:block], [v[:block] for v in path]
        grown = turns.take(steps, axis=0).reshape(-1)
        row = np.repeat(np.arange(steps.size), width)
        w = ends.take(grown)
        gap = w - path[0].take(row)
        if length > 1:
            counts[length + 1] += gap.size - int(np.count_nonzero(gap))
        if length + 1 == kmax:
            continue
        # keep ends above s that repeat none of v1..v(L-2); turns skip v(L-1)
        keep = np.flatnonzero(np.maximum(gap, 0, out=gap))
        w, row = w.take(keep), row.take(keep)
        for v in path[1:-1]:
            hit = np.flatnonzero(w - v.take(row))
            if hit.size < w.size:
                w, row, keep = w.take(hit), row.take(hit), keep.take(hit)
        if length + 2 < kmax and width > 1:
            path = [v.take(row) for v in path] + [ends.take(steps.take(row))]
        else:
            # the last level only closes cycles, and on degree <= 2 a walk
            # meets no vertex twice before it returns to s
            path = [path[0].take(row)]
        stack.append((length + 1, grown.take(keep), path))
        del grown, gap, keep, w, row  # freed before the next chunk grows
    return {k: c // 2 for k, c in counts.items()}


def tree_edge_fraction(g: Graph, radius: int) -> float:
    """Fraction of edges whose radius-ball of edges is a tree."""
    radius = integer(radius, "radius", 0)
    if g.m == 0:
        return 1.0
    radii = edge_tree_radii(g, radius)
    return (g.m - int(np.count_nonzero(radius - radii))) / g.m


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
    bipartitions are rejected.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = [line.strip() for line in fh]
    except OSError as exc:
        raise InputError(f"cannot read edge list {path!s}: {exc}") from exc
    lines = [line for line in raw if line]
    if not lines:
        raise InputError("empty edge-list file")
    try:
        n, m = map(int, lines[0].split())
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
        try:
            edges.append(tuple(map(int, line.split())))
        except ValueError as exc:
            raise InputError(f"malformed edge line {line!r}") from exc
    return Graph.from_edges(n, edges, bipartition=bipartition)
