import math
import re
import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest

from qaoa_locality import graphs as graphs_module
from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.graphs import (
    MAX_CYCLE_PATHS,
    MAX_EXPECTED_MATCHINGS,
    EnsembleSpec,
    Graph,
    count_cycles,
    edge_neighborhood,
    edge_tree_radii,
    expected_matchings,
    generate_bipartite_regular,
    generate_regular,
    matching_budget,
    read_edgelist,
    sample_graph,
    tree_edge_fraction,
    write_edgelist,
)
from qaoa_locality.rng import as_generator, derive_seeds
from qaoa_locality.trees import build_canonical_tree
from small_graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    max_cut_of_bipartition,
    path_graph,
)


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def is_tree(ball):
    # a ball is connected, so it is a tree exactly when it has n - 1 edges
    return ball.m == ball.n - 1


# ----------------------------------------------------------------- Graph


def test_from_edges_sorts_and_validates():
    g = Graph.from_edges(4, [(3, 2), (0, 1), (1, 3)])
    assert g.edges == [(0, 1), (1, 3), (2, 3)]
    assert g.adjacency[3] == [1, 2]
    assert g.m == 3
    # rows come out sorted whatever order the edges arrive in
    rng = np.random.default_rng(4)
    for seed in range(6):
        h = nx.gnm_random_graph(30, 60, seed=seed)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in h.edges()]
        rng.shuffle(edges)
        for order in (edges, edges[::-1]):
            g = Graph.from_edges(30, order)
            assert g.edges == sorted((min(e), max(e)) for e in edges)
            assert all(row == sorted(row) for row in g.adjacency)
            assert g.adjacency == [sorted(h.adj[v]) for v in range(30)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    # 2.7 used to build a graph on 2 vertices
    with pytest.raises(InputError, match="vertex count must be an integer, got 2.7"):
        Graph.from_edges(2.7, [(0, 1)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])
    # each of these used to build a graph: float endpoints were truncated to
    # edge (0, 1), a third item was dropped, strings and bools were parsed,
    # and a float or bool bipartition entry was truncated to 0 or 1
    for edges in ([(0.5, 1.7)], [(0, 1, 2)], [("0", "1")], [(True, 2)], [(0,)], [3]):
        with pytest.raises(InputError, match="edge"):
            Graph.from_edges(3, edges)
    for classes in ([0.5, 1.9, 0], [False, True, False], ["0", "1", "0"], [0, 2, 0]):
        with pytest.raises(InputError, match="bipartition entries must be 0 or 1"):
            Graph.from_edges(3, [(0, 1), (1, 2)], bipartition=classes)
    with pytest.raises(InputError, match="bipartition length must equal the vertex count"):
        Graph.from_edges(3, [(0, 1), (1, 2)], bipartition=[0, 1])
    with pytest.raises(InputError, match=r"edge \(1, 2\) stays inside one bipartition class"):
        Graph.from_edges(3, [(0, 1), (1, 2)], bipartition=[0, 1, 1])


def test_constructors():
    assert complete_graph(4).m == 6
    assert cycle_graph(5).m == 5
    assert path_graph(5).m == 4
    k33 = complete_bipartite_graph(3, 3)
    assert k33.m == 9
    assert k33.bipartition is not None
    assert max_cut_of_bipartition(k33) == 9


# ------------------------------------------------------------ generators


@pytest.mark.parametrize("n,d", [(8, 3), (12, 3), (10, 4), (9, 2)])
def test_generate_regular_is_simple_and_regular(n, d):
    for seed in range(5):
        g = generate_regular(EnsembleSpec(n, d, "general", seed))
        assert g.n == n and g.m == n * d // 2
        assert all(g.degree_of(v) == d for v in range(n))
        assert len(set(g.edges)) == g.m
        assert all(u != v for u, v in g.edges)


def test_each_generator_refuses_the_other_kind():
    with pytest.raises(InputError, match="generate_regular expects a general-kind spec"):
        generate_regular(EnsembleSpec(8, 3, "bipartite", 0))
    with pytest.raises(InputError, match="generate_bipartite_regular expects a bipartite"):
        generate_bipartite_regular(EnsembleSpec(8, 3, "general", 0))


def test_generate_regular_is_deterministic():
    spec = EnsembleSpec(14, 3, "general", 42)
    assert generate_regular(spec).edges == generate_regular(spec).edges


@pytest.mark.parametrize("n,d", [(8, 3), (12, 3), (12, 2)])
def test_generate_bipartite_regular(n, d):
    for seed in range(5):
        g = generate_bipartite_regular(EnsembleSpec(n, d, "bipartite", seed))
        assert all(g.degree_of(v) == d for v in range(n))
        half = n // 2
        for u, v in g.edges:
            assert (u < half) <= (v >= half)
        assert g.bipartition is not None
        assert max_cut_of_bipartition(g) == g.m


# The samplers as they were when each tested its matching pair by pair in
# Python, kept verbatim as the reference for the numpy test that replaced
# them: same stream, same graphs.
def reference_regular(spec):
    rng = as_generator(spec.seed)
    stubs = np.repeat(np.arange(spec.n), spec.d)
    while True:
        rng.shuffle(stubs)
        flat = stubs.tolist()
        edges = set()
        ok = True
        it = iter(flat)
        for a, b in zip(it, it):
            if a == b:
                ok = False
                break
            if a > b:
                a, b = b, a
            if (a, b) in edges:
                ok = False
                break
            edges.add((a, b))
        if ok:
            return Graph.from_edges(spec.n, sorted(edges))


def reference_bipartite(spec):
    rng = as_generator(spec.seed)
    half = spec.n // 2
    left = np.repeat(np.arange(half), spec.d).tolist()
    right = np.repeat(np.arange(half, spec.n), spec.d)
    while True:
        rng.shuffle(right)
        pairs = set()
        ok = True
        for a, b in zip(left, right.tolist()):
            if (a, b) in pairs:
                ok = False
                break
            pairs.add((a, b))
        if ok:
            classes = [0] * half + [1] * (spec.n - half)
            return Graph.from_edges(spec.n, sorted(pairs), bipartition=classes)


REFERENCE = {"general": reference_regular, "bipartite": reference_bipartite}


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["general", "bipartite"])
@pytest.mark.parametrize("n", [8, 12, 16, 20, 200, 1000])
def test_samplers_draw_the_reference_graphs(n, kind):
    # every valid degree 2..5: a bipartite class of n/2 vertices caps d
    degrees = [d for d in (2, 3, 4, 5) if kind == "general" or d <= n // 2]
    for d in degrees:
        for seed in range(5 if n == 1000 else 20):
            spec = EnsembleSpec(n, d, kind, seed)
            got, want = sample_graph(spec), REFERENCE[kind](spec)
            assert got.edges == want.edges, spec
            assert got.bipartition == want.bipartition, spec
            assert all(len(row) == d for row in got.adjacency + want.adjacency), spec


def test_matching_budget_stops_the_same_stream(monkeypatch):
    # (12, 5, seed 3) is simple at its 1493rd general matching and
    # (12, 4, seed 3) at its 21st bipartite one: a budget of exactly that
    # many draws the same graph, one fewer raises.
    general = EnsembleSpec(12, 5, "general", 3)
    bipartite = EnsembleSpec(12, 4, "bipartite", 3)
    first = sample_graph(general).edges
    assert first[:6] == [(0, 2), (0, 3), (0, 4), (0, 8), (0, 11), (1, 2)]
    for spec, attempts in ((general, 1493), (bipartite, 21)):
        want = sample_graph(spec).edges
        monkeypatch.setattr(graphs_module, "matching_budget", lambda s: attempts)
        assert sample_graph(spec).edges == want
        monkeypatch.setattr(graphs_module, "matching_budget", lambda s: attempts - 1)
        with pytest.raises(ResourceError, match=f"n=12, d={spec.d} in {attempts - 1} "):
            sample_graph(spec)
        monkeypatch.undo()


@pytest.mark.parametrize(
    "refused, runs, seed",
    [
        (EnsembleSpec(14, 7, "general"), EnsembleSpec(16, 7, "general"), 67),
        (EnsembleSpec(46, 6, "bipartite"), EnsembleSpec(48, 6, "bipartite"), 20),
    ],
    ids=["general-d7", "bipartite-d6"],
)
def test_matching_limit_depends_on_the_spec_not_the_seed(
    refused, runs, seed, monkeypatch
):
    # either side of MAX_EXPECTED_MATCHINGS: the smaller n is refused
    # before any matching is drawn, for every seed
    with monkeypatch.context() as patch:
        patch.setattr(graphs_module, "as_generator", None)
        for s in range(3):
            with pytest.raises(ResourceError, match=f"n={refused.n}, d={refused.d} needs"):
                sample_graph(EnsembleSpec(refused.n, refused.d, refused.kind, s))
    # the larger n gets 50 times its expected matchings; this seed draws
    # a graph early (seed 67 after 12794 matchings, seed 20 after 960)
    assert matching_budget(runs) >= 50 * expected_matchings(runs)
    g = sample_graph(EnsembleSpec(runs.n, runs.d, runs.kind, seed))
    assert g.m == runs.n * runs.d // 2


def test_no_d8_graph_is_ever_sampled():
    for kind in ("general", "bipartite"):
        spec = EnsembleSpec(10**6, 8, kind)
        assert expected_matchings(spec) > MAX_EXPECTED_MATCHINGS
        with pytest.raises(ResourceError, match="above the limit of 1000000"):
            matching_budget(spec)


def test_sample_graph_dispatches_on_kind():
    assert sample_graph(EnsembleSpec(8, 3, "general", 1)).m == 12
    g = sample_graph(EnsembleSpec(8, 3, "bipartite", 1))
    assert g.bipartition is not None


def test_negative_seeds_are_refused():
    with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
        sample_graph(EnsembleSpec(16, 3, "general", -1))
    with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
        derive_seeds(-1, 2)


def test_ensemble_spec_validation():
    with pytest.raises(InputError):
        EnsembleSpec(7, 3, "general", 0)  # odd n*d
    with pytest.raises(InputError):
        EnsembleSpec(4, 4, "general", 0)  # n <= d
    with pytest.raises(InputError):
        EnsembleSpec(9, 2, "bipartite", 0)  # odd n
    with pytest.raises(InputError):
        EnsembleSpec(6, 4, "bipartite", 0)  # d > n/2
    with pytest.raises(InputError):
        EnsembleSpec(8, 3, "hyperbolic", 0)
    # a single edge is the smallest valid ensemble member
    g = sample_graph(EnsembleSpec(2, 1, "general", 0))
    assert g.edges == [(0, 1)]


@pytest.mark.parametrize(
    "n, d",
    [(16, 3.0), (16.0, 3), (16, True), (True, 1), (16, "3"), ("16", 3), (16, None)],
)
def test_ensemble_spec_refuses_non_integer_sizes(n, d):
    # 3.0 and 16.0 used to sample a graph, True a perfect matching, and "3"
    # raised TypeError
    with pytest.raises(InputError, match="must be an integer"):
        EnsembleSpec(n, d, "general", 0)


# A float radius, count or seed used to be compared or truncated: at 1.5,
# edge_neighborhood returned the whole component and tree_edge_fraction 0.0;
# edge_tree_radii and derive_seeds truncated; count_cycles raised TypeError.
@pytest.mark.parametrize(
    "call",
    [
        lambda g: edge_neighborhood(g, g.edges[0], 1.5),
        lambda g: edge_tree_radii(g, 1.5),
        lambda g: tree_edge_fraction(g, 1.5),
        lambda g: count_cycles(g, 5.5),
        lambda g: count_cycles(g, True),
        lambda g: derive_seeds(3, 2.7),
        lambda g: derive_seeds(3.0, 2),
    ],
    ids=["edge_neighborhood", "edge_tree_radii", "tree_edge_fraction", "count_cycles",
         "count_cycles-bool", "derive_seeds-count", "derive_seeds-seed"],
)
def test_graph_entry_points_refuse_non_integers(call):
    g = sample_graph(EnsembleSpec(200, 3, "general", 0))
    with pytest.raises(InputError, match="must be an integer"):
        call(g)


def test_graph_entry_points_accept_numpy_integers():
    g = sample_graph(EnsembleSpec(200, 3, "general", 0))
    one, five = np.int64(1), np.int32(5)
    assert edge_neighborhood(g, g.edges[0], one) == edge_neighborhood(g, g.edges[0], 1)
    assert edge_neighborhood(g, g.edges[0], one).n == 6
    assert np.array_equal(edge_tree_radii(g, one), edge_tree_radii(g, 1))
    assert tree_edge_fraction(g, one) == tree_edge_fraction(g, 1) > 0.9
    assert count_cycles(g, five) == count_cycles(g, 5)
    assert derive_seeds(np.uint8(3), five) == derive_seeds(3, 5)
    assert Graph.from_edges(np.int64(2), [(0, 1)]) == Graph.from_edges(2, [(0, 1)])
    # numpy endpoints and classes are stored as int
    edges = [(0, 1), (2, 1), (2, 3), (0, 3)]
    want = Graph.from_edges(4, edges, bipartition=[0, 1, 0, 1])
    for kind in (np.int64, np.int32):
        got = Graph.from_edges(
            4, np.array(edges, dtype=kind), bipartition=np.array([0, 1, 0, 1], dtype=kind)
        )
        assert got == want
        assert {type(x) for e in got.edges for x in e} == {int}
        assert {type(b) for b in got.bipartition} == {int}
        for u, v in edges:
            ball = edge_neighborhood(want, (u, v), 2)
            assert edge_neighborhood(got, (kind(u), kind(v)), 2) == ball


def test_ensemble_spec_stores_numpy_integers_as_int():
    spec = EnsembleSpec(np.int64(16), np.int32(3), "general", 5)
    assert spec == EnsembleSpec(16, 3, "general", 5)
    assert type(spec.n) is int and type(spec.d) is int
    assert sample_graph(spec).edges == sample_graph(EnsembleSpec(16, 3, "general", 5)).edges


# ------------------------------------------------------- edge neighborhoods


def test_ring_neighborhood_is_path():
    ball = edge_neighborhood(cycle_graph(6), (0, 1), 1)
    assert is_tree(ball)
    assert ball.n == 4 and ball.m == 3
    # the middle endpoints are relabeled 0 and 1, then host vertex 5 (met
    # from 0) and host vertex 2 (met from 1); the middle edge comes first
    assert ball.edges == [(0, 1), (0, 2), (1, 3)]


def test_k4_neighborhood_is_not_tree():
    ball = edge_neighborhood(complete_graph(4), (0, 1), 1)
    assert not is_tree(ball)
    # the radius-1 edge ball around (0,1) misses only the opposite edge (2,3)
    assert ball.m == 5
    assert ball.n == 4


def test_neighborhood_radius_zero():
    ball = edge_neighborhood(complete_graph(4), (1, 3), 0)
    assert ball.m == 1
    assert ball.edges == [(0, 1)]
    assert is_tree(ball)


def test_neighborhood_ball_matches_distance_definition():
    # the edges within line-graph distance p of the middle edge, with the
    # middle endpoints pinned to ball vertices 0 and 1
    g = sample_graph(EnsembleSpec(16, 3, "general", 11))
    lg = nx.line_graph(to_networkx(g))
    same_end = nx.algorithms.isomorphism.categorical_node_match("end", None)
    for edge in g.edges:
        for p in (1, 2, 3):
            ball = to_networkx(edge_neighborhood(g, edge, p))
            nx.set_node_attributes(ball, {0: "u", 1: "v"}, "end")
            dist = nx.single_source_shortest_path_length(lg, edge, cutoff=p)
            expected = nx.Graph(list(dist))
            nx.set_node_attributes(expected, {edge[0]: "u", edge[1]: "v"}, "end")
            assert nx.is_isomorphic(ball, expected, node_match=same_end), (edge, p)


# The ball as it was built before the walk went over the adjacency rows,
# kept as the reference: a BFS over edge ids through a table of the edge
# ids at each vertex, relabelled in discovery order.
def incidence_ball(g, edge, radius):
    incident = [[] for _ in range(g.n)]
    for idx, (a, b) in enumerate(g.edges):
        incident[a].append(idx)
        incident[b].append(idx)
    u, v = sorted(edge)
    middle = next(e for e in incident[u] if g.edges[e] == (u, v))
    dist = {middle: 0}
    order = [middle]
    queue = deque([middle])
    while queue:
        e = queue.popleft()
        de = dist[e]
        if de == radius:
            continue
        for w in g.edges[e]:
            for f in incident[w]:
                if f not in dist:
                    dist[f] = de + 1
                    order.append(f)
                    queue.append(f)
    pos = {u: 0, v: 1}
    ball_edges = []
    for e in order:
        a, b = g.edges[e]
        for w in (a, b):
            if w not in pos:
                pos[w] = len(pos)
        ball_edges.append((pos[a], pos[b]))
    ball = Graph.from_edges(len(pos), ball_edges)
    return ball.n, ball.edges, ball.adjacency


def test_balls_match_the_incidence_bfs():
    """Walking the sorted adjacency rows visits the edges in the order of
    an edge-id BFS, so every ball comes out with the same labels."""
    graphs = [
        sample_graph(EnsembleSpec(n, d, kind, 10 * d + n))
        for kind in ("general", "bipartite")
        for d in (2, 3, 4, 5)
        for n in (16, 40)
    ]
    graphs += irregular_graphs()
    graphs += [build_canonical_tree(d, p) for d in (2, 3, 4) for p in range(4)]
    for g in graphs:
        for u, v in g.edges:
            for r in range(5):
                want = incidence_ball(g, (u, v), r)
                for edge in ((u, v), (v, u)):
                    ball = edge_neighborhood(g, edge, r)
                    assert (ball.n, ball.edges, ball.adjacency) == want, (g.edges, edge, r)


@pytest.mark.parametrize(
    "pair, text",
    [
        ((3, 0), "(0, 3) is not an edge"),
        ((2, 2), "(2, 2) is not an edge"),
        ((5, 6), "(5, 6) is not an edge"),
        ((-1, 0), "(-1, 0) is not an edge"),
        ((7, 6), "(6, 7) is not an edge"),
        # the ball of (0, 1) used to be returned for these
        ((0.9, 1.7), "edge endpoints must be integers, got (0.9, 1.7)"),
        ((0, 1, 2), "an edge is two endpoints, got (0, 1, 2)"),
        (("0", "1"), "edge endpoints must be integers"),
    ],
    ids=["absent", "self", "one-end-past-n", "negative", "both-ends-past-n",
         "float-ends", "three-items", "string-ends"],
)
def test_neighborhood_refuses_a_pair_that_is_not_an_edge(pair, text):
    with pytest.raises(InputError, match=re.escape(text)):
        edge_neighborhood(cycle_graph(6), pair, 1)


def test_regular_tree_neighborhood_matches_canonical_tree():
    """On a d-regular host, a tree-shaped ball extracts to exactly the
    canonical tree's edge list, including labeling."""
    tree = build_canonical_tree(3, 1)
    g = sample_graph(EnsembleSpec(20, 3, "general", 5))
    seen = 0
    for edge in g.edges:
        ball = edge_neighborhood(g, edge, 1)
        if not is_tree(ball):
            continue
        seen += 1
        assert ball.edges == tree.edges
        assert ball.edges[0] == tree.edges[0] == (0, 1)
    assert seen > 0
    # each canonical tree is the radius-p ball of the next one's middle edge
    for d in range(2, 7):
        for p in range(5):
            bigger = build_canonical_tree(d, p + 1)
            assert edge_neighborhood(bigger, (0, 1), p) == build_canonical_tree(d, p)


# ------------------------------------------------------------ tree radii


def from_networkx(h):
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


def irregular_graphs():
    """Graphs with leaves, hubs, several components or isolated vertices,
    where the walk tables are padded with the sentinel."""
    star = Graph.from_edges(9, [(0, v) for v in range(1, 9)])
    triangle_and_square = Graph.from_edges(
        8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
    )  # vertex 7 is isolated
    shapes = [
        complete_graph(2),
        complete_graph(5),
        path_graph(2),
        path_graph(7),
        cycle_graph(3),
        cycle_graph(8),
        star,
        complete_bipartite_graph(2, 5),
        build_canonical_tree(3, 3),
        triangle_and_square,
        Graph.from_edges(3, [(0, 1)]),
    ]
    shapes += [from_networkx(nx.gnm_random_graph(30, 40, seed=s)) for s in range(6)]
    return shapes


def random_regular_graphs():
    out = []
    for kind in ("general", "bipartite"):
        for d in (2, 3, 4, 5):
            for n in (16, 40, 200):
                out.append(sample_graph(EnsembleSpec(n, d, kind, 10 * d + n)))
    return out


def test_edge_tree_radii_match_the_balls():
    for g in random_regular_graphs() + irregular_graphs():
        radii = edge_tree_radii(g, 4)
        assert radii.shape == (g.m,)
        for edge, radius in zip(g.edges, radii.tolist()):
            for r in range(5):
                assert is_tree(edge_neighborhood(g, edge, r)) == (r <= radius), (g.edges, edge, r)


def test_edge_tree_radii_pinned_examples():
    # a 5-cycle's ball closes at radius 2, a 6-cycle's at 3
    assert edge_tree_radii(cycle_graph(5), 4).tolist() == [1] * 5
    assert edge_tree_radii(cycle_graph(6), 4).tolist() == [2] * 6
    # a triangle beside every edge of K4
    assert edge_tree_radii(complete_graph(4), 3).tolist() == [0] * 6
    # a tree never closes, however far the radius
    assert set(edge_tree_radii(build_canonical_tree(3, 2), 10**9).tolist()) == {10**9}
    assert edge_tree_radii(path_graph(4), 0).tolist() == [0, 0, 0]
    assert edge_tree_radii(Graph.from_edges(3, []), 2).tolist() == []
    with pytest.raises(InputError):
        edge_tree_radii(path_graph(4), -1)


# ------------------------------------------------------------ cycle census


def brute_force_counts(g, kmax):
    counts = {k: 0 for k in range(3, kmax + 1)}
    for cyc in nx.simple_cycles(to_networkx(g), length_bound=kmax):
        if len(cyc) >= 3:
            counts[len(cyc)] += 1
    return counts


def test_count_cycles_matches_networkx_at_every_kmax():
    for g in random_regular_graphs() + irregular_graphs():
        if g.n > 40:
            continue
        for kmax in (3, 4, 5, 6, 7):
            assert count_cycles(g, kmax) == brute_force_counts(g, kmax), (g.edges, kmax)


def test_an_edgeless_graph_has_no_cycles_and_only_tree_balls():
    g = Graph.from_edges(4, [])
    assert count_cycles(g, 7) == {k: 0 for k in range(3, 8)}
    assert edge_tree_radii(g, 2).tolist() == []
    assert tree_edge_fraction(g, 2) == 1.0


def test_count_cycles_pinned_examples():
    assert count_cycles(complete_graph(4), 4) == {3: 4, 4: 3}
    assert count_cycles(complete_bipartite_graph(3, 3), 4) == {3: 0, 4: 9}
    assert count_cycles(cycle_graph(6), 6) == {3: 0, 4: 0, 5: 0, 6: 1}
    assert count_cycles(path_graph(5), 5) == {3: 0, 4: 0, 5: 0}
    # odd cycles are found by walks of lengths (k-1)/2 and (k+1)/2
    assert count_cycles(cycle_graph(7), 7) == {3: 0, 4: 0, 5: 0, 6: 0, 7: 1}
    assert count_cycles(cycle_graph(5), 5) == {3: 0, 4: 0, 5: 1}


def test_count_cycles_matches_brute_force_on_random_graphs():
    for seed in range(8):
        g = sample_graph(EnsembleSpec(10, 3, "general", seed))
        assert count_cycles(g, 7) == brute_force_counts(g, 7)
    for seed in range(4):
        g = sample_graph(EnsembleSpec(10, 3, "bipartite", seed))
        assert count_cycles(g, 6) == brute_force_counts(g, 6)


def test_count_cycles_matches_brute_force_on_irregular_and_larger_graphs():
    for g in irregular_graphs():
        assert count_cycles(g, 7) == brute_force_counts(g, 7), g.edges
    for d in (3, 4):
        for seed in range(2):
            g = sample_graph(EnsembleSpec(200, d, "general", seed))
            assert count_cycles(g, 7) == brute_force_counts(g, 7), (d, seed)


def test_count_cycles_refuses_a_search_above_the_budget(monkeypatch):
    g = sample_graph(EnsembleSpec(1000, 3, "general", 1))
    # 1000 * 3 * 2**38 paths: refused before any walk or search
    monkeypatch.setattr(graphs_module, "_walk_tables", None)
    with pytest.raises(ResourceError, match="above the limit of 1e"):
        count_cycles(g, 40)
    # even a length whose power would be huge is refused at once
    with pytest.raises(ResourceError):
        count_cycles(g, 10**9)
    # on graphs of degree <= 2 the path bound lets any kmax through, so kmax
    # itself is capped before a count per length is allocated
    with pytest.raises(ResourceError, match="length 10001 is above the limit"):
        count_cycles(cycle_graph(9), graphs_module.MAX_CYCLE_LENGTH + 1)
    monkeypatch.undo()
    # the cycle census workload, n=1000, d=3, kmax=7, is far below it
    assert 1000 * 3 * 2**5 < MAX_CYCLE_PATHS // 1000
    assert sorted(count_cycles(g, 7)) == list(range(3, 8))
    # on 2-regular graphs the bound does not grow with kmax
    assert count_cycles(cycle_graph(9), 1000)[9] == 1


def test_count_cycles_on_complete_graphs():
    # K_n has C(n, k) * (k-1)!/2 cycles of length k; dense graphs are where
    # a path that repeats a vertex must be dropped at once
    for n in range(4, 10):
        expected = {k: math.comb(n, k) * math.factorial(k - 1) // 2 for k in range(3, n + 1)}
        assert count_cycles(complete_graph(n), n) == expected
    g = complete_graph(11)
    tracemalloc.start()
    try:
        counts = count_cycles(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[8] == math.comb(11, 8) * math.factorial(7) // 2
    assert peak < 4 * 2**20


def test_count_cycles_rejects_small_kmax():
    with pytest.raises(InputError):
        count_cycles(complete_graph(4), 2)


def test_two_regular_census_matches_components():
    # disjoint cycles: C5 + C7 built by relabeling
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    g = Graph.from_edges(12, edges)
    counts = count_cycles(g, 8)
    assert counts[5] == 1 and counts[7] == 1
    assert sum(counts.values()) == 2
    # a cycle longer than Python's recursion limit is one cycle too
    counts = count_cycles(cycle_graph(2000), 2000)
    assert counts[2000] == 1 and sum(counts.values()) == 1


# -------------------------------------------------------- tree fractions


def test_tree_fraction_on_trees_and_cliques():
    assert tree_edge_fraction(path_graph(6), 3) == 1.0
    assert tree_edge_fraction(build_canonical_tree(3, 2), 2) == 1.0
    assert tree_edge_fraction(complete_graph(4), 1) == 0.0


def test_tree_fraction_ring():
    # C6 at radius 1 is all paths; at radius 3 every ball closes the loop
    g = cycle_graph(6)
    assert tree_edge_fraction(g, 1) == 1.0
    assert tree_edge_fraction(g, 2) == 1.0
    assert tree_edge_fraction(g, 3) == 0.0


def test_tree_fraction_agrees_with_neighborhood_flags():
    g = sample_graph(EnsembleSpec(14, 3, "general", 9))
    for p in (1, 2):
        flags = [is_tree(edge_neighborhood(g, e, p)) for e in g.edges]
        assert tree_edge_fraction(g, p) == sum(flags) / g.m


# ------------------------------------------------------------- edge lists


def test_edgelist_round_trip(tmp_path):
    g = sample_graph(EnsembleSpec(12, 3, "bipartite", 3))
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    back = read_edgelist(path)
    assert back.n == g.n
    assert back.edges == g.edges
    assert back.bipartition == g.bipartition


def test_edgelist_rejects_malformed(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("2 2\n0 1\n0 1\n")
    with pytest.raises(InputError):
        read_edgelist(path)
    path.write_text("not a header\n")
    with pytest.raises(InputError):
        read_edgelist(path)
    with pytest.raises(InputError):
        read_edgelist(tmp_path / "missing.edges")
    for text, message in (
        ("\n\n", "empty edge-list file"),
        ("2 1\n0 1\nbipartition: 0x\n", "bipartition line must be a 0/1 string"),
        ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
    ):
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            read_edgelist(path)
