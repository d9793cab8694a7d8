import math
from collections import deque

import numpy as np
import pytest

from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.graphs import edge_neighborhood
from qaoa_locality.qaoa import CostModel, QaoaParams, expect_edges, run_qaoa
from qaoa_locality.trees import (
    build_canonical_tree,
    neighborhood_expectation,
    tree_expectation,
    tree_vertex_count,
)
from small_graphs import cycle_graph

MC = CostModel.maxcut()


def depths(tree):
    """Breadth-first distance of each vertex from the middle edge (0, 1)."""
    dist = [0, 0] + [None] * (tree.n - 2)
    queue = deque([0, 1])
    while queue:
        v = queue.popleft()
        for w in tree.adjacency[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def test_vertex_counts():
    # two (d-1)-ary trees of height p share the middle edge
    assert tree_vertex_count(3, 0) == 2
    assert tree_vertex_count(3, 1) == 6
    assert tree_vertex_count(3, 2) == 14
    assert tree_vertex_count(3, 3) == 30
    assert tree_vertex_count(2, 3) == 8
    assert tree_vertex_count(4, 2) == 26
    assert tree_vertex_count(np.int64(3), np.int32(2)) == 14
    # a float radius used to raise TypeError and a float degree to count
    # a fractional tree
    for d, p in ((3, 1.5), (3.5, 1), (True, 1), (3, -1)):
        with pytest.raises(InputError, match="(degree|radius) must be"):
            tree_vertex_count(d, p)


def test_structure_d3_p1():
    g = build_canonical_tree(3, 1)
    assert g.n == 6 and g.m == 5
    assert g.edges[0] == (0, 1)
    # middle endpoints have full degree, everything else is a leaf
    assert g.degree_of(0) == 3 and g.degree_of(1) == 3
    assert all(g.degree_of(v) == 1 for v in range(2, 6))
    assert depths(g) == [0, 0, 1, 1, 1, 1]


def test_structure_is_tree_and_degrees_interior():
    g = build_canonical_tree(3, 2)
    assert g.m == g.n - 1
    depth = depths(g)
    # numbered breadth first: depths never decrease along the labels
    assert depth == sorted(depth) and max(depth) == 2
    interior = [v for v in range(g.n) if depth[v] < 2]
    assert all(g.degree_of(v) == 3 for v in interior)
    assert all(g.degree_of(v) == 1 for v in range(g.n) if depth[v] == 2)


def test_depth_zero_tree_is_single_edge():
    tree = build_canonical_tree(5, 0)
    assert tree.n == 2 and tree.edges == [(0, 1)]


def test_qubit_cap_enforced():
    # the tree is only a graph; the cap applies to the register simulating it
    assert build_canonical_tree(3, 3).n == 30
    with pytest.raises(ResourceError) as err:
        tree_expectation(3, 3, MC, QaoaParams.zeros(3))
    assert "30" in str(err.value)
    with pytest.raises(InputError):
        build_canonical_tree(1, 1)
    with pytest.raises(InputError):
        build_canonical_tree(3, -1)


def test_side_swap_symmetry():
    """Both middle endpoints look identical, so swapping the roles of the
    two halves cannot change the expectation; check via edge reversal on a
    relabeled run."""
    params = QaoaParams((0.8,), (0.35,))
    tree = build_canonical_tree(3, 1)
    st = run_qaoa(tree, MC, params)
    v = expect_edges(st, [(0, 1)], MC)[0]
    assert abs(v - expect_edges(st, [(1, 0)], MC)[0]) == 0.0
    # relabel: swap vertex 0 and 1 and each subtree
    swapped_edges = []
    relabel = {0: 1, 1: 0, 2: 4, 3: 5, 4: 2, 5: 3}
    for u, w in tree.edges:
        a, b = relabel[u], relabel[w]
        swapped_edges.append((min(a, b), max(a, b)))
    from qaoa_locality.graphs import Graph

    g2 = Graph.from_edges(6, swapped_edges)
    st2 = run_qaoa(g2, MC, params)
    assert abs(expect_edges(st2, [(0, 1)], MC)[0] - v) < 1e-12


def test_tree_expectation_validates_depth():
    with pytest.raises(InputError):
        tree_expectation(3, 2, MC, QaoaParams((0.1,), (0.2,)))


def test_tree_expectation_refuses_an_mis_model_of_another_degree():
    """The statevector oracle refuses what the path sum it checks refuses;
    a bare ball takes any model."""
    params = QaoaParams((0.3,), (0.2,))
    with pytest.raises(InputError, match=r"mis\(5\) is defined on 5-regular graphs"):
        tree_expectation(3, 1, CostModel.mis(5), params)
    tree = build_canonical_tree(3, 1)
    want = tree_expectation(3, 1, CostModel.mis(3), params).value
    assert neighborhood_expectation(tree, CostModel.mis(3), params) == want
    assert math.isfinite(neighborhood_expectation(tree, CostModel.mis(5), params))


def test_tree_expectation_zero_angles():
    assert abs(tree_expectation(3, 1, MC, QaoaParams.zeros(1)).value - 0.5) < 1e-12
    mis = CostModel.mis(3)
    got = tree_expectation(3, 1, mis, QaoaParams.zeros(1)).value
    assert abs(got - (-1.0 / 12.0)) < 1e-12
    # zero initial state: no bit is ever set, so no edge is ever cut
    got = tree_expectation(3, 1, MC, QaoaParams.zeros(1), initial="zero").value
    assert got == 0.0


def test_tree_expectation_known_optimum():
    # depth-1 optimum on the 3-regular tree, from the triangle-free closed form
    gamma = 3.7570723526319734
    beta = 2.748893571891069
    got = tree_expectation(3, 1, MC, QaoaParams((gamma,), (beta,))).value
    assert abs(got - (0.5 + 1.0 / (3.0 * math.sqrt(3.0)))) < 1e-10


def test_neighborhood_expectation_on_ring():
    # C6 at p=1: every extracted ball is a 3-edge path; the middle edge of
    # that path must reproduce the full-ring edge expectation
    g = cycle_graph(6)
    params = QaoaParams((1.3,), (0.7,))
    st = run_qaoa(g, MC, params)
    for edge in g.edges:
        ball = edge_neighborhood(g, edge, 1)
        assert ball.m == ball.n - 1
        local = neighborhood_expectation(ball, MC, params)
        assert abs(local - expect_edges(st, [edge], MC)[0]) < 1e-12


def test_degree_two_tree_matches_ring_interior():
    # the d=2 canonical tree at p is a path; its middle edge matches a long
    # ring's edge expectation because both neighborhoods are the same path
    params = QaoaParams((0.9,), (0.4,))
    tree_value = tree_expectation(2, 1, MC, params).value
    ring = cycle_graph(8)
    st = run_qaoa(ring, MC, params)
    assert abs(tree_value - expect_edges(st, [(0, 1)], MC)[0]) < 1e-12
