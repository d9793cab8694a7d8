"""An exact p=1 MaxCut oracle for every edge of any graph.

Wang, Hadfield, Jiang & Rieffel (arXiv:1706.02998) give the p=1 value of an
edge from its endpoint degrees d_u, d_v and the number t of triangles
through it, with no simulation:

    1/2 + 1/4 sin(4b) sin(g) (cos^(d_u-1) g + cos^(d_v-1) g)
        - 1/4 sin^2(2b) cos^(d_u+d_v-2-2t) g (1 - cos^t (2g)).

It is checked here against the whole-graph statevector, the edge's radius-1
ball and, with no triangle on a regular graph, the tree path sum.
"""
import math

import networkx as nx
import numpy as np
import pytest

from qaoa_locality.graphs import EnsembleSpec, Graph, edge_neighborhood, sample_graph
from qaoa_locality.qaoa import CostModel, QaoaParams, expect_edges, run_qaoa
from qaoa_locality.trees import TreePathSum, neighborhood_expectation

MC = CostModel.maxcut()


def p1_edge_value(d_u: int, d_v: int, triangles: int, gamma: float, beta: float) -> float:
    c = math.cos(gamma)
    return (
        0.5
        + 0.25 * math.sin(4 * beta) * math.sin(gamma) * (c ** (d_u - 1) + c ** (d_v - 1))
        - 0.25
        * math.sin(2 * beta) ** 2
        * c ** (d_u + d_v - 2 - 2 * triangles)
        * (1 - math.cos(2 * gamma) ** triangles)
    )


def closed_form(g: Graph, edge, gamma: float, beta: float) -> float:
    u, v = edge
    triangles = len(set(g.adjacency[u]) & set(g.adjacency[v]))
    return p1_edge_value(len(g.adjacency[u]), len(g.adjacency[v]), triangles, gamma, beta)


def oracle_graphs():
    """Sampled d-regular graphs at d = 2..6, whose edges carry 0 to d-1
    triangles, and irregular G(n, m) graphs, whose endpoint degrees differ."""
    graphs = [
        sample_graph(EnsembleSpec(n, d, "general", 10 * d + n))
        for d in range(2, 7)
        for n in (12, 14)
    ]
    graphs += [
        Graph.from_edges(10, list(nx.gnm_random_graph(10, m, seed=m).edges()))
        for m in (9, 17, 26)
    ]
    return graphs


GRAPHS = oracle_graphs()


def random_angles(rng):
    return float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.0, math.pi))


def test_the_graphs_reach_several_triangle_counts_and_unequal_degrees():
    triangles = set()
    unequal = 0
    for g in GRAPHS:
        for u, v in g.edges:
            triangles.add(len(set(g.adjacency[u]) & set(g.adjacency[v])))
            unequal += len(g.adjacency[u]) != len(g.adjacency[v])
    assert {0, 1, 2, 3} <= triangles
    assert unequal > 0


@pytest.mark.parametrize("index", range(len(GRAPHS)))
def test_matches_the_statevector_on_every_edge(index):
    g = GRAPHS[index]
    rng = np.random.default_rng(index)
    for _ in range(2):
        gamma, beta = random_angles(rng)
        state = run_qaoa(g, MC, QaoaParams((gamma,), (beta,)))
        values = expect_edges(state, g.edges, MC)
        for edge, value in zip(g.edges, values):
            assert abs(value - closed_form(g, edge, gamma, beta)) < 1e-13


@pytest.mark.parametrize("index", range(len(GRAPHS)))
def test_matches_each_edge_ball(index):
    g = GRAPHS[index]
    rng = np.random.default_rng(100 + index)
    gamma, beta = random_angles(rng)
    params = QaoaParams((gamma,), (beta,))
    for edge in g.edges:
        ball = edge_neighborhood(g, edge, 1)
        value = neighborhood_expectation(ball, MC, params)
        assert abs(value - closed_form(g, edge, gamma, beta)) < 1e-13


def test_matches_the_tree_path_sum_without_triangles():
    rng = np.random.default_rng(7)
    for d in range(2, 21):
        path_sum = TreePathSum(d, 1, MC)
        for _ in range(3):
            gamma, beta = random_angles(rng)
            value = path_sum.value((gamma,), (beta,))
            assert abs(value - p1_edge_value(d, d, 0, gamma, beta)) < 1e-13
