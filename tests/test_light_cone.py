"""LightConeSum: exact graph totals from per-edge balls, checked against the
full statevector, and the callers that use it."""
import numpy as np
import pytest

from qaoa_locality import trees
from qaoa_locality.errors import InputError
from qaoa_locality.experiments import end_to_end, ensemble_equivalence
from qaoa_locality.graphs import EnsembleSpec, edge_neighborhood, sample_graph
from qaoa_locality.qaoa import CostModel, QaoaParams, expect_total, run_qaoa
from qaoa_locality.trees import LightConeSum, TreePathSum
from small_graphs import cycle_graph, path_graph

MC = CostModel.maxcut()
MIS3 = CostModel.mis(3)


def random_params(model, p, rng):
    gammas = tuple(rng.uniform(0.0, model.gamma_period, size=p))
    betas = tuple(rng.uniform(0.0, np.pi, size=p))
    return QaoaParams(gammas, betas)


def spy_on_run_qaoa(monkeypatch):
    """Record the graphs that LightConeSum simulates."""
    seen = []

    def spy(g, *args, **kwargs):
        seen.append(g)
        return run_qaoa(g, *args, **kwargs)

    monkeypatch.setattr(trees, "run_qaoa", spy)
    return seen


def equivalent_schedules(model, params):
    """Schedules with the same expectations as ``params``: a full gamma
    period on one layer, beta + pi on one layer, and every angle negated."""
    gammas, betas = list(params.gammas), list(params.betas)
    out = [QaoaParams([-x for x in gammas], [-x for x in betas])]
    for k in range(params.p):
        shifted = list(gammas)
        shifted[k] += model.gamma_period
        out.append(QaoaParams(shifted, betas))
        shifted = list(betas)
        shifted[k] += np.pi
        out.append(QaoaParams(gammas, shifted))
    return out


@pytest.mark.parametrize("kind", ["general", "bipartite"])
@pytest.mark.parametrize("initial", ["plus", "zero"])
@pytest.mark.parametrize("model", [MC, MIS3], ids=["maxcut", "mis3"])
def test_total_matches_statevector(model, initial, kind, monkeypatch):
    seen = spy_on_run_qaoa(monkeypatch)
    rng = np.random.default_rng(17)
    tree_balls = cycle_balls = 0
    for p in (0, 1, 2):
        light_cone = LightConeSum(3, model, random_params(model, p, rng), initial)
        moved = [
            LightConeSum(3, model, params, initial)
            for params in equivalent_schedules(model, light_cone.params)
        ]
        for n in (10, 14):
            for seed in range(2):
                g = sample_graph(EnsembleSpec(n, 3, kind, 100 * n + seed))
                total, tree_edges = light_cone.total(g)
                # only balls were simulated, never the graph itself
                assert all(h is not g for h in seen)
                state = run_qaoa(g, model, light_cone.params, initial)
                assert abs(total - expect_total(state, g, model)) < 1e-12
                tree_balls += tree_edges
                cycle_balls += g.m - tree_edges
                # the invariances hold for the balls with a cycle too
                if tree_edges < g.m:
                    for other in moved:
                        assert abs(other.total(g)[0] - total) < 1e-10, other.params
    # both kinds of ball were summed, not only the tree value
    assert tree_balls > 0 and cycle_balls > 0


def test_ball_shapes_are_simulated_once(monkeypatch):
    seen = spy_on_run_qaoa(monkeypatch)
    light_cone = LightConeSum(2, MC, QaoaParams((0.9, 0.3), (0.4, 1.2)))
    # at p=2 every edge of a 5-cycle has the whole cycle as its ball, under
    # the same relabelling; it is simulated once, for the first graph only
    ring = cycle_graph(5)
    for _ in range(2):
        total, tree_edges = light_cone.total(ring)
        assert tree_edges == 0
    assert len(seen) == 1 and seen[0] is not ring
    state = run_qaoa(ring, MC, light_cone.params)
    assert abs(total - expect_total(state, ring, MC)) < 1e-12


def test_only_balls_with_a_cycle_are_built(monkeypatch):
    built = []

    def spy(g, edge, radius):
        ball = edge_neighborhood(g, edge, radius)
        built.append((edge, ball.m == ball.n - 1))
        return ball

    monkeypatch.setattr(trees, "edge_neighborhood", spy)
    rng = np.random.default_rng(5)
    for p in (1, 2):
        light_cone = LightConeSum(3, MC, random_params(MC, p, rng))
        for seed in range(3):
            g = sample_graph(EnsembleSpec(30, 3, "general", seed))
            built.clear()
            _, tree_edges = light_cone.total(g)
            assert len(built) == g.m - tree_edges
            assert not any(is_tree for _, is_tree in built)
            # still in edge order, so the sum adds in the same order
            assert [edge for edge, _ in built] == sorted(edge for edge, _ in built)


def test_tree_balls_use_the_path_sum():
    params = QaoaParams((0.7, 1.3), (0.2, 0.6))
    mis2 = CostModel.mis(2)
    light_cone = LightConeSum(2, mis2, params, "zero")
    assert light_cone.tree_value == TreePathSum(2, 2, mis2, "zero").value(
        params.gammas, params.betas
    )
    total, tree_edges = light_cone.total(cycle_graph(40))
    assert tree_edges == 40
    assert total == 40 * light_cone.tree_value


def test_rejects_irregular_graphs():
    with pytest.raises(InputError, match="3-regular"):
        LightConeSum(3, MC, QaoaParams.zeros(1)).total(path_graph(5))


def test_bipartite_mean_is_the_tree_value_at_p1():
    params = QaoaParams((0.9,), (0.5,))
    for model in (MC, MIS3):
        report = ensemble_equivalence([12, 16], 3, 1, model, params, trials=3, seed=2)
        results = report["results"]
        for row in results["series"]:
            assert row["bipartite_nontree_fraction"] == 0.0
            assert abs(row["bipartite_mean"] - results["tree_value"]) < 1e-12


def test_equivalence_beyond_the_qubit_cap():
    # n=200 needs 2**200 amplitudes whole; its balls hold at most 14 vertices
    params = QaoaParams((0.5, 0.9), (0.55, 0.29))
    report = ensemble_equivalence([200], 3, 2, MC, params, trials=2, seed=1)
    results = report["results"]
    row = results["series"][0]
    assert row["general_nontree_fraction"] < 0.2
    assert row["bipartite_nontree_fraction"] < 0.2
    assert abs(row["general_mean"] - results["tree_value"]) < 0.01
    assert results["all_within_bands"]


def test_maxcut_end_to_end_beyond_the_qubit_cap():
    spec = EnsembleSpec(40, 3, "general", 5)
    report = end_to_end(spec, 1, MC, seed=5, trials=2, samples=0)
    simulation = report["results"]["simulation"]
    assert simulation["trials"] == 2
    # 40-vertex graphs at p=1 are nearly locally tree-like
    assert simulation["mean_nontree_fraction"] < 0.2
    tree_value = report["results"]["prediction"]["tree_value"]
    assert abs(simulation["mean_per_edge"] - tree_value) < 0.05
