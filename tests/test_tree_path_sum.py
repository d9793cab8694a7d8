import importlib
import math

import numpy as np
import pytest

from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.optimize import grid_search, refine
from qaoa_locality.qaoa import CostModel, QaoaParams
from qaoa_locality.trees import _GROUP, TreePathSum, tree_expectation, tree_vertex_count

MC = CostModel.maxcut()
STATEVECTOR_QUBITS = 14

# Every (d, p) whose canonical tree fits in 14 qubits: d=2 up to p=6, d=3 up
# to p=2, d=4..7 at p=1, and the single edge at p=0.
SMALL_TREES = [
    (d, p)
    for d in range(2, 8)
    for p in range(0, 7)
    if tree_vertex_count(d, p) <= STATEVECTOR_QUBITS
]


# The d=2 tree at p=7 and p=8 (16 and 18 qubits): its 15 and 17 slices need
# three and four groups, so the measured slice sits in a later group and, at
# p=8, the groups are narrower than _GROUP.
DEEP_PATHS = [(2, 7), (2, 8)]


def random_params(rng, model, p):
    gammas = rng.uniform(-model.gamma_period, model.gamma_period, p)
    betas = rng.uniform(-math.pi, math.pi, p)
    return QaoaParams(tuple(gammas), tuple(betas))


def test_small_trees_cover_the_degree_two_path_to_depth_six():
    assert [p for d, p in SMALL_TREES if d == 2] == list(range(7))
    assert (3, 2) in SMALL_TREES and (7, 1) in SMALL_TREES


def test_deep_paths_cross_group_boundaries():
    assert _GROUP == 5
    assert [tree_vertex_count(d, p) for d, p in DEEP_PATHS] == [16, 18]
    for (d, p), widths in zip(DEEP_PATHS, ([5, 5, 5], [5, 4, 4, 4])):
        assert [size.bit_length() - 1 for _, size in TreePathSum(d, p, MC)._blocks] == widths


@pytest.mark.parametrize("d,p", SMALL_TREES + DEEP_PATHS)
@pytest.mark.parametrize("initial", ["plus", "zero"])
def test_matches_statevector(d, p, initial):
    rng = np.random.default_rng(1000 * d + p)
    for model in (MC, CostModel.mis(d)):
        path_sum = TreePathSum(d, p, model, initial)
        for _ in range(3):
            params = random_params(rng, model, p)
            got = path_sum.value(params.gammas, params.betas)
            want = tree_expectation(d, p, model, params, initial).value
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("d", range(3, 21))
def test_depth_one_closed_form(d):
    rng = np.random.default_rng(d)
    path_sum = TreePathSum(d, 1, MC)
    for gamma, beta in rng.uniform(-math.pi, math.pi, (5, 2)):
        closed = 0.5 + 0.5 * math.sin(4 * beta) * math.sin(gamma) * math.cos(gamma) ** (d - 1)
        assert abs(path_sum.value((gamma,), (beta,)) - closed) < 1e-12


def assert_invariances(path_sum, model, params):
    """The value is unchanged by a gamma period or pi on any one layer, and
    by negating every angle."""
    gammas, betas = list(params.gammas), list(params.betas)
    base = path_sum.value(gammas, betas)
    assert 0.0 < abs(base) <= 1.0
    for k in range(params.p):
        shifted = list(gammas)
        shifted[k] += model.gamma_period
        assert abs(path_sum.value(shifted, betas) - base) < 1e-12
        shifted = list(betas)
        shifted[k] += math.pi
        assert abs(path_sum.value(gammas, shifted) - base) < 1e-12
    negated = path_sum.value([-g for g in gammas], [-b for b in betas])
    assert abs(negated - base) < 1e-12


@pytest.mark.parametrize("kind", ["maxcut", "mis"])
def test_invariances_beyond_the_qubit_cap(kind):
    # the d=3, p=3 tree has 30 qubits, above the statevector's cap of 26,
    # and the d=5, p=5 tree has 682
    assert tree_vertex_count(3, 3) == 30
    rng = np.random.default_rng(7 if kind == "maxcut" else 8)
    for d in (2, 3, 4, 5):
        model = MC if kind == "maxcut" else CostModel.mis(d)
        for p in range(1, 6):
            for initial in ("plus", "zero"):
                path_sum = TreePathSum(d, p, model, initial)
                for _ in range(2):
                    assert_invariances(path_sum, model, random_params(rng, model, p))


@pytest.mark.parametrize("kind", ["maxcut", "mis"])
@pytest.mark.parametrize("initial", ["plus", "zero"])
def test_invariances_at_depth_eight(kind, initial):
    # the d=3, p=8 tree has 1022 vertices; its 17 slices fall in four groups
    rng = np.random.default_rng(80 if kind == "maxcut" else 81)
    model = MC if kind == "maxcut" else CostModel.mis(3)
    assert_invariances(TreePathSum(3, 8, model, initial), model, random_params(rng, model, 8))


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("initial", ["plus", "zero"])
def test_batched_betas_match_scalar_calls(p, initial):
    rng = np.random.default_rng(50 + p)
    for model in (MC, CostModel.mis(3)):
        path_sum = TreePathSum(3, p, model, initial)
        gammas = rng.uniform(-model.gamma_period, model.gamma_period, p)
        columns = rng.uniform(-math.pi, math.pi, (p, 7))
        batched = path_sum.value(gammas, columns)
        assert batched.shape == (7,)
        for k in range(7):
            single = path_sum.value(gammas, columns[:, k])
            assert isinstance(single, float)
            assert abs(batched[k] - single) < 1e-14


def test_kept_weight_and_factors_give_a_fresh_instance_s_values():
    """Each value equals a fresh instance's bit for bit, whichever of the
    weight and the group factors the call before it left in place."""
    rng = np.random.default_rng(11)
    for d, p in ((3, 1), (3, 2), (3, 3), (2, 7)):
        for model in (MC, CostModel.mis(d)):
            kept = TreePathSum(d, p, model)
            g1, g2 = rng.uniform(-2, 2, (2, p))
            b1, b2 = rng.uniform(-2, 2, (2, p))
            columns = rng.uniform(-2, 2, (p, 5))
            calls = [
                (g1, b1), (g2, b1), (g2, b2), (g1, b2), (g1, b2),  # one axis at a time
                (g1, columns), (g1, columns[:, 3]), (g2, columns), (g2, columns[:, 0]),
            ]
            for gammas, betas in calls:
                got = kept.value(gammas, betas)
                want = TreePathSum(d, p, model).value(gammas, betas)
                assert np.array_equal(got, want)


def test_betas_changed_in_place_are_read_again():
    path_sum = TreePathSum(3, 2, MC)
    gammas, betas = np.array([0.4, 0.9]), np.array([0.5, 0.3])
    first = path_sum.value(gammas, betas)
    betas[1] = 0.1
    gammas[0] = 0.2
    assert path_sum.value(gammas, betas) == TreePathSum(3, 2, MC).value([0.2, 0.9], [0.5, 0.1])
    assert path_sum.value(gammas, betas) != first
    columns = np.array([[0.5, 0.6], [0.3, 0.2]])
    path_sum.value(gammas, columns)
    columns[0, 1] = 0.7
    again = path_sum.value(gammas, columns)
    assert np.array_equal(again, TreePathSum(3, 2, MC).value(gammas, [[0.5, 0.7], [0.3, 0.2]]))


def test_optimizer_runs_beyond_the_qubit_cap(monkeypatch):
    # the d=3, p=3 tree has 30 qubits; the optimizer never builds it
    monkeypatch.setattr(importlib.import_module("qaoa_locality.optimize"), "_TOLERANCE", 1e-3)
    tree = TreePathSum(3, 3, MC)
    grid = grid_search(tree, resolution=3)
    assert len(grid.trace) == 2**3 * 3**3  # 2 of 3 gammas below the half period
    start = grid.best_params
    refined = refine(start, tree)
    assert refined.best_value >= TreePathSum(3, 3, MC).value(start.gammas, start.betas)
    assert refined.best_value >= grid.best_value - 1e-12


def test_zero_angles_and_single_edge():
    assert abs(TreePathSum(3, 2, MC).value((0.0, 0.0), (0.0, 0.0)) - 0.5) < 1e-12
    assert TreePathSum(3, 1, MC, "zero").value((0.4,), (0.0,)) == 0.0
    assert abs(TreePathSum(4, 0, CostModel.mis(4)).value((), ()) - (-1.0 / 8.0)) < 1e-12


def test_validates_inputs():
    with pytest.raises(InputError):
        TreePathSum(1, 1, MC)
    with pytest.raises(InputError):
        TreePathSum(3, -1, MC)
    # 2.5 used to value the d=2 tree
    with pytest.raises(InputError):
        TreePathSum(2.5, 1, MC)
    with pytest.raises(InputError):
        TreePathSum(3, 1.0, MC)
    with pytest.raises(InputError):
        TreePathSum(3, 1, MC, "minus")
    with pytest.raises(InputError):
        TreePathSum(3, 2, MC).value((0.1,), (0.2,))


def test_refuses_a_gamma_batch():
    # only betas carry a batch; gammas must be p numbers
    path_sum = TreePathSum(3, 1, MC)
    for gammas in (np.zeros((1, 2)), np.zeros((2, 1)), 0.3, [[0.3]], ()):
        with pytest.raises(InputError, match="1 gammas"):
            path_sum.value(gammas, (0.2,))
    for betas in (0.2, (), np.zeros((2, 3))):
        with pytest.raises(InputError):
            path_sum.value((0.3,), betas)


def test_weight_size_is_capped_before_allocation():
    # one schedule at p=12 holds 2**25 entries, the most the cap allows
    with pytest.raises(ResourceError) as err:
        TreePathSum(2, 13, MC)
    assert "p=13" in str(err.value)
    path_sum = TreePathSum(2, 12, MC)
    with pytest.raises(ResourceError) as err:
        path_sum.value((0.1,) * 12, np.zeros((12, 2)))
    assert "2 x 2**25" in str(err.value)
    # within the default budget, but 2**9 beta columns of 2**19 entries each
    with pytest.raises(ResourceError):
        grid_search(TreePathSum(2, 9, MC), resolution=2)
