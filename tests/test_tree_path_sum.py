import math

import numpy as np
import pytest

from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.optimize import grid_search, refine
from qaoa_locality.qaoa import CostModel, QaoaParams
from qaoa_locality.trees import TreePathSum, tree_expectation, tree_vertex_count

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


def random_params(rng, model, p):
    gammas = rng.uniform(-model.gamma_period, model.gamma_period, p)
    betas = rng.uniform(-math.pi, math.pi, p)
    return QaoaParams(tuple(gammas), tuple(betas))


def test_small_trees_cover_the_degree_two_path_to_depth_six():
    assert [p for d, p in SMALL_TREES if d == 2] == list(range(7))
    assert (3, 2) in SMALL_TREES and (7, 1) in SMALL_TREES


@pytest.mark.parametrize("d,p", SMALL_TREES)
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
                    params = random_params(rng, model, p)
                    gammas, betas = list(params.gammas), list(params.betas)
                    base = path_sum.value(gammas, betas)
                    assert 0.0 < abs(base) <= 1.0
                    for k in range(p):
                        shifted = list(gammas)
                        shifted[k] += model.gamma_period
                        assert abs(path_sum.value(shifted, betas) - base) < 1e-12
                        shifted = list(betas)
                        shifted[k] += math.pi
                        assert abs(path_sum.value(gammas, shifted) - base) < 1e-12
                    negated = path_sum.value([-g for g in gammas], [-b for b in betas])
                    assert abs(negated - base) < 1e-12


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


def test_optimizer_runs_beyond_the_qubit_cap():
    # the d=3, p=3 tree has 30 qubits; the optimizer never builds it
    grid = grid_search(3, 3, MC, resolution=3)
    assert len(grid.trace) == 3**6
    start = grid.best_params
    refined = refine(start, 3, 3, MC, tolerance=1e-3)
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
    with pytest.raises(InputError):
        TreePathSum(3, 1, MC, "minus")
    with pytest.raises(InputError):
        TreePathSum(3, 2, MC).value((0.1,), (0.2,))


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
        grid_search(2, 9, MC, resolution=2)
