import importlib
import math

import numpy as np
import pytest

from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.optimize import (
    DEFAULT_BUDGET,
    _gradient,
    _TreeObjective,
    grid_search,
    optimize,
    refine,
)
from qaoa_locality.qaoa import CostModel, QaoaParams
from qaoa_locality.trees import TreePathSum, tree_expectation

MC = CostModel.maxcut()
MIS3 = CostModel.mis(3)

D3_P1_OPT = 0.5 + 1.0 / (3.0 * math.sqrt(3.0))  # triangle-free closed form


def test_search_domain_periods():
    assert MC.gamma_period == 2 * math.pi
    assert MIS3.gamma_period == 12 * math.pi
    with pytest.raises(InputError, match="depth must be nonnegative"):
        grid_search(3, -1, MC, resolution=64)


def test_grid_resolution_has_no_default():
    """optimize holds the one default resolution; grid_search needs one given."""
    with pytest.raises(TypeError, match="resolution"):
        grid_search(3, 1, MC)


def grid_angles(index, p, res, model):
    """Angles of a trace index: gammas outermost, each axis rising."""
    ks = np.unravel_index(index, (res,) * (2 * p))
    gammas = tuple(model.gamma_period * int(k) / res for k in ks[:p])
    betas = tuple(math.pi * int(k) / res for k in ks[p:])
    return QaoaParams(gammas, betas)


def test_grid_fast_path_matches_direct_evaluation():
    """The grid evaluates a whole row of betas per path-sum call; every
    trace value must equal the statevector on the tree, an independent
    engine."""
    for model, p, res in ((MC, 1, 6), (MIS3, 1, 6), (MC, 2, 3)):
        result = grid_search(3, p, model, resolution=res)
        assert result.trace.shape == (res ** (2 * p),)
        for index, value in enumerate(result.trace):
            want = tree_expectation(3, p, model, grid_angles(index, p, res, model)).value
            assert abs(value - want) < 1e-12


def test_grid_flat_landscape_breaks_ties_lexicographically():
    result = grid_search(2, 1, MC, resolution=2)
    assert all(abs(v - 0.5) < 1e-12 for v in result.trace)
    assert result.best_params == QaoaParams((0.0,), (0.0,))


def test_grid_tie_is_pinned():
    # recorded before the grid was one array: all four points tie exactly
    result = grid_search(2, 1, MC, resolution=2)
    assert result.trace.tolist() == [0.5000000000000004] * 4
    assert result.best_params == QaoaParams((0.0,), (0.0,))
    assert repr(result.best_value) == "0.5000000000000004"
    assert (result.evaluations, result.grid_resolution) == (4, 2)


# Tie counts as recorded; the MaxCut count at resolution 8 went from 1 to 2
# when the path sum went to fused slice factors: points 47 and 63, at
# gamma = 5pi/4 and 7pi/4 where sin(gamma) * cos(gamma)**2 is the same, now
# agree to the last bit.
@pytest.mark.parametrize(
    "model, initial, res, ties", [(MIS3, "zero", 64, 64), (MC, "plus", 8, 2), (MC, "plus", 2, 4)]
)
def test_grid_best_point_is_the_first_maximum(model, initial, res, ties):
    """The best point is the first maximum of the trace, whose index gives
    the angles, also where several points tie for the best value."""
    result = grid_search(3, 1, model, initial, resolution=res)
    top = np.flatnonzero(result.trace == result.trace.max())
    assert len(top) == ties
    assert result.best_params == grid_angles(top[0], 1, res, model)
    assert result.best_value == result.trace[top[0]]


def test_grid_contains_zero_angles():
    result = grid_search(3, 1, MC, resolution=2)
    assert result.best_value >= 0.5 - 1e-12


def test_grid_resolution_64_reaches_good_value():
    result = grid_search(3, 1, MC, resolution=64)
    assert result.best_value >= 0.69


def test_grid_budget_guardrail():
    with pytest.raises(ResourceError):
        grid_search(3, 2, MC, resolution=64, budget=DEFAULT_BUDGET)
    with pytest.raises(ResourceError):
        grid_search(3, 1, MC, resolution=64, budget=1000)
    with pytest.raises(InputError):
        grid_search(3, 1, MC, resolution=1)
    # 2.5 used to raise TypeError
    with pytest.raises(InputError):
        grid_search(3, 1, MC, resolution=2.5)
    with pytest.raises(InputError):
        optimize(3, 1, MC, resolution=2.5)
    with pytest.raises(InputError):
        optimize(3, "1", MC)


def test_budget_below_one_is_invalid_input():
    for budget in (0, -1):
        with pytest.raises(InputError, match=f"budget must be at least 1, got {budget}"):
            grid_search(3, 0, MC, resolution=2, budget=budget)
    # a budget of 1 still pays for the one point of a p=0 grid
    assert grid_search(3, 0, MC, resolution=2, budget=1).evaluations == 1


def test_grid_p0_single_evaluation():
    result = grid_search(3, 0, MC, resolution=64)
    assert result.best_params.p == 0
    assert abs(result.best_value - 0.5) < 1e-12
    assert len(result.trace) == 1
    # the single point is the one grid point; no objective call follows
    assert result.evaluations == 1


def test_refine_tolerance_one_returns_start():
    start = QaoaParams((0.3,), (0.2,))
    result = refine(start, 3, MC, tolerance=1.0)
    assert result.best_params == start
    assert result.refinement_iterations == 0
    assert result.converged


def test_refine_never_decreases():
    start = QaoaParams((3.7,), (2.7,))  # near the depth-1 optimum
    base = tree_expectation(3, 1, MC, start).value
    result = refine(start, 3, MC, tolerance=1e-6)
    assert result.best_value >= base - 1e-15
    assert abs(result.best_value - D3_P1_OPT) < 1e-3


def test_refine_iteration_cap_flags_non_convergence():
    start = QaoaParams((0.3,), (0.2,))
    result = refine(start, 3, MC, tolerance=1e-9, max_passes=2)
    assert not result.converged
    assert result.refinement_iterations == 2


def test_refine_validates_inputs():
    with pytest.raises(InputError):
        refine(QaoaParams((0.1,), (0.1,)), 3, MC, tolerance=0.0)


def fail_on_evaluation(monkeypatch):
    module = importlib.import_module("qaoa_locality.optimize")

    class Refusing(_TreeObjective):
        def value(self, gammas, betas):
            raise AssertionError("evaluated before the input check")

    monkeypatch.setattr(module, "_TreeObjective", Refusing)


def test_refine_refuses_a_nan_tolerance_before_it_evaluates(monkeypatch):
    fail_on_evaluation(monkeypatch)
    with pytest.raises(InputError, match="tolerance"):
        refine(QaoaParams((0.3,), (0.2,)), 3, MC, tolerance=float("nan"))


def test_refine_refuses_negative_max_passes_before_it_evaluates(monkeypatch):
    fail_on_evaluation(monkeypatch)
    with pytest.raises(InputError, match="max_passes"):
        refine(QaoaParams((0.3,), (0.2,)), 3, MC, max_passes=-1)
    # 2.5 used to run 3 passes
    with pytest.raises(InputError, match="max_passes"):
        refine(QaoaParams((0.3,), (0.2,)), 3, MC, max_passes=2.5)
    # no pass at all is allowed, and returns the start
    monkeypatch.undo()
    result = refine(QaoaParams((0.3,), (0.2,)), 3, MC, max_passes=0)
    assert result.best_params == QaoaParams((0.3,), (0.2,))
    assert (result.refinement_iterations, result.converged) == (0, False)


def test_refine_at_depth_zero_returns_the_start():
    start = QaoaParams((), ())
    result = refine(start, 3, MC)
    assert (result.best_params, result.refinement_iterations, result.converged) == (start, 0, True)
    assert result.evaluations == 1
    assert result.best_value == TreePathSum(3, 0, MC).value((), ())


def test_refine_stops_converged_when_no_step_gains(monkeypatch):
    """A kink at the start: the central differences see only the smooth
    slope, but every step along it falls, so the line search stalls and the
    start comes back, converged."""
    module = importlib.import_module("qaoa_locality.optimize")
    corner = (0.3, 0.2)

    class Kinked(_TreeObjective):
        def value(self, gammas, betas):
            gap = sum(abs(a - b) for a, b in zip((*gammas, *betas), corner))
            return super().value(gammas, betas) - 1e3 * gap

    monkeypatch.setattr(module, "_TreeObjective", Kinked)
    start = QaoaParams(corner[:1], corner[1:])
    result = refine(start, 3, MC)
    assert (result.best_params, result.refinement_iterations, result.converged) == (start, 0, True)
    assert result.best_value == TreePathSum(3, 1, MC).value(start.gammas, start.betas)


def test_angles_must_be_finite():
    """A NaN start used to run refine to converged=True with a NaN value."""
    for gammas, betas in (((math.nan,), (0.1,)), ((0.1, 0.2), (0.3, -math.inf))):
        with pytest.raises(InputError, match="angles must be finite"):
            QaoaParams(gammas, betas)


def test_refine_stops_unconverged_on_a_gradient_that_is_not_finite(monkeypatch):
    """NaN fails every comparison, so a NaN gradient would pass a test of
    ``max|grad| > tolerance`` as converged; it must not."""
    module = importlib.import_module("qaoa_locality.optimize")

    class NanProbes(_TreeObjective):
        def value(self, gammas, betas):
            return super().value(gammas, betas) if self.evaluations == 0 else math.nan

    monkeypatch.setattr(module, "_TreeObjective", NanProbes)
    start = QaoaParams((0.3,), (0.2,))
    result = refine(start, 3, MC)
    assert (result.best_params, result.refinement_iterations, result.converged) == (start, 0, False)
    assert math.isfinite(result.best_value)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gradient_matches_the_depth1_closed_form(d):
    """Central differences of the path sum against the derivatives of
    1/2 + 1/2 sin4b sing cos^(d-1)g, MaxCut on the d-regular tree."""
    rng = np.random.default_rng(d)
    obj = _TreeObjective(d, 1, MC)
    for gamma, beta in zip(rng.uniform(0, 2 * math.pi, 4), rng.uniform(0, math.pi, 4)):
        s, c = math.sin(gamma), math.cos(gamma)
        d_gamma = 0.5 * math.sin(4 * beta) * (c**d - (d - 1) * s * s * c ** (d - 2))
        d_beta = 2 * math.cos(4 * beta) * s * c ** (d - 1)
        grad = _gradient(obj, [gamma, beta], 1)
        assert grad == pytest.approx([d_gamma, d_beta], abs=1e-8, rel=0)
    assert obj.evaluations == 4 * 4  # two probes per partial, one schedule each


@pytest.mark.parametrize(
    "d, p, model, initial",
    [(3, 1, MC, "plus"), (3, 2, MC, "plus"), (5, 2, MC, "plus"), (3, 2, MIS3, "zero"),
     (5, 2, CostModel.mis(5), "plus")],
)
def test_refine_matches_scipy_bfgs(d, p, model, initial):
    """The same local maximum as scipy's BFGS on minus the path sum, from
    the grid's best point."""
    optimize_ = pytest.importorskip("scipy.optimize")
    start = grid_search(d, p, model, initial, resolution=16 if p > 1 else 64).best_params
    path_sum = TreePathSum(d, p, model, initial)
    oracle = optimize_.minimize(
        lambda x: -path_sum.value(x[:p], x[p:]),
        np.array(start.gammas + start.betas),
        method="BFGS", jac="3-point", options={"gtol": 1e-7},
    )
    result = refine(start, d, model, initial)
    assert result.converged
    assert abs(result.best_value - -oracle.fun) < 1e-9


# optimize's value at the last coordinate search, before refine went to BFGS
COORDINATE_SEARCH_VALUES = [
    (2, 1, "maxcut", "plus", 0.7500000000000009),
    (2, 1, "maxcut", "zero", 0.5),
    (2, 1, "mis", "plus", 0.13773717848264241),
    (2, 1, "mis", "zero", 0.06250000000000001),
    (2, 2, "maxcut", "plus", 0.8333333333333353),
    (2, 2, "maxcut", "zero", 0.6666666666666672),
    (2, 2, "mis", "plus", 0.18327931101206663),
    (2, 2, "mis", "zero", 0.1457043466633146),
    (3, 1, "maxcut", "plus", 0.6924500897298769),
    (3, 1, "maxcut", "zero", 0.5),
    (3, 1, "mis", "plus", 0.06318806620804915),
    (3, 1, "mis", "zero", 0.02777777777777775),
    (3, 2, "maxcut", "plus", 0.7463990843795165),
    (3, 2, "maxcut", "zero", 0.6140165976113638),
    (3, 2, "mis", "plus", 0.08842126322193695),
    (3, 2, "mis", "zero", 0.06687720891058402),
    (4, 1, "maxcut", "plus", 0.6623797632095844),
    (4, 1, "maxcut", "zero", 0.5),
    (4, 1, "mis", "plus", 0.03537580829966673),
    (4, 1, "mis", "zero", 0.015624999999999986),
    (4, 2, "maxcut", "plus", 0.7160916355093965),
    (4, 2, "maxcut", "zero", 0.5984711570744405),
    (4, 2, "mis", "plus", 0.03537591382885138),
    (4, 2, "mis", "zero", 0.01562500000000007),
    (5, 1, "maxcut", "plus", 0.6431083505599893),
    (5, 1, "maxcut", "zero", 0.5),
    (5, 1, "mis", "plus", 0.02219898700433874),
    (5, 1, "mis", "zero", 0.009999999999999993),
    (5, 2, "maxcut", "plus", 0.6806296203365012),
    (5, 2, "maxcut", "zero", 0.5902446634911881),
    (5, 2, "mis", "plus", 0.03514644613796531),
    (5, 2, "mis", "zero", 0.012508545815760145),
]

# The coordinate search stopped short of its basin's maximum in these cases.
RISES = {
    (3, 2, "maxcut", "plus"): 0.7464433,
    (5, 2, "maxcut", "plus"): 0.6818424,
    (5, 2, "mis", "plus"): 0.0352700,
    (5, 2, "mis", "zero"): 0.0127780,
}


def test_optimize_never_falls_below_the_coordinate_search():
    for d, p, name, initial, old in COORDINATE_SEARCH_VALUES:
        model = MC if name == "maxcut" else CostModel.mis(d)
        result = optimize(d, p, model, initial)
        case = (d, p, name, initial)
        assert result.converged, case
        assert result.best_value >= old - 1e-9, case
        if case in RISES:
            assert abs(result.best_value - RISES[case]) < 5e-8, case
        elif case == (4, 2, "mis", "plus"):
            assert result.best_value > old + 3e-8, case
        else:
            assert result.best_value < old + 1e-9, case


def test_optimize_depth1_known_values():
    result = optimize(3, 1, MC)
    assert abs(result.best_value - D3_P1_OPT) < 1e-9
    assert abs(optimize(2, 1, MC).best_value - 0.75) < 1e-9


def test_optimize_counts_grid_points_and_objective_calls(monkeypatch):
    module = importlib.import_module("qaoa_locality.optimize")
    built = []

    class Recording(_TreeObjective):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "_TreeObjective", Recording)
    result = optimize(2, 1, MC, resolution=8)
    # one objective per refinement start; the grid calls the path sum itself
    assert len(built) == 5
    calls = sum(obj.evaluations for obj in built)
    assert all(obj.evaluations > 0 for obj in built)
    assert result.evaluations == 8**2 + calls
    assert len(result.trace) == 8**2
    # the grid alone: every scanned point, and no objective call
    assert grid_search(3, 1, MC, resolution=4).evaluations == 4**2


def test_optimize_depth2_degree2_hits_five_sixths():
    # the degree-2 tree is a path, whose depth-p optimum follows the
    # ring progression (2p+1)/(2p+2): 3/4 at depth 1, 5/6 at depth 2
    result = optimize(2, 2, MC)
    assert abs(result.best_value - 5.0 / 6.0) < 1e-6


def test_optimize_monotone_in_depth():
    v0 = optimize(2, 0, MC).best_value
    v1 = optimize(2, 1, MC).best_value
    v2 = optimize(2, 2, MC).best_value
    assert v1 >= v0 - 1e-9
    assert v2 >= v1 - 1e-9


def test_optimize_zero_state_beats_zero_angles():
    for initial in ("plus", "zero"):
        base = tree_expectation(3, 1, MIS3, QaoaParams.zeros(1), initial).value
        result = optimize(3, 1, MIS3, initial)
        assert result.best_value >= base - 1e-12


def test_optimize_reported_value_reproducible():
    result = optimize(3, 1, MIS3)
    fresh = tree_expectation(3, 1, MIS3, result.best_params).value
    assert abs(result.best_value - fresh) < 1e-12


def test_optimize_periodicity_of_best_params():
    result = optimize(3, 1, MC)
    g0 = result.best_params.gammas[0]
    b0 = result.best_params.betas[0]
    shifted = tree_expectation(
        3, 1, MC, QaoaParams((g0 + MC.gamma_period,), (b0 + math.pi,))
    ).value
    assert abs(shifted - result.best_value) < 1e-10


def test_optimize_value_bounds():
    assert optimize(3, 1, MC).best_value <= 1.0 + 1e-12
    # per-edge independent-set cost is at most 1/(2d)
    assert optimize(3, 1, MIS3).best_value <= 1.0 / 6.0 + 1e-12


def test_optimize_deterministic():
    a = optimize(3, 1, MC)
    b = optimize(3, 1, MC)
    assert a.best_params == b.best_params
    assert a.best_value == b.best_value
