import importlib
import math

import numpy as np
import pytest

from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.optimize import (
    DEFAULT_BUDGET,
    _canonical,
    _gradient,
    _starts,
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
    with pytest.raises(InputError, match="radius must be nonnegative"):
        grid_search(TreePathSum(3, -1, MC), resolution=64)


def test_grid_resolution_has_no_default():
    """optimize holds the one default resolution; grid_search needs one given."""
    with pytest.raises(TypeError, match="resolution"):
        grid_search(TreePathSum(3, 1, MC))


# The tree value's own periods (T_gamma, T_beta) per model kind.
PERIODS = {"maxcut": (2 * math.pi, math.pi / 2), "mis": (4 * math.pi, math.pi)}


def box_shape(p, res, initial="plus"):
    """Points per axis of the grid's box: gammas below half their period,
    gamma_1 = 0 alone from "zero", then the betas over a whole period."""
    gammas = [1 if initial == "zero" and k == 0 else (res + 1) // 2 for k in range(p)]
    return gammas + [res] * p


def grid_angles(index, p, res, model, initial="plus"):
    """Angles of a trace index: gammas outermost, each axis rising."""
    ks = np.unravel_index(index, box_shape(p, res, initial))
    t_gamma, t_beta = PERIODS[model.kind]
    gammas = tuple(t_gamma * int(k) / res for k in ks[:p])
    betas = tuple(t_beta * int(k) / res for k in ks[p:])
    return QaoaParams(gammas, betas)


def test_grid_fast_path_matches_direct_evaluation():
    """The grid evaluates a whole row of betas per path-sum call; every
    trace value must equal the statevector on the tree, an independent
    engine."""
    for model, p, res, initial in (
        (MC, 1, 6, "plus"), (MIS3, 1, 6, "plus"), (MC, 2, 3, "plus"), (MIS3, 2, 3, "zero"),
    ):
        result = grid_search(TreePathSum(3, p, model, initial), resolution=res)
        assert result.trace.shape == (math.prod(box_shape(p, res, initial)),)
        for index, value in enumerate(result.trace):
            params = grid_angles(index, p, res, model, initial)
            want = tree_expectation(3, p, model, params, initial).value
            assert abs(value - want) < 1e-12


def test_grid_flat_landscape_breaks_ties_lexicographically():
    result = grid_search(TreePathSum(2, 1, MC), resolution=2)
    assert all(abs(v - 0.5) < 1e-12 for v in result.trace)
    assert result.best_params == QaoaParams((0.0,), (0.0,))


def test_grid_tie_is_pinned():
    # recorded before the grid was one array: all four points tie exactly;
    # the box holds two of them, gamma = 0 and beta = 0 or pi/4
    result = grid_search(TreePathSum(2, 1, MC), resolution=2)
    assert result.trace.tolist() == [0.5000000000000004] * 2
    assert result.best_params == QaoaParams((0.0,), (0.0,))
    assert repr(result.best_value) == "0.5000000000000004"
    assert (result.evaluations, result.grid_resolution) == (2, 2)


# Tie counts as recorded. At MaxCut resolution 8 two points agree to the last
# bit since the path sum went to fused slice factors: in the box they are
# points 10 and 26, at beta = pi/8 and gamma = pi/4 and 3pi/4, where
# sin(gamma) * cos(gamma)**2 is the same. From "zero" the box holds gamma_1 =
# 0 alone, so the 64 mis(3) points that tied over gamma_1 are one; at
# resolution 2 the box holds two of the four tied points.
@pytest.mark.parametrize(
    "model, initial, res, ties", [(MIS3, "zero", 64, 1), (MC, "plus", 8, 2), (MC, "plus", 2, 2)]
)
def test_grid_best_point_is_the_first_maximum(model, initial, res, ties):
    """The best point is the first maximum of the trace, whose index gives
    the angles, also where several points tie for the best value."""
    result = grid_search(TreePathSum(3, 1, model, initial), resolution=res)
    top = np.flatnonzero(result.trace == result.trace.max())
    assert len(top) == ties
    assert result.best_params == grid_angles(top[0], 1, res, model, initial)
    assert result.best_value == result.trace[top[0]]


def test_grid_contains_zero_angles():
    result = grid_search(TreePathSum(3, 1, MC), resolution=2)
    assert result.best_value >= 0.5 - 1e-12


def test_grid_resolution_64_reaches_good_value():
    result = grid_search(TreePathSum(3, 1, MC), resolution=64)
    assert result.best_value >= 0.69


def test_grid_budget_guardrail():
    with pytest.raises(ResourceError):
        grid_search(TreePathSum(3, 2, MC), resolution=64, budget=DEFAULT_BUDGET)
    with pytest.raises(ResourceError):
        grid_search(TreePathSum(3, 1, MC), resolution=64, budget=1000)
    with pytest.raises(InputError):
        grid_search(TreePathSum(3, 1, MC), resolution=1)
    # 2.5 used to raise TypeError
    with pytest.raises(InputError):
        grid_search(TreePathSum(3, 1, MC), resolution=2.5)
    with pytest.raises(InputError):
        optimize(3, 1, MC, resolution=2.5)
    with pytest.raises(InputError):
        optimize(3, "1", MC)


def test_budget_below_one_is_invalid_input():
    for budget in (0, -1):
        with pytest.raises(InputError, match=f"budget must be at least 1, got {budget}"):
            grid_search(TreePathSum(3, 0, MC), resolution=2, budget=budget)
    # a budget of 1 still pays for the one point of a p=0 grid
    assert grid_search(TreePathSum(3, 0, MC), resolution=2, budget=1).evaluations == 1


def test_grid_p0_single_evaluation():
    result = grid_search(TreePathSum(3, 0, MC), resolution=64)
    assert result.best_params.p == 0
    assert abs(result.best_value - 0.5) < 1e-12
    assert len(result.trace) == 1
    # the single point is the one grid point; no objective call follows
    assert result.evaluations == 1


def test_refine_tolerance_one_returns_start(monkeypatch):
    monkeypatch.setattr(importlib.import_module("qaoa_locality.optimize"), "_TOLERANCE", 1.0)
    start = QaoaParams((0.3,), (0.2,))
    result = refine(start, TreePathSum(3, 1, MC))
    assert result.best_params == start
    assert result.refinement_iterations == 0
    assert result.converged


def test_refine_never_decreases():
    start = QaoaParams((3.7,), (2.7,))  # near the depth-1 optimum
    base = tree_expectation(3, 1, MC, start).value
    result = refine(start, TreePathSum(3, 1, MC))
    assert result.best_value >= base - 1e-15
    assert abs(result.best_value - D3_P1_OPT) < 1e-3


def test_refine_iteration_cap_flags_non_convergence(monkeypatch):
    module = importlib.import_module("qaoa_locality.optimize")
    monkeypatch.setattr(module, "_TOLERANCE", 1e-9)
    monkeypatch.setattr(module, "_MAX_PASSES", 2)
    start = QaoaParams((0.3,), (0.2,))
    result = refine(start, TreePathSum(3, 1, MC))
    assert not result.converged
    assert result.refinement_iterations == 2
    # no pass at all returns the start
    monkeypatch.setattr(module, "_MAX_PASSES", 0)
    result = refine(start, TreePathSum(3, 1, MC))
    assert result.best_params == start
    assert (result.refinement_iterations, result.converged) == (0, False)


def test_refine_validates_inputs(monkeypatch):
    """A start of another depth than the tree's is refused before any
    evaluation: the tree, not the start, sets the depth."""
    fail_on_evaluation(monkeypatch)
    for depth in (0, 2):
        start = QaoaParams.zeros(depth)
        with pytest.raises(InputError, match=f"start depth {depth} must equal the tree's radius 1"):
            refine(start, TreePathSum(3, 1, MC))


def fail_on_evaluation(monkeypatch):
    module = importlib.import_module("qaoa_locality.optimize")

    class Refusing(_TreeObjective):
        def value(self, gammas, betas):
            raise AssertionError("evaluated before the input check")

    monkeypatch.setattr(module, "_TreeObjective", Refusing)


def test_refine_at_depth_zero_returns_the_start():
    start = QaoaParams((), ())
    result = refine(start, TreePathSum(3, 0, MC))
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
    result = refine(start, TreePathSum(3, 1, MC))
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
    result = refine(start, TreePathSum(3, 1, MC))
    assert (result.best_params, result.refinement_iterations, result.converged) == (start, 0, False)
    assert math.isfinite(result.best_value)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gradient_matches_the_depth1_closed_form(d):
    """Central differences of the path sum against the derivatives of
    1/2 + 1/2 sin4b sing cos^(d-1)g, MaxCut on the d-regular tree."""
    rng = np.random.default_rng(d)
    obj = _TreeObjective(TreePathSum(d, 1, MC))
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
    path_sum = TreePathSum(d, p, model, initial)
    start = grid_search(path_sum, resolution=16 if p > 1 else 64).best_params
    oracle = optimize_.minimize(
        lambda x: -path_sum.value(x[:p], x[p:]),
        np.array(start.gammas + start.betas),
        method="BFGS", jac="3-point", options={"gtol": 1e-7},
    )
    result = refine(start, path_sum)
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

# optimize's value where it is not the coordinate search's to 1e-9. The BFGS
# refine climbed to the top of the coordinate search's basin at d=5 MaxCut
# and mis(5) `zero`; the distinct starts in the box of the angle symmetries
# reach higher basins in all seven cases but one.
MOVED = {
    (3, 2, "maxcut", "plus"): 0.7559064585,  # the published p=2 optimum
    (3, 2, "mis", "plus"): 0.0893793156,
    (4, 2, "mis", "plus"): 0.0529501823,
    (4, 2, "mis", "zero"): 0.0392440763,
    (5, 2, "maxcut", "plus"): 0.6907089419,
    (5, 2, "mis", "plus"): 0.0340728763,
    (5, 2, "mis", "zero"): 0.0213678706,
}
# The one fall: this basin lies at gamma ~ (0.460, 4.803), beta ~ (1.993,
# 1.766), between the box's gamma lattice points, and the whole-torus grid
# reached it by aliasing.
FELL = (5, 2, "mis", "plus")


def test_optimize_against_the_coordinate_search():
    for d, p, name, initial, old in COORDINATE_SEARCH_VALUES:
        model = MC if name == "maxcut" else CostModel.mis(d)
        result = optimize(d, p, model, initial)
        case = (d, p, name, initial)
        assert result.converged, case
        assert abs(result.best_value - MOVED.get(case, old)) < 1e-9, case
        assert (result.best_value >= old - 1e-9) == (case != FELL), case


def test_optimize_depth2_reaches_the_published_optimum():
    """The five starts used to be one basin, whose top 0.7464433 missed
    the p=2 optimum of Farhi, Goldstone & Gutmann (arXiv:1411.4028)."""
    assert optimize(3, 2, MC).best_value >= 0.755906458453 - 1e-6


def test_optimize_finds_the_higher_mis4_basin():
    """A local maximum 0.0366082144 lay above the old search's 0.0353759."""
    assert optimize(4, 2, CostModel.mis(4), "plus").best_value > 0.0366082144


def test_the_default_mis4_grid_is_not_flat():
    """Over the old gamma period 16*pi, 16 points stepped gamma by pi and
    every point read -0.125 to 1.4e-14; the tree value's period is 4*pi."""
    trace = grid_search(TreePathSum(4, 2, CostModel.mis(4), "plus"), resolution=16).trace
    assert trace.max() - trace.min() > 1e-11


@pytest.mark.parametrize("name", ["maxcut", "mis"])
def test_default_grids_scan_one_box(name):
    """A count guard in place of a timing test: a return to the whole torus
    (4**p times as many points from "plus") fails here."""
    model = MC if name == "maxcut" else MIS3
    sizes = {(p, initial): len(optimize(3, p, model, initial).trace)
             for p in (1, 2) for initial in ("plus", "zero")}
    assert sizes == {(1, "plus"): 2048, (1, "zero"): 64, (2, "plus"): 16384, (2, "zero"): 2048}
    # the budget counts box points, not resolution**(2p)
    assert grid_search(TreePathSum(3, 2, model), resolution=16, budget=16384).evaluations == 16384
    with pytest.raises(ResourceError, match="grid of 16384 evaluations"):
        grid_search(TreePathSum(3, 2, model), resolution=16, budget=16383)


def test_the_budget_is_checked_before_the_grid_is_built(monkeypatch):
    """An oversized box is refused from its axis lengths alone: at a
    resolution of 10**12 the axes would hold 10**12 floats."""
    module = importlib.import_module("qaoa_locality.optimize")

    def unbuilt(*args):
        raise AssertionError("axes built before the budget check")

    monkeypatch.setattr(module, "_box_axes", unbuilt)
    with pytest.raises(ResourceError, match=f"grid of {5 * 10**23} evaluations"):
        grid_search(TreePathSum(3, 1, MC), resolution=10**12)
    with pytest.raises(ResourceError, match=f"grid of {10**12} evaluations"):
        grid_search(TreePathSum(3, 1, MC, "zero"), resolution=10**12)


def shifted(gammas, betas, k, gamma=0.0, beta=0.0, negate=False):
    """Add ``gamma`` to gamma_k and ``beta`` to beta_k; ``negate`` flips
    the sign of every beta_j, j >= k."""
    gammas, betas = list(gammas), list(betas)
    gammas[k] += gamma
    betas[k] += beta
    if negate:
        betas[k:] = [-b for b in betas[k:]]
    return gammas, betas


@pytest.mark.parametrize("name", ["maxcut", "mis"])
@pytest.mark.parametrize("initial", ["plus", "zero"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_angle_symmetry_generators(d, initial, name):
    """Every generator of the angle symmetries holds on the path sum, at
    p = 1..4 and 20 random schedules each, to 1e-12, and ``_canonical``
    maps each schedule into the box at an equal value. From "zero" the
    value also keeps every gamma with every beta negated (a product of all
    Z fixes the initial state and flips each mixer); the box does not halve
    on it yet."""
    model = MC if name == "maxcut" else CostModel.mis(d)
    period, beta_period = PERIODS[name]
    negates, free = name == "mis" or d % 2 == 1, initial == "zero"
    rng = np.random.default_rng(100 * d + len(initial) + len(name))
    for p in range(1, 5):
        path_sum = TreePathSum(d, p, model, initial)
        for _ in range(20):
            gammas = rng.uniform(-period, period, p)
            betas = rng.uniform(-beta_period, beta_period, p)
            value = path_sum.value(gammas, betas)
            images = [(-gammas, -betas)]  # time reversal
            for k in range(p):
                images.append(shifted(gammas, betas, k, beta=beta_period))
                images.append(shifted(gammas, betas, k, gamma=period))
                images.append(shifted(gammas, betas, k, gamma=period / 2, negate=negates))
            if free:
                images.append(shifted(gammas, betas, 0, gamma=rng.uniform(-10, 10)))
                images.append((gammas, -betas))
            for image in images:
                assert abs(path_sum.value(*image) - value) < 1e-12, (p, image)
            box = _canonical(QaoaParams(gammas, betas), path_sum)
            assert all(0 <= g < period / 2 for g in box.gammas)
            assert all(0 <= b < beta_period for b in box.betas)
            assert not free or box.gammas[0] == 0.0
            assert abs(path_sum.value(box.gammas, box.betas) - value) < 1e-12


def test_the_half_gamma_shift_needs_its_beta_flip_only_where_stated():
    """Where the later betas must be negated (MaxCut at odd d, mis(d)), the
    half gamma shift alone is no symmetry; where not, the shift with the
    betas negated is none."""
    rng = np.random.default_rng(5)
    for d in (3, 4):
        for name in ("maxcut", "mis"):
            model = MC if name == "maxcut" else CostModel.mis(d)
            period, negates = PERIODS[name][0], name == "mis" or d % 2 == 1
            path_sum = TreePathSum(d, 2, model)
            gammas, betas = rng.uniform(0, period, 2), rng.uniform(0, math.pi, 2)
            wrong = shifted(gammas, betas, 0, gamma=period / 2, negate=not negates)
            assert abs(path_sum.value(*wrong) - path_sum.value(gammas, betas)) > 1e-6, (d, name)


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
    # one objective per refinement start, here two peaks of distinct value,
    # and one for the value at the reported point; the grid calls the path
    # sum itself
    assert [obj.evaluations > 1 for obj in built] == [True, True, False]
    calls = sum(obj.evaluations for obj in built)
    assert result.evaluations == 4 * 8 + calls
    assert len(result.trace) == 4 * 8
    # the grid alone: every scanned point, and no objective call
    assert grid_search(TreePathSum(3, 1, MC), resolution=4).evaluations == 2 * 4


def test_optimize_builds_one_tree(monkeypatch):
    """The grid, every refinement and the value at the reported point
    share one path sum; seven were built per call at p >= 1."""
    module = importlib.import_module("qaoa_locality.optimize")
    built = []

    class Counting(TreePathSum):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "TreePathSum", Counting)
    optimize(3, 2, MC)
    assert len(built) == 1


def test_optimize_reports_the_canonical_point_of_its_value():
    """The reported angles lie in the box, from "zero" gamma_1 is 0, and
    ``best_value`` is the path sum at ``best_params``. At d=3, p=1 the
    refinement ends outside the box, at gamma ~ -0.615."""
    for d, p, model, initial in (
        (3, 1, MC, "plus"), (3, 2, MC, "plus"), (3, 2, MIS3, "zero"),
        (4, 2, CostModel.mis(4), "plus"),
    ):
        result = optimize(d, p, model, initial)
        params = result.best_params
        period, beta_period = PERIODS[model.kind]
        assert all(0 <= g < period / 2 for g in params.gammas)
        assert all(0 <= b < beta_period for b in params.betas)
        assert initial == "plus" or params.gammas[0] == 0.0
        value = TreePathSum(d, p, model, initial).value(params.gammas, params.betas)
        assert result.best_value == value


def test_starts_are_grid_peaks_of_distinct_value():
    """Beta axes wrap around, a point on a gamma box edge lacks the
    neighbour past it, and a value within 1e-11 of a start taken is
    skipped; each start is the first point of its value."""
    one = [0.0]
    # index 0 is no peak: its wrapped neighbour 4 is higher
    assert _starts(np.array([3.0, 1.0, 2.0, 4.0]), [one, [0.0] * 4]) == [3]
    # both gamma edges are peaks, though 5 > 4 across the box
    assert _starts(np.array([5.0, 1.0, 4.0]), [[0.0] * 3, one]) == [0, 2]
    trace = np.array([2.0, 0.0, 2.0 - 1e-12, 0.0, 1.0, 0.0, 2.0, 0.0])
    assert _starts(trace, [one, [0.0] * 8]) == [0, 4]
    # optimize refines the grid's best point before it looks for the rest
    for model, initial in ((MC, "plus"), (MIS3, "zero")):
        tree = TreePathSum(3, 2, model, initial)
        grid = grid_search(tree, resolution=16)
        axes = [[0.0] * n for n in box_shape(2, 16, initial)]
        assert _starts(grid.trace, axes)[0] == np.argmax(grid.trace)


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
