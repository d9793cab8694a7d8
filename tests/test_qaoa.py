import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from scipy.linalg import expm

from qaoa_locality.errors import InputError, ResourceError
from qaoa_locality.graphs import EnsembleSpec, Graph, sample_graph
from qaoa_locality.qaoa import (
    CostModel,
    QaoaParams,
    Statevector,
    bit_values,
    cost_table,
    cost_value,
    expect_edges,
    expect_total,
    index_to_bits,
    prepare_initial,
    run_qaoa,
    sample_bitstrings,
)
from qaoa_locality.trees import TreePathSum
from small_graphs import complete_graph, cycle_graph, path_graph

MC = CostModel.maxcut()
MIS3 = CostModel.mis(3)

RNG = np.random.default_rng(20240817)


def random_params(model, p, rng):
    gammas = tuple(rng.uniform(0.0, model.gamma_period, size=p))
    betas = tuple(rng.uniform(0.0, math.pi, size=p))
    return QaoaParams(gammas, betas)


# ------------------------------------------------------- dense-matrix oracle


def dense_qaoa(g, model, params, initial):
    """Reference simulation: explicit 2^n x 2^n matrices, mixer via expm."""
    n = g.n
    dim = 1 << n
    diag = np.array(
        [float(cost_value(model, g, index_to_bits(i, n))) for i in range(dim)]
    )
    flips = np.zeros((dim, dim))
    for i in range(dim):
        for k in range(n):
            flips[i ^ (1 << k), i] += 1.0
    if initial == "plus":
        psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    else:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
    for gamma, beta in zip(params.gammas, params.betas):
        psi = np.exp(-1j * gamma * diag) * psi
        psi = expm(-1j * beta * flips) @ psi
    return psi


def all_graphs_up_to_four_vertices():
    """Every labeled graph on 1..4 vertices (edge subsets of the clique)."""
    graphs = []
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            graphs.append(Graph.from_edges(n, edges))
    return graphs


def test_dense_oracle_all_small_graphs():
    graphs = all_graphs_up_to_four_vertices()
    assert len(graphs) == 1 + 2 + 8 + 64
    rng = np.random.default_rng(7)
    for model in (MC, MIS3):
        for p in (1, 2):
            params = random_params(model, p, rng)
            for initial in ("plus", "zero"):
                for g in graphs:
                    got = run_qaoa(g, model, params, initial).amplitudes
                    want = dense_qaoa(g, model, params, initial)
                    assert np.max(np.abs(got - want)) < 1e-10


def test_p0_returns_initial_state():
    g = cycle_graph(4)
    st = run_qaoa(g, MC, QaoaParams((), ()), "plus")
    assert np.allclose(st.amplitudes, 0.25)
    st = run_qaoa(g, MC, QaoaParams((), ()), "zero")
    assert st.amplitudes[0] == 1.0 and np.count_nonzero(st.amplitudes) == 1
    assert QaoaParams.zeros(np.int64(2)) == QaoaParams((0.0, 0.0), (0.0, 0.0))
    # 1.5 used to raise TypeError
    for p in (1.5, True, -1):
        with pytest.raises(InputError, match="depth must be"):
            QaoaParams.zeros(p)


# ------------------------------------------------------------- cost models


def table_edge_cost(model, a, b):
    """The per-edge cost read from the model's one table."""
    return Fraction(model.numerators[a][b], model.denominator)


def test_edge_cost_values():
    assert table_edge_cost(MC, 0, 0) == 0 and table_edge_cost(MC, 1, 1) == 0
    assert table_edge_cost(MC, 0, 1) == 1 and table_edge_cost(MC, 1, 0) == 1
    assert table_edge_cost(MIS3, 1, 0) == Fraction(1, 6)
    assert table_edge_cost(MIS3, 1, 1) == Fraction(1, 3) - 1
    assert CostModel.mis(2).denominator == 4
    assert MC.gamma_period == 2 * math.pi
    assert MIS3.gamma_period == 12 * math.pi


def test_cost_model_validation():
    with pytest.raises(InputError):
        CostModel("vertexcover")
    with pytest.raises(InputError):
        CostModel.mis(0)
    # the degree must be an integer: a string, a float or a bool is refused
    # here rather than failing later in the cost table or meaning d = 1
    for d in ("3", 3.0, 2.5, True, None, 0, -2):
        with pytest.raises(InputError):
            CostModel("mis", d)
        # mis(2.5) used to be mis(2)
        with pytest.raises(InputError):
            CostModel.mis(d)
    assert CostModel("mis", np.int64(3)) == CostModel.mis(3)
    assert type(CostModel("mis", np.int64(3)).d) is int


def test_cost_value_is_exact_rational():
    g = complete_graph(4)
    assert cost_value(MC, g, "0101") == 4
    assert cost_value(MIS3, g, "1111") == Fraction(-4)
    assert cost_value(MIS3, g, "1000") == Fraction(3, 6)
    # independent set of size s has cost s/2 under the d-regular scaling
    ring = cycle_graph(6)
    mis2 = CostModel.mis(2)
    assert cost_value(mis2, ring, "101010") == Fraction(3, 2)


def test_cost_table_matches_cost_value():
    rng = np.random.default_rng(3)
    for seed in range(3):
        g = sample_graph(EnsembleSpec(8, 3, "general", seed))
        for model in (MC, MIS3):
            table = cost_table(model, g)
            idx = rng.integers(0, 1 << g.n, size=40)
            for i in idx:
                exact = float(cost_value(model, g, index_to_bits(int(i), g.n)))
                assert abs(table[int(i)] - exact) < 1e-12


def reference_edge_cost(model, a, b):
    """The per-edge cost as the paper writes it, independent of the table."""
    if model.kind == "maxcut":
        return Fraction(int(a != b))
    return Fraction(a + b, 2 * model.d) - a * b


PROPERTY_GRAPHS = {
    # sampled general and bipartite graphs at d = 2..5
    **{
        f"{kind}-d{d}": sample_graph(EnsembleSpec(10 if d == 5 else 8, d, kind, d))
        for d in (2, 3, 4, 5)
        for kind in ("general", "bipartite")
    },
    # irregular graphs, some with leaves and isolated vertices
    **{
        f"gnm-m{m}": Graph.from_edges(9, list(nx.gnm_random_graph(9, m, seed=m).edges()))
        for m in (4, 9, 14, 20)
    },
}


@pytest.mark.parametrize("name", list(PROPERTY_GRAPHS))
def test_every_cost_reads_one_edge_table(name):
    """The model's table holds the per-edge formula and cost_value its sum,
    every cost_table entry is float(cost_value) exactly, and expect_edges and
    TreePathSum use the same floats, for MaxCut and MIS(d) at degrees that
    do and do not match the graph's."""
    g = PROPERTY_GRAPHS[name]
    rng = np.random.default_rng(g.n * 100 + g.m)
    for model in [MC] + [CostModel.mis(k) for k in (1, 2, 3, 4, 5, 7)]:
        table = cost_table(model, g)
        edge_costs = [[reference_edge_cost(model, a, b) for b in (0, 1)] for a in (0, 1)]
        assert [[table_edge_cost(model, a, b) for b in (0, 1)] for a in (0, 1)] == edge_costs
        edge_floats = [[float(c) for c in row] for row in edge_costs]
        # the path sum takes mis(k) at degree k alone, and no degree below 2
        if model.d != 1:
            assert TreePathSum(model.d or 2, 1, model).cost.tolist() == edge_floats
        for i in range(1 << g.n):
            bits = index_to_bits(i, g.n)
            vals = bit_values(bits)
            exact = cost_value(model, g, bits)
            assert exact == sum(
                (reference_edge_cost(model, vals[u], vals[v]) for u, v in g.edges), Fraction(0)
            )
            assert table[i] == float(exact)
        for i in rng.integers(0, 1 << g.n, size=4):
            amps = np.zeros(1 << g.n, dtype=np.complex128)
            amps[i] = 1.0
            state = Statevector(g.n, amps)
            vals = bit_values(index_to_bits(int(i), g.n))
            for u, v in g.edges:
                assert expect_edges(state, [(u, v)], model)[0] == edge_floats[vals[u]][vals[v]]


# --------------------------------------------------------------- bit maps


def bits_to_index(bits):
    """Index of a basis state; bit i of the result is vertex i's value."""
    return sum(int(b) << i for i, b in enumerate(bits))


def test_bit_round_trips():
    assert bit_values("0110") == [0, 1, 1, 0]
    assert bit_values([1, 0, 1]) == [1, 0, 1]
    assert index_to_bits(1, 3) == "100"  # vertex 0 is the least significant bit
    assert index_to_bits(4, 3) == "001"
    for i in range(16):
        assert bits_to_index(index_to_bits(i, 4)) == i
    with pytest.raises(InputError):
        bit_values("10", 3)
    with pytest.raises(InputError):
        bit_values("102")
    # [1.7, 0.2, True] used to read as [1, 0, 1] and ["1", "0"] as [1, 0]
    for bits in ([1.7, 0.2, True], [1.0, 0], ["1", "0"], [np.bool_(True)], [2, 0]):
        with pytest.raises(InputError, match="bit values must be 0 or 1"):
            bit_values(bits)
        with pytest.raises(InputError, match="bit values must be 0 or 1"):
            cost_value(MC, path_graph(len(bits)), bits)


def test_numpy_bits_and_endpoints_give_identical_values():
    g = cycle_graph(5)
    for kind in (np.int64, np.int32):
        bits = np.array([1, 0, 1, 1, 0], dtype=kind)
        assert bit_values(bits) == [1, 0, 1, 1, 0]
        assert {type(b) for b in bit_values(bits)} == {int}
        assert cost_value(MIS3, g, bits) == cost_value(MIS3, g, [1, 0, 1, 1, 0])
    st = run_qaoa(g, MC, QaoaParams((0.4,), (0.9,)))
    want = expect_edges(st, g.edges, MC)
    for kind in (np.int64, np.int32):
        assert expect_edges(st, np.array(g.edges, dtype=kind), MC) == want
        assert expect_edges(st, [(kind(v), kind(u)) for u, v in g.edges], MC) == want


# ------------------------------------------------ in-place evolution kernel


def reference_qaoa(g, model, params, initial):
    """The evolution loop before the kernel went in place: a full-size
    phase vector per layer and a copied half-state per qubit."""
    amps = prepare_initial(g.n, initial).amplitudes
    table = cost_table(model, g)
    for gamma, beta in zip(params.gammas, params.betas):
        amps *= np.exp((-1j * gamma) * table)
        c, s = math.cos(beta), math.sin(beta)
        if s == 0.0:
            if c != 1.0:
                amps *= c
            continue
        for k in range(g.n):
            view = amps.reshape(-1, 2, 1 << k)
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = c * a0 - 1j * s * a1
            view[:, 1, :] = c * a1 - 1j * s * a0
    return amps


def kernel_graph(m):
    """A graph on m vertices: sampled 3-regular where one exists, else a
    cycle, an edge or a lone vertex."""
    if m >= 4 and m % 2 == 0:
        return sample_graph(EnsembleSpec(m, 3, "general", m))
    return cycle_graph(m) if m >= 3 else path_graph(m)


def test_in_place_kernel_matches_reference_loop():
    """The kernel applies the mixer as one Kronecker factor per group of up
    to four qubits, so it rounds differently from the per-qubit loop: the
    two agree to 1e-14 in every amplitude. Every register size mod 4 is
    covered, and at m = 16 and 17 the state spans several blocks."""
    rng = np.random.default_rng(29)
    for m in list(range(1, 14)) + [16, 17]:
        g = kernel_graph(m)
        for model in (MC, MIS3):
            for p in (1, 2, 3):
                params = random_params(model, p, rng)
                # beta=0.0 gives the identity factor, which the reference
                # loop skips; beta=pi has sin(pi) != 0.0
                if p == 2:
                    params = QaoaParams(params.gammas, params.betas[:1] + (0.0,))
                if p == 3:
                    params = QaoaParams(params.gammas, params.betas[:2] + (math.pi,))
                for initial in ("plus", "zero"):
                    got = run_qaoa(g, model, params, initial).amplitudes
                    want = reference_qaoa(g, model, params, initial)
                    assert np.max(np.abs(got - want)) <= 1e-14, (m, model, p, initial)


def test_run_qaoa_needs_no_state_sized_scratch():
    """Beside the state, a run holds one 8-byte cost-level index per
    amplitude and one block buffer; the norm check allocates nothing."""
    g = sample_graph(EnsembleSpec(16, 3, "general", 3))
    state_bytes = 16 << g.n
    params = QaoaParams((0.4, 1.1), (0.7, 2.0))
    run_qaoa(cycle_graph(5), MIS3, params)  # lazy imports
    tracemalloc.start()
    try:
        run_qaoa(g, MIS3, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * state_bytes


# ------------------------------------------------------------ state checks


def test_prepare_initial_states_and_cap():
    plus = prepare_initial(3, "plus")
    assert np.allclose(plus.amplitudes, 1 / math.sqrt(8))
    zero = prepare_initial(3, "zero")
    assert zero.amplitudes[0] == 1.0
    with pytest.raises(InputError):
        prepare_initial(3, "ghz")
    # 2.9 used to give 2 qubits
    for m in (2.9, True, 0):
        with pytest.raises(InputError):
            prepare_initial(m)
    assert np.array_equal(prepare_initial(np.int64(3)).amplitudes, plus.amplitudes)
    with pytest.raises(ResourceError):
        prepare_initial(27, "plus")
    with pytest.raises(ResourceError):
        run_qaoa(cycle_graph(30), MC, QaoaParams((0.1,), (0.2,)))


def test_params_need_one_beta_per_gamma():
    with pytest.raises(InputError, match="gammas and betas must have equal length"):
        QaoaParams((0.1, 0.2), (0.3,))


def test_statevector_rejects_unnormalized():
    with pytest.raises(InputError):
        Statevector(2, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(InputError):
        Statevector(2, np.zeros(3, dtype=complex))
    with pytest.raises(InputError):
        Statevector(1.0, np.array([1.0, 0.0], dtype=complex))
    # a NaN norm passes no bound, so it is refused where the state is built
    with pytest.raises(InputError):
        Statevector(1, np.array([np.nan, 0.0], dtype=complex))


def test_norm_preserved_through_layers():
    rng = np.random.default_rng(11)
    g = sample_graph(EnsembleSpec(10, 3, "general", 2))
    for model in (MC, MIS3):
        for p in (1, 2, 3):
            st = run_qaoa(g, model, random_params(model, p, rng))
            assert abs(st.norm() - 1.0) < 1e-12


# ------------------------------------------------------------ expectations


def test_expect_total_is_sum_of_edges():
    rng = np.random.default_rng(5)
    for seed in range(4):
        g = sample_graph(EnsembleSpec(10, 3, "general", seed))
        for model in (MC, MIS3):
            st = run_qaoa(g, model, random_params(model, 2, rng))
            total = expect_total(st, g, model)
            per_edge = sum(expect_edges(st, g.edges, model))
            assert abs(total - per_edge) < 1e-10
    with pytest.raises(InputError, match="state register and graph sizes differ"):
        expect_total(prepare_initial(4), g, MC)


def test_single_edge_closed_form():
    # one edge, p=1, cut cost: value = 1/2 + (1/2) sin(4 beta) sin(gamma)
    g = Graph.from_edges(2, [(0, 1)])
    rng = np.random.default_rng(9)
    for _ in range(20):
        gamma = float(rng.uniform(0, 2 * math.pi))
        beta = float(rng.uniform(0, math.pi))
        st = run_qaoa(g, MC, QaoaParams((gamma,), (beta,)))
        want = 0.5 + 0.5 * math.sin(4 * beta) * math.sin(gamma)
        assert abs(expect_edges(st, [(0, 1)], MC)[0] - want) < 1e-12


def test_expect_edge_orientation_and_validation():
    g = cycle_graph(5)
    st = run_qaoa(g, MC, QaoaParams((0.4,), (0.9,)))
    assert expect_edges(st, [(4, 0)], MC)[0] == expect_edges(st, [(0, 4)], MC)[0]
    with pytest.raises(InputError):
        expect_edges(st, [(0, 0)], MC)
    with pytest.raises(InputError):
        expect_edges(st, [(0, 9)], MC)
    # strings used to be parsed, floats truncated and a third item dropped
    for edge, text in [
        (("0", "1"), "edge endpoints must be integers"),
        ((0.0, 1.0), "edge endpoints must be integers"),
        ((True, 2), "edge endpoints must be integers"),
        ((0, 1, 2), "an edge is two endpoints"),
    ]:
        with pytest.raises(InputError, match=text):
            expect_edges(st, [(0, 1), edge], MC)


def random_state(m, rng):
    amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    return Statevector(m, amps / np.linalg.norm(amps))


def quarter_views(probs, m, i, j):
    """view[:, b, :, a, ...] holds the entries with bit j = b and bit i = a
    (i < j); trailing axes of ``probs`` are kept."""
    return probs.reshape(1 << (m - 1 - j), 2, 1 << (j - 1 - i), 2, 1 << i, *probs.shape[1:])


def integer_limbs(probs, count=4, bits=26):
    """Each probability as ``count`` integer-valued floats below 2**bits,
    limb k holding its bits from 2**(-bits*k) down to 2**(-bits*(k+1)),
    and the scale of each limb. Sums of up to 2**26 limbs stay integers
    below 2**53, so numpy adds them without rounding, in any order."""
    limbs = np.empty((probs.size, count))
    rest = probs.copy()
    for k in range(count):
        rest *= 2.0**bits
        limbs[:, k] = np.floor(rest)
        rest -= limbs[:, k]
    assert not rest.any()  # every bit of every probability is in a limb
    return limbs, [2.0 ** (-bits * (k + 1)) for k in range(count)]


def edge_expectation(P, model):
    return math.fsum(
        P[a][b] * (model.numerators[a][b] / model.denominator) for a in (0, 1) for b in (0, 1)
    )


@pytest.mark.parametrize("m", [*range(2, 15), pytest.param(20, marks=pytest.mark.slow)])
def test_expect_edges_matches_exact_marginals(m):
    """Every pair of a random state, given in both orders, against its four
    marginals summed exactly (integer limbs, rounded once by math.fsum), and
    against the former reader's strided five-axis sum per edge."""
    rng = np.random.default_rng(1000 + m)
    state = random_state(m, rng)
    probs = state.probabilities()
    limbs, scales = integer_limbs(probs)
    pairs = list(combinations(range(m), 2))
    got = {
        model: expect_edges(state, pairs + [(j, i) for i, j in pairs], model)
        for model in (MC, MIS3)
    }
    for k, (i, j) in enumerate(pairs):
        sums = quarter_views(limbs, m, i, j).sum(axis=(0, 2, 4))  # [bit_j, bit_i, limb]
        exact = [[math.fsum(sums[b, a] * scales) for b in (0, 1)] for a in (0, 1)]
        five_axis = quarter_views(probs, m, i, j).sum(axis=(0, 2, 4)).T
        for model, values in got.items():
            assert values[k] == values[len(pairs) + k]
            assert abs(values[k] - edge_expectation(exact, model)) <= 1e-15, (m, i, j)
            assert abs(values[k] - edge_expectation(five_axis, model)) <= 1e-13


def test_expect_edges_of_no_edges_and_repeated_edges():
    rng = np.random.default_rng(3)
    state = random_state(9, rng)
    assert expect_edges(state, [], MC) == []
    edges = [(1, 7), (0, 2), (1, 7), (7, 1), (6, 8), (0, 2), (6, 8)]
    got = expect_edges(state, edges, MIS3)
    assert got[0] == got[2] == got[3] and got[1] == got[5] and got[4] == got[6]


@pytest.mark.parametrize("m", [2, 3, 7, 10])
def test_expect_edges_reads_basis_states_exactly(m):
    """All pairs of a basis state at once, low, high and across the two
    halves of the register, give the table's float cost exactly."""
    rng = np.random.default_rng(m)
    pairs = list(combinations(range(m), 2))
    for model in (MC, MIS3, CostModel.mis(5)):
        edge_floats = [[c / model.denominator for c in row] for row in model.numerators]
        for i in rng.integers(0, 1 << m, size=6):
            amps = np.zeros(1 << m, dtype=np.complex128)
            amps[i] = 1.0
            vals = bit_values(index_to_bits(int(i), m))
            got = expect_edges(Statevector(m, amps), pairs, model)
            assert got == [edge_floats[vals[u]][vals[v]] for u, v in pairs]


def test_expect_edges_holds_one_probability_vector():
    """Beside the caller's state, reading every edge holds the probability
    vector (half the state's bytes) and vectors of its square root's length."""
    g = sample_graph(EnsembleSpec(16, 3, "general", 4))
    state = run_qaoa(g, MIS3, QaoaParams((0.4,), (0.7,)))
    expect_edges(run_qaoa(cycle_graph(5), MIS3, QaoaParams((0.4,), (0.7,))), [(0, 4)], MIS3)
    pairs = list(combinations(range(g.n), 2))
    tracemalloc.start()
    try:
        expect_edges(state, pairs, MIS3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.55 * (16 << g.n)


def test_zero_angles_leave_plus_state_uniform():
    g = sample_graph(EnsembleSpec(12, 3, "general", 8))
    st = run_qaoa(g, MC, QaoaParams.zeros(2))
    assert abs(expect_total(st, g, MC) / g.m - 0.5) < 1e-12
    st = run_qaoa(g, MIS3, QaoaParams.zeros(1))
    assert abs(expect_total(st, g, MIS3) / g.m - (-1.0 / 12.0)) < 1e-12


# ----------------------------------------------------- symmetry properties


def test_gamma_period_and_beta_period():
    rng = np.random.default_rng(13)
    g = sample_graph(EnsembleSpec(10, 3, "general", 4))
    for model in (MC, MIS3):
        params = random_params(model, 2, rng)
        base = run_qaoa(g, model, params)
        shifted = QaoaParams(
            (params.gammas[0] + model.gamma_period, params.gammas[1]),
            params.betas,
        )
        st = run_qaoa(g, model, shifted)
        assert abs(expect_total(st, g, model) - expect_total(base, g, model)) < 1e-10
        shifted = QaoaParams(
            params.gammas, (params.betas[0], params.betas[1] + math.pi)
        )
        st = run_qaoa(g, model, shifted)
        assert abs(expect_total(st, g, model) - expect_total(base, g, model)) < 1e-10


def test_conjugation_symmetry():
    # negating every angle conjugates the state, fixing all expectations
    rng = np.random.default_rng(17)
    g = sample_graph(EnsembleSpec(10, 3, "general", 6))
    for model in (MC, MIS3):
        params = random_params(model, 2, rng)
        flipped = QaoaParams(
            tuple(-x for x in params.gammas), tuple(-x for x in params.betas)
        )
        a = run_qaoa(g, model, params)
        b = run_qaoa(g, model, flipped)
        assert np.max(np.abs(a.amplitudes - b.amplitudes.conj())) < 1e-12
        assert abs(expect_total(a, g, model) - expect_total(b, g, model)) < 1e-10


# ---------------------------------------------------------------- sampling


def test_sampling_deterministic_and_plausible():
    g = cycle_graph(4)
    st = run_qaoa(g, MC, QaoaParams((0.9,), (0.6,)))
    a = sample_bitstrings(st, 32, 123)
    b = sample_bitstrings(st, 32, 123)
    assert a == b
    assert all(len(s) == 4 and set(s) <= {"0", "1"} for s in a)
    assert sample_bitstrings(st, 0, 1) == []
    with pytest.raises(InputError):
        sample_bitstrings(st, -1, 1)
    # 2.5 used to draw 2 samples
    with pytest.raises(InputError):
        sample_bitstrings(st, 2.5, 0)
    with pytest.raises(InputError):
        sample_bitstrings(st, 2, 0.5)
    assert sample_bitstrings(st, np.int64(32), np.int64(123)) == a


def test_sampling_draws_what_generator_choice_draws():
    """The sampler takes Generator.choice's steps in place, so every seed
    draws the indices that choice draws from the normalized probabilities."""
    rng = np.random.default_rng(31)
    for m, model in ((4, MC), (9, MIS3), (12, MC), (13, MIS3)):
        g = kernel_graph(m)
        for initial in ("plus", "zero"):
            state = run_qaoa(g, model, random_params(model, 2, rng), initial)
            probs = state.probabilities()
            probs /= probs.sum()
            for seed in (0, 7, 2**40 + 3):
                want = np.random.default_rng(seed).choice(probs.size, 300, p=probs)
                got = sample_bitstrings(state, 300, seed)
                assert got == [index_to_bits(int(i), m) for i in want]


def test_sampling_holds_one_probability_vector():
    """Beside the caller's state, a call holds its probability vector and
    the cumulative sum in that same array."""
    g = sample_graph(EnsembleSpec(16, 3, "general", 4))
    state = run_qaoa(g, MIS3, QaoaParams((0.4,), (0.7,)))
    sample_bitstrings(run_qaoa(cycle_graph(5), MIS3, QaoaParams((0.4,), (0.7,))), 4, 0)
    tracemalloc.start()
    try:
        sample_bitstrings(state, 64, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (8 << g.n)
