"""Exact statevector simulation of the alternating phase/mixer circuit.

Basis convention: bit i of the amplitude index holds the value at vertex i,
with index 0 the least significant bit. A bit string "b0b1..." therefore
reads vertex 0 first, matching the command line and report formats.

The circuit applies, per layer k, the diagonal phase exp(-i*gamma_k*C) for
the chosen per-edge cost C, then the product of single-qubit rotations
exp(-i*beta_k*X) on every qubit, starting from a product initial state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceError
from .graphs import Graph
from .rng import as_generator

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "MAXCUT",
    "MIS",
    "INITIAL_STATES",
    "CostModel",
    "QaoaParams",
    "Statevector",
    "index_to_bits",
    "bit_values",
    "cost_value",
    "cost_table",
    "prepare_initial",
    "run_qaoa",
    "expect_edge",
    "expect_total",
    "sample_bitstrings",
]

# run_qaoa peaks at about 2.5 times the 16 * 2**m byte state: the state, the
# float64 cost table and one state-sized scratch buffer (VmHWM 195 MiB at
# n=22, p=2, 160 MiB above the interpreter's, for a 64 MiB state), so 26
# qubits need about 2.5 GiB.
DEFAULT_QUBIT_CAP = 26

MAXCUT = "maxcut"
MIS = "mis"
INITIAL_STATES = ("zero", "plus")


@dataclass(frozen=True)
class CostModel:
    """Per-edge cost function as one table: an edge whose endpoints hold bits
    (a, b) costs ``numerators[a][b] / denominator``, and every cost is read
    from it. "maxcut" pays 1 when the endpoints disagree, ((0, 1), (1, 0))
    over 1. "mis" pays (b_i + b_j)/(2d) - b_i*b_j per edge of a d-regular
    graph, ((0, 1), (1, 2 - 2d)) over 2d.
    """

    kind: str
    d: int | None = None

    def __post_init__(self):
        if self.kind not in (MAXCUT, MIS):
            raise InputError(f"unknown cost model {self.kind!r}")
        if self.kind == MIS:
            d = self.d
            if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
                raise InputError("the independent-set cost needs an integer degree d >= 1")
            object.__setattr__(self, "d", int(d))

    @classmethod
    def maxcut(cls) -> "CostModel":
        return cls(MAXCUT)

    @classmethod
    def mis(cls, d: int) -> "CostModel":
        return cls(MIS, int(d))

    @property
    def numerators(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((0, 1), (1, 0)) if self.kind == MAXCUT else ((0, 1), (1, 2 - 2 * self.d))

    @property
    def denominator(self) -> int:
        return 1 if self.kind == MAXCUT else 2 * self.d

    @property
    def gamma_period(self) -> float:
        # The cost spectrum lives on (1/denominator)*Z, so the phase
        # exp(-i*gamma*C) repeats with this gamma period.
        return 2.0 * math.pi * self.denominator


@dataclass(frozen=True)
class QaoaParams:
    """Angle schedule: one gamma and one beta per layer, p >= 0 layers."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(x) for x in self.gammas))
        object.__setattr__(self, "betas", tuple(float(x) for x in self.betas))
        if len(self.gammas) != len(self.betas):
            raise InputError("gammas and betas must have equal length")

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def zeros(cls, p: int) -> "QaoaParams":
        return cls((0.0,) * p, (0.0,) * p)


@dataclass
class Statevector:
    """2**m complex amplitudes over an m-qubit register, unit norm."""

    m: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.m = int(self.m)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.m < 1 or self.amplitudes.shape != (1 << self.m,):
            raise InputError("amplitude vector must have length 2**m, m >= 1")
        nrm = self.norm()
        if abs(nrm - 1.0) > 1e-12:
            raise InputError(f"state is not normalized: |norm-1| = {abs(nrm - 1.0):.3e}")

    def norm(self) -> float:
        a = self.amplitudes
        return float(np.sqrt(np.sum(a.real * a.real + a.imag * a.imag)))

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag


def bit_values(bits, n: int | None = None) -> list[int]:
    """Normalize a bit string ("0110") or 0/1 sequence to a list of ints."""
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise InputError("bit strings may only contain 0 and 1")
        vals = [int(c) for c in bits]
    else:
        vals = [int(b) for b in bits]
        if any(b not in (0, 1) for b in vals):
            raise InputError("bit values must be 0 or 1")
    if n is not None and len(vals) != n:
        raise InputError(f"expected {n} bits, got {len(vals)}")
    return vals


def index_to_bits(index: int, m: int) -> str:
    """Bit string of a basis state's index; vertex 0, the least significant
    bit, is the first character."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(m))


def cost_value(model: CostModel, g: Graph, bits) -> Fraction:
    """Exact total cost of a bit assignment: the sum over edges of
    ``numerators[b_u][b_v]``, over the model's denominator."""
    vals = bit_values(bits, g.n)
    table = model.numerators
    return Fraction(sum(table[vals[u]][vals[v]] for u, v in g.edges), model.denominator)


def _edge_view(arr: np.ndarray, m: int, i: int, j: int) -> np.ndarray:
    # Reshape so axis 1 is bit j and axis 3 is bit i (requires i < j).
    return arr.reshape(1 << (m - 1 - j), 2, 1 << (j - 1 - i), 2, 1 << i)


def cost_table(model: CostModel, g: Graph) -> np.ndarray:
    """Vector of total cost over all 2**n basis states.

    Accumulates the model's nonzero integer numerators in float64 (exact at
    these sizes) and divides once by a denominator other than 1.
    """
    m = g.n
    num = np.zeros(1 << m)
    table = model.numerators
    terms = [(a, b, float(table[a][b])) for a in (0, 1) for b in (0, 1) if table[a][b]]
    for u, v in g.edges:
        view = _edge_view(num, m, u, v)
        for a, b, c in terms:
            view[:, b, :, a, :] += c
    if model.denominator != 1:
        num /= float(model.denominator)
    return num


def prepare_initial(m: int, initial: str = "plus") -> Statevector:
    """Product initial state: "zero" is |0...0>, "plus" the uniform state.

    Every register is allocated here, so this is the one place that checks
    a register against ``DEFAULT_QUBIT_CAP``; the check runs before any
    allocation."""
    if initial not in INITIAL_STATES:
        raise InputError(f"unknown initial state {initial!r}")
    m = int(m)
    if m < 1:
        raise InputError("need at least one qubit")
    if m > DEFAULT_QUBIT_CAP:
        raise ResourceError(f"{m} qubits exceed the cap of {DEFAULT_QUBIT_CAP}")
    if initial == "zero":
        amps = np.zeros(1 << m, dtype=np.complex128)
        amps[0] = 1.0
    else:
        amps = np.full(1 << m, 2.0 ** (-m / 2.0), dtype=np.complex128)
    return Statevector(m, amps)


def _mix_inplace(
    amps: np.ndarray, m: int, beta: float, t0: np.ndarray, t1: np.ndarray
) -> None:
    # exp(-i*beta*X) = [[cos b, -i sin b], [-i sin b, cos b]] on each qubit;
    # t0 and t1 are half-state buffers, so no full-size temporary is made.
    c = math.cos(beta)
    s = math.sin(beta)
    if s == 0.0:  # only beta = 0 has sin exactly 0.0: the identity
        return
    js = 1j * s
    for k in range(m):
        view = amps.reshape(-1, 2, 1 << k)
        a0 = view[:, 0, :]
        a1 = view[:, 1, :]
        b0 = t0.reshape(-1, 1 << k)
        b1 = t1.reshape(-1, 1 << k)
        np.multiply(a0, c, out=b0)
        np.multiply(a1, js, out=b1)
        b0 -= b1  # new a0 = c*a0 - i*s*a1
        np.multiply(a0, js, out=b1)
        a1 *= c
        a1 -= b1  # new a1 = c*a1 - i*s*a0
        a0[...] = b0


def _evolve(
    amps: np.ndarray, m: int, table: np.ndarray, params: QaoaParams
) -> None:
    # One state-sized scratch buffer holds the phase vector, and its two
    # halves are the mixer's buffers.
    scratch = np.empty(amps.size, dtype=np.complex128)
    half = amps.size // 2
    for gamma, beta in zip(params.gammas, params.betas):
        np.multiply(table, -1j * gamma, out=scratch)
        np.exp(scratch, out=scratch)
        amps *= scratch
        _mix_inplace(amps, m, beta, scratch[:half], scratch[half:])


def run_qaoa(
    g: Graph, model: CostModel, params: QaoaParams, initial: str = "plus"
) -> Statevector:
    """Prepare the initial state and apply all p layers in order, in place."""
    state = prepare_initial(g.n, initial)
    if params.p == 0:
        return state
    # The table and the scratch buffers are freed before the returned
    # Statevector's norm check allocates its own temporaries.
    _evolve(state.amplitudes, g.n, cost_table(model, g), params)
    return Statevector(g.n, state.amplitudes)


def _edge_marginals(amps: np.ndarray, m: int, i: int, j: int) -> np.ndarray:
    """2x2 array P with P[a, b] = Prob(bit_i = a, bit_j = b); needs i < j."""
    view = _edge_view(amps, m, i, j)
    p = (view.real**2 + view.imag**2).sum(axis=(0, 2, 4))
    return p.T  # sum produced [bit_j, bit_i]


def expect_edge(state: Statevector, edge, model: CostModel) -> float:
    """Expectation of one edge's cost in the given state."""
    u, v = int(edge[0]), int(edge[1])
    if u == v:
        raise InputError("edge endpoints must differ")
    if u > v:
        u, v = v, u
    if v >= state.m or u < 0:
        raise InputError("edge endpoint outside the register")
    P = _edge_marginals(state.amplitudes, state.m, u, v)
    total = 0.0
    for a in (0, 1):
        for b in (0, 1):
            # int / int is correctly rounded, so this is the exact cost as a float
            total += P[a, b] * (model.numerators[a][b] / model.denominator)
    return float(total)


def expect_total(state: Statevector, g: Graph, model: CostModel) -> float:
    """Expectation of the total cost; equals the sum of edge expectations."""
    if state.m != g.n:
        raise InputError("state register and graph sizes differ")
    return float(np.dot(state.probabilities(), cost_table(model, g)))


def sample_bitstrings(state: Statevector, count: int, seed) -> list[str]:
    """Draw basis-state samples; deterministic for a given seed."""
    count = int(count)
    if count < 0:
        raise InputError("sample count must be nonnegative")
    rng = as_generator(seed)
    probs = state.probabilities()
    probs = probs / probs.sum()
    picks = rng.choice(probs.size, size=count, p=probs)
    return [index_to_bits(int(b), state.m) for b in picks]
