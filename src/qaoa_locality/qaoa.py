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

from .errors import InputError, ResourceError, integer, zero_one
from .graphs import Graph, _edge
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
    "expect_edges",
    "expect_total",
    "sample_bitstrings",
]

# run_qaoa peaks at about 1.5 times the 16 * 2**m byte state (the state and
# an 8-byte cost index per amplitude; VmHWM 97 MiB above the interpreter's
# at n=22, p=2), so 26 qubits need about 1.5 GiB.
DEFAULT_QUBIT_CAP = 26

MAXCUT = "maxcut"
MIS = "mis"
INITIAL_STATES = ("zero", "plus")

# Kernel passes go through blocks of 2**12 amplitudes (2**15 made an n=20
# mixer only 10% faster), and the mixer acts on 4 qubits at a time.
_BLOCK = 1 << 12
_GROUP = 4


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
            object.__setattr__(self, "d", integer(self.d, "the independent-set degree", 1))

    @classmethod
    def maxcut(cls) -> "CostModel":
        return cls(MAXCUT)

    @classmethod
    def mis(cls, d: int) -> "CostModel":
        return cls(MIS, d)

    def check_degree(self, d: int) -> None:
        """Refuse a degree other than k for mis(k), a cost per edge of a
        k-regular graph."""
        if self.kind == MIS and d != self.d:
            raise InputError(f"mis({self.d}) is defined on {self.d}-regular graphs, not at degree {d}")

    @property
    def numerators(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((0, 1), (1, 0)) if self.kind == MAXCUT else ((0, 1), (1, 2 - 2 * self.d))

    @property
    def denominator(self) -> int:
        return 1 if self.kind == MAXCUT else 2 * self.d

    @property
    def costs(self) -> tuple[tuple[float, float], tuple[float, float]]:
        # int / int is correctly rounded, so each cost is exact as a float
        return tuple(tuple(n / self.denominator for n in row) for row in self.numerators)

    @property
    def gamma_period(self) -> float:
        """The gamma period of the phase exp(-i*gamma*C) on any graph: the
        cost spectrum lives on (1/denominator)*Z. On a d-regular graph the
        mis(d) cost lies in Z/2, so there its phase repeats after 4*pi."""
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
        if not all(map(math.isfinite, self.gammas + self.betas)):
            raise InputError("angles must be finite numbers")

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def zeros(cls, p: int) -> "QaoaParams":
        p = integer(p, "depth", 0)
        return cls((0.0,) * p, (0.0,) * p)


@dataclass
class Statevector:
    """2**m complex amplitudes over an m-qubit register, unit norm."""

    m: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.m = integer(self.m, "qubit count", 1)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.m,):
            raise InputError("amplitude vector must have length 2**m")
        nrm = self.norm()
        if not abs(nrm - 1.0) <= 1e-12:  # a NaN norm fails this test too
            raise InputError(f"state is not normalized: |norm-1| = {abs(nrm - 1.0):.3e}")

    def norm(self) -> float:
        a = self.amplitudes
        return math.sqrt(np.vdot(a, a).real)

    def probabilities(self) -> np.ndarray:
        """|a|**2 of every amplitude, with no state-sized temporary."""
        a = self.amplitudes
        probs = np.empty(a.size)
        square = np.empty(min(a.size, _BLOCK))
        for start in range(0, a.size, square.size):
            part = a[start : start + square.size]
            out = probs[start : start + square.size]
            np.multiply(part.real, part.real, out=out)
            out += np.multiply(part.imag, part.imag, out=square)
        return probs


def bit_values(bits, n: int | None = None) -> list[int]:
    """Normalize a bit string ("0110") or 0/1 sequence to a list of ints."""
    if isinstance(bits, str):
        if not set(bits) <= {"0", "1"}:
            raise InputError("bit strings may only contain 0 and 1")
        vals = [1 if c == "1" else 0 for c in bits]
    else:
        vals = zero_one(bits, "bit values")
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


def _cost_levels(model: CostModel, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every basis state's total cost as ``levels[index]``: ``index`` holds
    its integer cost numerator less g.m times the least edge numerator.

    Vertex by vertex, the first 2**v entries hold the sums over the edges
    below v, and both halves of the first 2**(v+1) add v's edges to them."""
    table = model.numerators
    low = min(min(row) for row in table)
    high = max(max(row) for row in table)
    terms = [(a, b, table[a][b] - low) for a in (0, 1) for b in (0, 1) if table[a][b] != low]
    index = np.zeros(1 << _qubits(g.n), dtype=np.intp)
    for v in range(g.n):
        size = 1 << v
        index[size : 2 * size] = index[:size]
        for u in g.adjacency[v]:
            if u > v:
                break  # each row lists the smaller neighbours first
            for a, b, c in terms:
                half = index[b * size : (b + 1) * size].reshape(-1, 2, 1 << u)
                half[:, a, :] += c
    levels = (np.arange(g.m * (high - low) + 1) + g.m * low) / model.denominator
    return index, levels


def cost_table(model: CostModel, g: Graph) -> np.ndarray:
    """Vector of total cost over all 2**n basis states: each exact integer
    numerator divided once by the model's denominator."""
    index, levels = _cost_levels(model, g)
    return levels[index]


def _qubits(m: int) -> int:
    """``m`` as a qubit count of at least 1, checked against
    ``DEFAULT_QUBIT_CAP`` before the state or a cost table of length 2**m
    is allocated."""
    m = integer(m, "qubit count", 1)
    if m > DEFAULT_QUBIT_CAP:
        raise ResourceError(f"{m} qubits exceed the cap of {DEFAULT_QUBIT_CAP}")
    return m


def prepare_initial(m: int, initial: str = "plus") -> Statevector:
    """Product initial state: "zero" is |0...0>, "plus" the uniform state."""
    if initial not in INITIAL_STATES:
        raise InputError(f"unknown initial state {initial!r}")
    m = _qubits(m)
    size = 1 << m
    if initial == "zero":
        amps = np.zeros(size, dtype=np.complex128)
        amps[0] = 1.0
    else:
        amps = np.full(size, 2.0 ** (-m / 2.0), dtype=np.complex128)
    return Statevector(m, amps)


# _FLIPS[i, j] is the number of bits in which i and j differ.
_FLIPS = np.array([[bin(i ^ j).count("1") for j in range(1 << _GROUP)] for i in range(1 << _GROUP)])


def _mixer_factor(c: float, s: float, w: int) -> np.ndarray:
    """exp(-i*beta*X) on each of w qubits, c = cos(beta), s = sin(beta):
    entry (i, j) is c**(w - k) * (-i*s)**k where i and j differ in k bits,
    so the matrix is symmetric."""
    weights = np.array([c ** (w - k) * (-1j * s) ** k for k in range(w + 1)])
    return weights[_FLIPS[: 1 << w, : 1 << w]]


def _mix_group(amps: np.ndarray, u: np.ndarray, low: int, buf: np.ndarray) -> None:
    # Apply u to the qubits above the lowest log2(low), multiplying whole
    # (dim, low) slabs or column slices of one into buf and copying back.
    dim = u.shape[0]
    view = amps.reshape(-1, dim, low)
    cols = min(low, buf.size // dim)
    rows = max(1, buf.size // (dim * low))
    for r in range(0, view.shape[0], rows):
        for t in range(0, low, cols):
            part = view[r : r + rows, :, t : t + cols]
            out = buf[: part.size].reshape(part.shape)
            np.matmul(u, part, out=out)
            part[...] = out


def _evolve(
    amps: np.ndarray, m: int, index: np.ndarray, levels: np.ndarray, params: QaoaParams
) -> None:
    # Per layer: one pass applies the phase, exp of the few cost levels
    # looked up by index, and the mixer on the lowest qubit group; then one
    # pass per higher group, all through one block-sized buffer.
    size = amps.size
    buf = np.empty(min(size, _BLOCK), dtype=np.complex128)
    widths = [min(_GROUP, m - k) for k in range(0, m, _GROUP)]
    for gamma, beta in zip(params.gammas, params.betas):
        lut = np.exp(levels * (-1j * gamma))
        c, s = math.cos(beta), math.sin(beta)
        factors = {w: _mixer_factor(c, s, w) for w in set(widths)}
        for start in range(0, size, buf.size):
            part = amps[start : start + buf.size]
            # mode="clip" keeps take from buffering its whole output
            np.take(lut, index[start : start + buf.size], out=buf, mode="clip")
            part *= buf
            rows = part.reshape(-1, 1 << widths[0])
            np.matmul(rows, factors[widths[0]], out=buf.reshape(rows.shape))
            part[...] = buf
        low = 1 << widths[0]
        for w in widths[1:]:
            _mix_group(amps, factors[w], low, buf)
            low <<= w


def run_qaoa(
    g: Graph, model: CostModel, params: QaoaParams, initial: str = "plus"
) -> Statevector:
    """Prepare the initial state and apply all p layers in order, in place."""
    if params.p == 0:
        return prepare_initial(g.n, initial)
    # the buffers numpy takes to build the cost index go before the state
    # exists
    index, levels = _cost_levels(model, g)
    state = prepare_initial(g.n, initial)
    _evolve(state.amplitudes, g.n, index, levels, params)
    return Statevector(g.n, state.amplitudes)


def _edge_marginals(probs: np.ndarray, m: int, i: int, j: int) -> np.ndarray:
    """2x2 array P with P[a, b] = Prob(bit_i = a, bit_j = b) of a 2**m
    vector; needs i < j."""
    # axis 1 is bit j and axis 3 bit i, so the sum is [bit_j, bit_i]
    view = probs.reshape(1 << (m - 1 - j), 2, 1 << (j - 1 - i), 2, 1 << i)
    return view.sum(axis=(0, 2, 4)).T


def expect_edges(state: Statevector, edges, model: CostModel) -> list[float]:
    """Expectation of each edge's cost in the given state, in the order
    given, from one probability vector.

    The vector is read as a 2**h x 2**l matrix M, l = m // 2, whose columns
    hold the low l bits and whose rows the high h. An edge inside the low
    half reads the column sums of M, one inside the high half its row sums,
    and an edge (i, j) across the halves the sums of the rows whose bit j
    is 0 and of those whose bit j is 1, two 2**l vectors split on bit i.
    Each of these is one contiguous reduction, made once per state (the
    row halves once per high bit j) and only if an edge needs it."""
    pairs = list(map(_edge, edges))
    for u, v in pairs:
        if u == v:
            raise InputError("edge endpoints must differ")
        if v >= state.m or u < 0:
            raise InputError("edge endpoint outside the register")
    if not pairs:
        return []
    low = state.m // 2
    high = state.m - low
    matrix = state.probabilities().reshape(-1, 1 << low)
    cols = rows = None
    halves = {}
    costs = model.costs
    values = []
    for i, j in pairs:
        if j < low:
            if cols is None:
                cols = matrix.sum(axis=0)
            P = _edge_marginals(cols, low, i, j)
        elif i >= low:
            if rows is None:
                rows = matrix.sum(axis=1)
            P = _edge_marginals(rows, high, i - low, j - low)
        else:
            k = j - low
            if k not in halves:
                split = matrix.reshape(-1, 2, 1 << k, 1 << low)
                # one 2**(l+1) vector whose top bit is bit j
                halves[k] = np.concatenate([split[:, b].sum(axis=(0, 1)) for b in (0, 1)])
            P = _edge_marginals(halves[k], low + 1, i, low)
        P = P.tolist()
        values.append(sum(P[a][b] * costs[a][b] for a in (0, 1) for b in (0, 1)))
    return values


def expect_total(state: Statevector, g: Graph, model: CostModel) -> float:
    """Expectation of the total cost; equals the sum of edge expectations."""
    if state.m != g.n:
        raise InputError("state register and graph sizes differ")
    # the table first: building it needs twice its size
    table = cost_table(model, g)
    return float(np.dot(state.probabilities(), table))


def sample_bitstrings(state: Statevector, count: int, seed) -> list[str]:
    """Draw basis-state samples; deterministic for a given seed."""
    count = integer(count, "sample count", 0)
    rng = as_generator(seed)
    probs = state.probabilities()
    probs /= probs.sum()
    # Generator.choice's own steps with p, in place: the same draws without
    # a second state-sized vector for the cumulative sum
    np.cumsum(probs, out=probs)
    probs /= probs[-1]
    picks = probs.searchsorted(rng.random(count), side="right")
    return [index_to_bits(int(b), state.m) for b in picks]
