"""Exact simulation: statevectors, density matrices, depolarizing noise, fidelity.

Basis convention matches gates.py: wire 0 is the most significant bit of the
basis index, so a state over n wires reshaped to [2]*n has axis w == wire w.

A gate is monomial, or it is refused by name.  Monomial kinds are those whose
matrix has one nonzero entry per row, each in {1, -1, i, -i}: every fixed
kind except h (x, y, z, s, sdag, cz, cnot, swap, iswap, iscz, cswap, ciswap,
ciscz, ccz, ccx, and the identity), so every gate a SWAP-network compiler or
the QRAM builder emits.  Any other gate (h or fsim) is refused by every
entry point with one ValueError, "not a SWAP-network circuit: gate ... is
not monomial", which `_table` alone raises.

A monomial gate sends a basis state to one basis state times a power of i,
so one kernel, `_run`, runs every circuit: it pushes a batch of basis
inputs through a circuit bit-sliced (as in arXiv:quant-ph/0406196): each
wire's row over the C inputs is one Python int, bit c for input c, and the
phase power mod 4 two more, a low and a high bit plane.  Each kind's
`_monomial` table is compiled once, on first use, into a `_program`: a
GF(2) polynomial over the operand bits per moved bit and a Z4 one for the
phase, so a gate is a few AND and XOR operations over C/64 machine words.
`basis_steps` pairs each gate with its program, so every entry point
refuses a gate outside the set before it builds anything.  Packed rows are
the one input form: `counting_rows(m)` gives those of the basis indices
0..2**m - 1 in closed form, each a repeated byte pattern.

Amplitudes move along `basis_map(steps, n)`, the counting rows' images
unpacked once to an output index and a phase power per input: a
statevector becomes vec'[index] = vec * i**power, a density matrix takes
the same map on its rows and the conjugate powers on its columns, and
`circuit_unitary` is U[index, j] = i**power[j].  The phase multiplies are
exact.  `apply_circuit` runs a whole circuit as one map and has no noise.
`depolarize_pair` works in place on a density matrix's [2]*2n view.

Density matrices cost 4^n; construction is capped at a fixed n <= 10
(DENSITY_WIRE_CAP), checked before the matrix is formed, so a typo cannot
silently allocate gigabytes.  A basis map unpacks to an n x 2**n bit
matrix, so `check_basis_cap` bounds statevectors at 19 wires before it
exists.  States copy the array they are built from, so the kernels never
write into an array the caller still holds.  No command runs a state:
`netbench.noisy_fidelity` prices the benchmark's noise by counting value
subsets, and its noiseless column is an exact check.  The state classes,
depolarize_pair and `fidelity` are the tests' dense references, and the
benchmark harness times them by name.

Verification needs no amplitudes at all.  `basis_deviation` runs packed
input rows and compares them with packed expected rows, giving the dense
max |U - P| exactly: 0, sqrt 2 or 2 for a column that lands on its
expected index with phase 1, +-i or -1, and 1 for one that lands
elsewhere.  Its one size bound, `check_basis_cap`, refuses wires x inputs
over BASIS_ENTRY_CAP bits before the rows exist.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Real

import numpy as np

from .circuit import Circuit, Gate
from .gates import GateKind, gate_matrix

DENSITY_WIRE_CAP = 10
UNITARY_WIRE_CAP = 12
# bits over all packed rows (2 MiB); basis_map unpacks its n x 2**n as uint8
BASIS_ENTRY_CAP = 1 << 24


class PureState:
    """Statevector over n wires; vec has shape (2**n,)."""

    __slots__ = ("n", "vec")

    def __init__(self, n: int, vec: np.ndarray):
        if vec.shape != (2**n,):
            raise ValueError(f"statevector for {n} wires needs shape {(2**n,)}, got {vec.shape}")
        self.n = n
        self.vec = np.array(vec, dtype=complex, order="C")

    @staticmethod
    def basis(n: int, index: int = 0) -> "PureState":
        vec = np.zeros(2**n, dtype=complex)
        vec[index] = 1.0
        return PureState(n, vec)

    def copy(self) -> "PureState":
        return PureState(self.n, self.vec)

    def apply_gate(self, gate: Gate) -> None:
        self._apply_map(*basis_map([(gate.wires, _table(gate))], self.n))

    def _apply_map(self, index: np.ndarray, power: np.ndarray) -> None:
        vec = np.empty_like(self.vec)
        vec[index] = self.vec * _POWERS[power]
        self.vec = vec

    def to_density(self) -> "MixedState":
        check_density_cap(self.n)  # before the 4**n outer product
        return MixedState(self.n, np.outer(self.vec, self.vec.conj()))


class MixedState:
    """Density matrix over n wires; rho has shape (2**n, 2**n)."""

    __slots__ = ("n", "rho")

    def __init__(self, n: int, rho: np.ndarray):
        check_density_cap(n)
        if rho.shape != (2**n, 2**n):
            raise ValueError(f"density matrix for {n} wires needs shape {(2**n, 2**n)}")
        self.n = n
        self.rho = np.array(rho, dtype=complex, order="C")

    def copy(self) -> "MixedState":
        return MixedState(self.n, self.rho)

    def apply_gate(self, gate: Gate) -> None:
        self._apply_map(*basis_map([(gate.wires, _table(gate))], self.n))

    def _apply_map(self, index: np.ndarray, power: np.ndarray) -> None:
        rows = np.empty_like(self.rho)
        rows[index] = self.rho * _POWERS[power, None]  # U rho
        rows *= _POWERS[-power & 3]  # ... U^dag, column by column
        self.rho[:, index] = rows


_PHASES = (1, 1j, -1, -1j)  # i**power for power 0..3
_POWERS = np.array(_PHASES)


def _monomial(kind: GateKind) -> tuple | None:
    """The basis map of a monomial kind, the table `_program` compiles.

    Column j of the matrix is i**power[j] times the basis vector dest[j].
    Returned as (moves, power): moves pairs each operand position whose bit
    can change with that bit of dest, per j; power is None when every phase
    is 1.  None when the matrix is not monomial with every nonzero entry in
    _PHASES.
    """
    u = gate_matrix(kind)
    a = kind.arity
    nonzero = u != 0
    if np.any(nonzero.sum(axis=0) != 1) or np.any(nonzero.sum(axis=1) != 1):
        return None
    if not all(z in _PHASES for z in u[nonzero]):
        return None
    dest = np.argmax(nonzero, axis=0)
    power = np.array([_PHASES.index(u[d, j]) for j, d in enumerate(dest)], dtype=np.uint8)
    moves = []
    for p in range(a):
        bit = ((dest >> (a - 1 - p)) & 1).astype(np.uint8)
        if np.any(bit != (np.arange(2**a) >> (a - 1 - p)) & 1):
            moves.append((p, bit))
    return tuple(moves), (power if power.any() else None)


def _moebius(values, modulus: int) -> list[int]:
    """Coefficients, mod modulus, of the multilinear polynomial in the index
    bits taking each index t to values[t] (Moebius transform): c[s] is the
    sum over t within s of (-1)**|s - t| values[t]."""
    n = len(values)
    return [sum((-1) ** (s ^ t).bit_count() * int(values[t]) for t in range(n) if t & s == t) % modulus
            for s in range(n)]


@lru_cache(maxsize=256)
def _program(name: str, params: tuple) -> tuple | None:
    """_monomial's table as polynomials over the operand bits, the form
    `_run` evaluates on packed rows; None when the kind is not monomial.

    Slot 0 holds all ones and slot 1 + p operand p's row.  Returned as
    (ands, outs, adds): each pair (i, j) of ands appends the AND of slots i
    and j as a new slot; outs gives each moved operand p as (p, first,
    rest), its new bit the XOR of those slots (its GF(2) form); adds lists
    the (coefficient, slot) terms of the phase power mod 4.  For iswap,
    outs sends each operand the other's slot and adds is x0 + x1 + 2 x0 x1."""
    kind = GateKind(name, params)
    table = _monomial(kind)
    if table is None:
        return None
    moves, power = table
    a = kind.arity
    slots = {0: 0} | {1 << (a - 1 - p): 1 + p for p in range(a)}  # operand set -> slot
    ands: list[tuple[int, int]] = []

    def slot(s: int) -> int:
        if s not in slots:
            ands.append((slot(s & -s), slot(s & (s - 1))))
            slots[s] = a + len(ands)
        return slots[s]

    outs = []
    for p, bit in moves:
        first, *rest = (slot(s) for s, c in enumerate(_moebius(bit, 2)) if c)
        outs.append((p, first, tuple(rest)))
    adds = () if power is None else tuple((c, slot(s)) for s, c in enumerate(_moebius(power, 4)) if c)
    return tuple(ands), tuple(outs), adds


def _table(gate: Gate, index: int | None = None) -> tuple:
    """The _program of the gate's kind.  A gate outside the monomial set is
    refused here and only here, named with its index in the circuit when
    one is given."""
    program = _program(gate.kind.name, gate.kind.params)
    if program is None:
        at = "" if index is None else f"{index} "
        raise ValueError(f"not a SWAP-network circuit: gate {at}({gate}) is not monomial")
    return program


def _part(t: np.ndarray, axes: tuple[int, ...], i: int) -> np.ndarray:
    """View of t with `axes` fixed to the bits of i, the first axis the most
    significant; the Ellipsis keeps a 0-d view rather than a scalar."""
    index: list[int | slice] = [slice(None)] * (max(axes) + 1)
    for k, a in enumerate(axes):
        index[a] = (i >> (len(axes) - 1 - k)) & 1
    return t[(*index, ...)]


def depolarize_pair(state: MixedState, pair: tuple[int, ...], p: float) -> None:
    """Two-qubit depolarizing channel: rho -> (1-p) rho + p Tr_pair(rho) (x) I/4.

    Generalizes to any wire tuple (dimension d = 2**len(pair)): the tests'
    dense noise reference calls it after every multi-qubit gate, three-qubit
    ones included.  Works in place on the [2]*2n view: the d diagonal pair
    blocks sum to the reduced state, rho is scaled by 1-p, and p * reduced / d
    is added back onto each diagonal block.
    """
    check_strength(p)
    if p == 0.0:
        return
    n, d = state.n, 2 ** len(pair)
    t = state.rho.reshape([2] * (2 * n))
    ket_bra = tuple(pair) + tuple(n + w for w in pair)
    blocks = [_part(t, ket_bra, a * d + a) for a in range(d)]
    reduced = blocks[0].copy()
    for b in blocks[1:]:
        reduced += b
    np.multiply(t, 1.0 - p, out=t)
    mixed = p * (reduced / d)
    for b in blocks:
        b += mixed
    state.rho = t.reshape(2**n, 2**n)


def check_strength(p: float) -> None:
    """Refuse a strength that is a bool, not a real number, or outside [0, 1] (nan too)."""
    if isinstance(p, bool) or not isinstance(p, Real):
        raise ValueError(f"depolarizing strength {p!r:.40} is not a real number")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")


def apply_circuit(state: PureState | MixedState, circuit: Circuit) -> PureState | MixedState:
    """Run the circuit on a copy of the state, as one basis map, and return the copy."""
    if state.n != circuit.n_wires:
        raise ValueError(f"state has {state.n} wires, circuit {circuit.n_wires}")
    out = state.copy()
    out._apply_map(*basis_map(basis_steps(circuit), state.n))
    return out


def check_density_cap(n: int) -> None:
    """Refuse a density matrix on more than DENSITY_WIRE_CAP wires."""
    if n > DENSITY_WIRE_CAP:
        raise ValueError(f"refusing density matrix on {n} wires (cap {DENSITY_WIRE_CAP})")


def check_unitary_cap(n: int) -> None:
    """Refuse a dense unitary (the test oracles) on more than UNITARY_WIRE_CAP wires."""
    if n > UNITARY_WIRE_CAP:
        raise ValueError(f"refusing unitary on {n} wires (cap {UNITARY_WIRE_CAP})")


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2**n x 2**n unitary, one entry i**power per column of the
    circuit's basis_map; capped to keep memory sane."""
    n = circuit.n_wires
    check_unitary_cap(n)
    index, power = basis_map(basis_steps(circuit), n)
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[index, np.arange(2**n)] = _POWERS[power]
    return u


# -- exact phase-permutation engine -------------------------------------------

_DEVIATION_BY_POWER = np.abs(_POWERS - 1)  # |i**k - 1|: 0, sqrt 2, 2, sqrt 2


def basis_steps(circuit: Circuit) -> list[tuple[tuple[int, ...], tuple]]:
    """Each gate's (wires, _program), the form _run runs; refuses
    the first gate outside the monomial set."""
    return [(g.wires, _table(g, i)) for i, g in enumerate(circuit.gates)]


def check_basis_cap(wires: int, inputs: int) -> None:
    """Refuse rows of wires x inputs (a power of two) bits over BASIS_ENTRY_CAP."""
    if wires * inputs > BASIS_ENTRY_CAP:
        size = f"{wires} wires x 2**{inputs.bit_length() - 1} basis inputs"
        raise ValueError(f"refusing exact check: {size} is over 2**24 bit-matrix entries")


_LOW_BITS = {1: b"\xaa", 2: b"\xcc", 4: b"\xf0"}  # one byte of the three lowest wires' rows


def counting_rows(m: int) -> list[int]:
    """The packed rows of the basis indices 0..2**m - 1, wire 0 the most
    significant: row j repeats 2**(m-1-j) zeros and then as many ones."""
    size, ones = max(2**m // 8, 1), (1 << 2**m) - 1
    rows = []
    for j in range(m):
        half = 2 ** (m - 1 - j)
        unit = _LOW_BITS.get(half) or bytes(half // 8) + b"\xff" * (half // 8)
        # & ones trims the one byte to 2**m bits below m = 3
        rows.append(int.from_bytes(unit * (size // len(unit)), "little") & ones)
    return rows


def basis_map(steps: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the circuit with these basis_steps sends each of the 2**n basis
    states: its output index and phase power mod 4, input index order.  The
    n x 2**n bit matrix is bounded by check_basis_cap before it exists."""
    check_basis_cap(n, 2**n)
    rows = counting_rows(n)
    rows += _run(steps, rows, (1 << 2**n) - 1)  # the output rows, then the phase planes
    size = (2**n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(size, "little") for r in rows), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(rows), size), axis=1, count=2**n, bitorder="little")
    index = np.zeros(2**n, dtype=np.intp)
    for row in bits[:-2]:
        index <<= 1
        index |= row
    return index, bits[-2] | (bits[-1] << 1)


def _run(steps: list, rows: list[int], ones: int) -> tuple[int, int]:
    """Run basis_steps on packed rows in place, ones having a bit set for
    every column; returns the phase power's low and high bit planes."""
    lo = hi = 0
    row_of = rows.__getitem__
    for wires, (ands, outs, adds) in steps:
        v = [ones, *map(row_of, wires)]
        for i, j in ands:
            v.append(v[i] & v[j])
        for c, s in adds:
            m = v[s]
            if c & 1:
                hi ^= lo & m  # the carry
                lo ^= m
            if c & 2:
                hi ^= m
        for p, first, rest in outs:
            row = v[first]
            for s in rest:
                row ^= v[s]
            rows[wires[p]] = row
    return lo, hi


def basis_deviation(steps: list, rows: list[int], expected: list[int], columns: int) -> float:
    """Max |U - P| over the columns of the circuit's U (given as its
    basis_steps) whose inputs are the packed rows, P sending each to its
    column of the packed expected rows with phase 1: |i**k - 1| (0, sqrt 2
    or 2) for a column that lands on its expected index, 1 for one that
    lands elsewhere.  The caller's list of rows is left alone."""
    ones = (1 << columns) - 1
    rows = list(rows)
    lo, hi = _run(steps, rows, ones)
    miss = 0
    for row, want in zip(rows, expected, strict=True):
        miss |= row ^ want
    hit = ones ^ miss
    power = 2 if hi & ~lo & hit else 1 if lo & hit else 0
    return max(1.0 if miss else 0.0, float(_DEVIATION_BY_POWER[power]))


def fidelity(a: PureState | MixedState, b: PureState | MixedState) -> float:
    """|<a|b>|^2, or <a|rho|a> when one side is mixed; two mixed states are refused."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(abs(np.vdot(a.vec, b.vec)) ** 2)
    if isinstance(a, PureState):
        return float(np.real(np.vdot(a.vec, b.rho @ a.vec)))
    if isinstance(b, PureState):
        return fidelity(b, a)
    raise TypeError("fidelity needs at least one pure state")
