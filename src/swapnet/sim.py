"""Exact simulation: statevectors, density matrices, depolarizing noise, fidelity.

Basis convention matches gates.py: wire 0 is the most significant bit of the
basis index, so a state over n wires reshaped to [2]*n has axis w == wire w.

Every gate application goes through one kernel, `_apply_kind`, on the [2]*N
view of a statevector, a density matrix (ket axes, then bra axes with the
conjugate gate) or a unitary under construction.  Monomial kinds, those whose
matrix has one nonzero entry per row, each in {1, -1, i, -i} (every
fixed kind except h: x, y, z, s, sdag, cz, cnot, swap, iswap, iscz, cswap,
ciswap, ciscz, ccz, and the identity), are applied in place by moving whole
slices along the cycles of their permutation and multiplying by the phase;
those multiplies are exact, and diagonal kinds touch only their non-unit
slices.  The other kinds (h, fsim, xyevol, zzevol, syc) fall back to
`tensordot` with the gate tensor cached per kind.  Depolarizing noise also
works in place on the [2]*2n view.

Density matrices cost 4^n; construction is capped (default n <= 10) so a typo
cannot silently allocate gigabytes.  Statevectors are capped only by memory.
States copy the array they are built from, so the in-place kernels never
write into an array the caller still holds.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate
from .gates import GateKind, gate_matrix

DENSITY_WIRE_CAP = 10
UNITARY_WIRE_CAP = 12


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

    @staticmethod
    def product(factors: list[np.ndarray]) -> "PureState":
        vec = np.array([1.0], dtype=complex)
        for f in factors:
            vec = np.kron(vec, np.asarray(f, dtype=complex))
        return PureState(len(factors), vec)

    def copy(self) -> "PureState":
        return PureState(self.n, self.vec)

    def apply_gate(self, gate: Gate) -> None:
        t = _apply_kind(self.vec.reshape([2] * self.n), gate.kind, gate.wires)
        self.vec = t.reshape(-1)

    def to_density(self, cap: int = DENSITY_WIRE_CAP) -> "MixedState":
        if self.n > cap:
            raise ValueError(f"refusing density matrix on {self.n} wires (cap {cap})")
        return MixedState(self.n, np.outer(self.vec, self.vec.conj()), cap=cap)


class MixedState:
    """Density matrix over n wires; rho has shape (2**n, 2**n)."""

    __slots__ = ("n", "rho")

    def __init__(self, n: int, rho: np.ndarray, cap: int = DENSITY_WIRE_CAP):
        if n > cap:
            raise ValueError(f"refusing density matrix on {n} wires (cap {cap})")
        if rho.shape != (2**n, 2**n):
            raise ValueError(f"density matrix for {n} wires needs shape {(2**n, 2**n)}")
        self.n = n
        self.rho = np.array(rho, dtype=complex, order="C")

    @staticmethod
    def basis(n: int, index: int = 0) -> "MixedState":
        return PureState.basis(n, index).to_density()

    def copy(self) -> "MixedState":
        return MixedState(self.n, self.rho)

    def apply_gate(self, gate: Gate) -> None:
        n = self.n
        t = self.rho.reshape([2] * (2 * n))
        t = _apply_kind(t, gate.kind, gate.wires)  # U rho
        bra = tuple(n + w for w in gate.wires)
        t = _apply_kind(t, gate.kind, bra, conj=True)  # ... U^dag
        self.rho = t.reshape(2**n, 2**n)


_PHASES = (1, -1, 1j, -1j)


@lru_cache(maxsize=256)
def _monomial_cycles(kind: GateKind) -> tuple[tuple[tuple[int, complex], ...], ...] | None:
    """The (source index, phase) table of a monomial kind, split into cycles.

    Output index i of the gate takes phase * input index src(i).  A cycle
    ((i0, ph0), (i1, ph1), ...) lists i1 = src(i0), i2 = src(i1), ... and
    wraps round; fixed points with phase 1 are left out.  None when the kind
    is not monomial with power-of-i phases.
    """
    u = gate_matrix(kind)
    nonzero = u != 0
    if np.any(nonzero.sum(axis=1) != 1) or not all(z in _PHASES for z in u[nonzero]):
        return None
    src = np.argmax(nonzero, axis=1)
    cycles = []
    seen: set[int] = set()
    for start in range(len(u)):
        cycle = []
        i = start
        while i not in seen:
            seen.add(i)
            cycle.append((i, complex(u[i, src[i]])))
            i = int(src[i])
        if cycle and cycle != [(start, 1)]:
            cycles.append(tuple(cycle))
    return tuple(cycles)


@lru_cache(maxsize=256)
def _gate_tensor(kind: GateKind, conj: bool) -> np.ndarray:
    u = gate_matrix(kind)
    t = (u.conj() if conj else u).reshape([2] * (2 * kind.arity))
    t.setflags(write=False)
    return t


def _scaled_copy(src: np.ndarray, phase: complex, dst: np.ndarray) -> None:
    if phase == 1:
        np.copyto(dst, src)
    elif phase == -1:
        np.negative(src, out=dst)
    else:
        np.multiply(src, phase, out=dst)


def _part(t: np.ndarray, axes: tuple[int, ...], i: int) -> np.ndarray:
    """View of t with `axes` fixed to the bits of i, the first axis the most
    significant; the Ellipsis keeps a 0-d view rather than a scalar."""
    index: list[int | slice] = [slice(None)] * (max(axes) + 1)
    for k, a in enumerate(axes):
        index[a] = (i >> (len(axes) - 1 - k)) & 1
    return t[(*index, ...)]


def _apply_kind(
    t: np.ndarray, kind: GateKind, axes: tuple[int, ...], conj: bool = False
) -> np.ndarray:
    """Apply the gate (or its elementwise conjugate) to `axes` of the tensor t.

    Monomial kinds update t in place and return it; the others return a new
    tensor.  Axes beyond the gate's are untouched, so t may carry any trailing
    shape (circuit_unitary keeps one axis of 2**n columns).
    """
    cycles = _monomial_cycles(kind)
    if cycles is None:
        w = len(axes)
        out = np.tensordot(
            _gate_tensor(kind, conj), t, axes=(list(range(w, 2 * w)), list(axes))
        )
        return np.moveaxis(out, list(range(w)), list(axes))
    for cycle in cycles:
        parts = [_part(t, axes, i) for i, _ in cycle]
        phases = [ph.conjugate() if conj else ph for _, ph in cycle]
        if len(cycle) == 1:
            _scaled_copy(parts[0], phases[0], parts[0])
            continue
        first = parts[0].copy()
        for k in range(len(cycle) - 1):
            _scaled_copy(parts[k + 1], phases[k], parts[k])
        _scaled_copy(first, phases[-1], parts[-1])
    return t


def depolarize_pair(state: MixedState, pair: tuple[int, ...], p: float) -> None:
    """Two-qubit depolarizing channel: rho -> (1-p) rho + p Tr_pair(rho) (x) I/4.

    Generalizes to any wire tuple (dimension d = 2**len(pair)); netbench uses
    pairs.  Works in place on the [2]*2n view: the d diagonal pair blocks sum
    to the reduced state, rho is scaled by 1-p, and p * reduced / d is added
    back onto each diagonal block.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")
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


# Alias for the common two-wire case; the kernel handles any operand tuple.
depolarize_two_qubit = depolarize_pair


class NoiseModel:
    """Depolarize every multi-qubit gate's operand set right after the gate."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"depolarizing strength {p} outside [0, 1]")
        self.p = p


def apply_circuit(
    state: PureState | MixedState, circuit: Circuit, noise: NoiseModel | None = None
) -> PureState | MixedState:
    """Run the circuit on a copy of the state and return the copy."""
    if state.n != circuit.n_wires:
        raise ValueError(f"state has {state.n} wires, circuit {circuit.n_wires}")
    if noise is not None and isinstance(state, PureState):
        raise ValueError("noisy simulation needs a density matrix")
    out = state.copy()
    for g in circuit.gates:
        out.apply_gate(g)
        if noise is not None and len(g.wires) >= 2 and noise.p > 0.0:
            depolarize_pair(out, g.wires, noise.p)
    return out


def circuit_unitary(circuit: Circuit, cap: int = UNITARY_WIRE_CAP) -> np.ndarray:
    """Full 2**n x 2**n unitary; batched over columns, capped to keep memory sane."""
    n = circuit.n_wires
    if n > cap:
        raise ValueError(f"refusing unitary on {n} wires (cap {cap})")
    t = np.eye(2**n, dtype=complex).reshape([2] * n + [2**n])
    for g in circuit.gates:
        t = _apply_kind(t, g.kind, g.wires)
    return t.reshape(2**n, 2**n)


def random_product_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-random single-qubit product state: two complex normals per qubit, normalized."""
    factors = []
    for _ in range(n):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors.append(a / np.linalg.norm(a))
    return PureState.product(factors)


def fidelity(a: PureState | MixedState, b: PureState | MixedState) -> float:
    """Uhlmann fidelity Tr[sqrt(sqrt(r1) r2 sqrt(r1))]^2, with pure-state shortcuts."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(abs(np.vdot(a.vec, b.vec)) ** 2)
    if isinstance(a, PureState):
        return float(np.real(np.vdot(a.vec, b.rho @ a.vec)))
    if isinstance(b, PureState):
        return fidelity(b, a)
    sq = _psd_sqrt(a.rho)
    inner = sq @ b.rho @ sq
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    evals = np.clip(evals, 0.0, None)
    return float(np.sum(np.sqrt(evals)) ** 2)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Exact equality including global phase."""
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)
