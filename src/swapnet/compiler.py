"""SWAP networks compiled onto the native {CZ, iSWAP} gate set.

Core identity: iSCZ = iSWAP @ CZ differs from SWAP only by S^dag on each
operand (SWAP = iSCZ (S^dag x S^dag)), and an S^dag commuted through a
permutation lands on the permuted wire.  So a network of m SWAPs compiles to
m fused iSCZ gates plus one final layer of at most n single-qubit phase gates,
tracked by an integer counter per wire that travels with the logical value:

    per SWAP(a, b): emit iSCZ(a, b); counter[a] += 1; counter[b] += 1;
    exchange counter[a], counter[b]
    final layer: counter mod 4 -> 1: S^dag, 2: Z, 3: S, 0: nothing

Extension "ext1": a SWAP whose one operand provably holds |0> needs no CZ and
only one phase bump (the zero branch contributes neither), so it compiles to a
bare iSWAP; two known zeros compile to nothing.  Extension "ext2": emit bare
iSWAPs at the swap positions and defer each CZ to any moment where the two
logical values involved sit on a coupled edge again; the slots immediately
before and after the originating iSWAP are always legal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import gates
from .circuit import (
    MAX_WIRES, Circuit, CircuitFormatError, CouplingMap, Gate, as_int, as_list, as_pair
)
from .sim import UNITARY_WIRE_CAP, circuit_unitary


class UnschedulableCZError(RuntimeError):
    """No legal slot found for a deferred CZ (malformed path/coupling input)."""

    def __init__(self, swap_index: int, message: str):
        super().__init__(message)
        self.swap_index = swap_index


@dataclass(frozen=True)
class SwapPath:
    """Ordered SWAP sequence over n wires; the object being compiled."""

    n_wires: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", norm)
        for a, b in norm:
            if a == b:
                raise ValueError(f"SWAP pair ({a}, {b}) repeats a wire")
            if not (0 <= a < self.n_wires and 0 <= b < self.n_wires):
                raise ValueError(f"SWAP pair ({a}, {b}) outside 0..{self.n_wires - 1}")

    def __len__(self) -> int:
        return len(self.pairs)

    def value_at(self) -> list[int]:
        """After the network, wire w holds the value that started on wire value_at[w]."""
        held = list(range(self.n_wires))
        for a, b in self.pairs:
            held[a], held[b] = held[b], held[a]
        return held


def swap_path_to_dict(path: SwapPath) -> dict[str, Any]:
    return {"n": path.n_wires, "path": [list(p) for p in path.pairs]}


def swap_path_from_dict(data: Any) -> SwapPath:
    if not isinstance(data, dict):
        raise CircuitFormatError("swap path document must be a JSON object")
    n = as_int(data.get("n"), "n", limit=MAX_WIRES)
    pairs = as_list(data.get("path"), "path", as_pair)
    try:
        return SwapPath(n, pairs)
    except ValueError as e:
        raise CircuitFormatError(f"bad swap path document: {e}") from None


class PhaseLedger:
    """Per-wire S^dag counters that travel with the logical values."""

    def __init__(self, n_wires: int):
        self.n_wires = n_wires
        self.counts = [0] * n_wires

    def record_swap(self, a: int, b: int) -> None:
        c = self.counts
        c[a] += 1
        c[b] += 1
        c[a], c[b] = c[b], c[a]

    def record_one_sided(self, data_wire: int, zero_wire: int) -> None:
        # zero branch contributes i^0: only the moving data value is bumped
        c = self.counts
        c[data_wire] += 1
        c[data_wire], c[zero_wire] = c[zero_wire], c[data_wire]

    def phase_layer(self) -> list[Gate]:
        out = []
        for w, c in enumerate(self.counts):
            kind = gates.PHASE_BY_COUNT[c % 4]
            if kind is not None:
                out.append(Gate(kind, (w,)))
        return out

    def n_corrections(self) -> int:
        return sum(1 for c in self.counts if c % 4 != 0)


def ledger_by_conjugation(path: SwapPath) -> list[int]:
    """Closed-form counter computation: each SWAP deposits S^dag on both of its
    operands, then the deposit is conjugated through the remaining permutation
    (an S^dag commuted past a wire exchange follows its wire).  Independent
    route used to cross-check the incremental ledger."""
    counts = [0] * path.n_wires
    for j, (a, b) in enumerate(path.pairs):
        for label in (a, b):
            w = label
            for c, d in path.pairs[j + 1 :]:
                if w == c:
                    w = d
                elif w == d:
                    w = c
            counts[w] += 1
    return counts


@dataclass(frozen=True)
class CompileResult:
    circuit: Circuit
    ledger: PhaseLedger
    final_zeros: frozenset[int]

    @property
    def n_corrections(self) -> int:
        return self.ledger.n_corrections()


def compile_iscz(path: SwapPath) -> CompileResult:
    """Every SWAP becomes one fused iSCZ; one trailing phase layer."""
    ledger = PhaseLedger(path.n_wires)
    body = []
    for a, b in path.pairs:
        body.append(Gate(gates.ISCZ, (a, b)))
        ledger.record_swap(a, b)
    circuit = Circuit(path.n_wires, tuple(body + ledger.phase_layer()))
    return CompileResult(circuit, ledger, frozenset())


def unfuse_iscz(circuit: Circuit) -> Circuit:
    """Split every fused iSCZ into iSWAP followed by CZ (they commute)."""
    body: list[Gate] = []
    for g in circuit.gates:
        if g.kind.name == "iscz":
            body.append(Gate(gates.ISWAP, g.wires))
            body.append(Gate(gates.CZ, g.wires))
        else:
            body.append(g)
    return Circuit(circuit.n_wires, tuple(body), circuit.known_zero)


def compile_cnot_baseline(path: SwapPath) -> Circuit:
    """Textbook baseline: three CNOTs per SWAP, no phase corrections."""
    body = []
    for a, b in path.pairs:
        body.append(Gate(gates.CNOT, (a, b)))
        body.append(Gate(gates.CNOT, (b, a)))
        body.append(Gate(gates.CNOT, (a, b)))
    return Circuit(path.n_wires, tuple(body))


def compile_ext1(path: SwapPath, known_zero: frozenset[int] | set[int]) -> CompileResult:
    """Zero-aware compilation: SWAPs touching a tracked |0> drop their CZ."""
    known_zero = frozenset(known_zero)
    for w in known_zero:
        if not 0 <= w < path.n_wires:
            raise ValueError(f"known-zero wire {w} outside 0..{path.n_wires - 1}")
    zeros = set(known_zero)
    ledger = PhaseLedger(path.n_wires)
    body = []
    for a, b in path.pairs:
        a_zero, b_zero = a in zeros, b in zeros
        if a_zero and b_zero:
            continue  # |00> is a fixed point; nothing to emit or track
        if a_zero or b_zero:
            zero_w, data_w = (a, b) if a_zero else (b, a)
            body.append(Gate(gates.ISWAP, (a, b)))
            ledger.record_one_sided(data_w, zero_w)
            zeros.remove(zero_w)
            zeros.add(data_w)
        else:
            body.append(Gate(gates.ISCZ, (a, b)))
            ledger.record_swap(a, b)
    circuit = Circuit(path.n_wires, tuple(body + ledger.phase_layer()), known_zero)
    return CompileResult(circuit, ledger, frozenset(zeros))


@dataclass(frozen=True)
class PendingCZ:
    """A deferred CZ from swap j: acts on the two logical values it entangled."""

    swap_index: int
    values: tuple[int, int]  # identified by their initial wires
    slot: int  # number of iSWAPs preceding the CZ in the output
    wires: tuple[int, int]  # physical wires at that slot


@dataclass(frozen=True)
class Ext2Result:
    circuit: Circuit
    ledger: PhaseLedger
    pending: tuple[PendingCZ, ...]

    @property
    def n_corrections(self) -> int:
        return self.ledger.n_corrections()


def legal_cz_slots(path: SwapPath, coupling: CouplingMap, swap_index: int) -> list[int]:
    """All slots t (CZ after the first t iSWAPs) where swap_index's two values
    sit on a coupled edge.  Always contains swap_index and swap_index + 1 when
    the path runs on the map's edges."""
    m = len(path.pairs)
    if not 0 <= swap_index < m:
        raise ValueError(f"swap index {swap_index} outside 0..{m - 1}")
    return _legal_slots(path, coupling, _wire_of_value_by_slot(path), swap_index)[1]


def _wire_of_value_by_slot(path: SwapPath) -> list[list[int]]:
    """table[t][v]: the wire of value v (named by its initial wire) after t swaps."""
    wire_of = list(range(path.n_wires))
    table = [wire_of.copy()]
    for a, b in path.pairs:
        ia, ib = wire_of.index(a), wire_of.index(b)
        wire_of[ia], wire_of[ib] = b, a
        table.append(wire_of.copy())
    return table


def _legal_slots(
    path: SwapPath, coupling: CouplingMap, wire_of: list[list[int]], j: int
) -> tuple[tuple[int, int], list[int]]:
    """The two values swap j exchanges, and every slot where they are coupled."""
    a, b = path.pairs[j]
    v1, v2 = wire_of[j].index(a), wire_of[j].index(b)
    slots = [t for t, w in enumerate(wire_of) if coupling.has_edge(w[v1], w[v2])]
    return (v1, v2), slots


def compile_ext2(
    path: SwapPath, coupling: CouplingMap, policy: str = "earliest"
) -> Ext2Result:
    """Connectivity-aware compilation: bare iSWAPs in place, CZs deferred to a
    chosen legal slot.  The phase layer is identical to compile_iscz's."""
    if policy not in ("earliest", "latest"):
        raise ValueError(f"policy must be 'earliest' or 'latest', got {policy!r}")
    if coupling.n_wires != path.n_wires:
        raise ValueError(
            f"coupling map has {coupling.n_wires} wires, path {path.n_wires}"
        )
    m = len(path.pairs)
    wire_of = _wire_of_value_by_slot(path)
    ledger = PhaseLedger(path.n_wires)
    pending: list[PendingCZ] = []
    for j, (a, b) in enumerate(path.pairs):
        ledger.record_swap(a, b)
        values, slots = _legal_slots(path, coupling, wire_of, j)
        if not slots:
            raise UnschedulableCZError(
                j, f"deferred CZ of swap {j} has no legal slot on this coupling map"
            )
        t = slots[0] if policy == "earliest" else slots[-1]
        w1, w2 = (wire_of[t][v] for v in values)
        pending.append(PendingCZ(j, values, t, (min(w1, w2), max(w1, w2))))

    by_slot: dict[int, list[PendingCZ]] = {}
    for p in pending:
        by_slot.setdefault(p.slot, []).append(p)
    body: list[Gate] = []
    for t in range(m + 1):
        for p in sorted(by_slot.get(t, []), key=lambda p: p.wires):
            body.append(Gate(gates.CZ, p.wires))
        if t < m:
            body.append(Gate(gates.ISWAP, path.pairs[t]))
    circuit = Circuit(path.n_wires, tuple(body + ledger.phase_layer()))
    return Ext2Result(circuit, ledger, tuple(pending))


def _permuted_indices(path: SwapPath) -> np.ndarray:
    """Where the SWAP sequence sends each basis index: entry b is the index of
    the output basis state for input basis state b."""
    n = path.n_wires
    held = path.value_at()
    b = np.arange(2**n)
    bprime = np.zeros_like(b)
    for w in range(n):
        bprime |= ((b >> (n - 1 - held[w])) & 1) << (n - 1 - w)
    return bprime


def reference_permutation_unitary(path: SwapPath) -> np.ndarray:
    """The exact unitary of the SWAP sequence, built by permutation arithmetic
    on basis indices (no gate matrices involved); capped like circuit_unitary."""
    n = path.n_wires
    if n > UNITARY_WIRE_CAP:
        raise ValueError(f"refusing unitary on {n} wires (cap {UNITARY_WIRE_CAP})")
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[_permuted_indices(path), np.arange(2**n)] = 1.0
    return u


def apply_reference_permutation(path: SwapPath, vec: np.ndarray) -> np.ndarray:
    """Ideal output amplitudes of the SWAP sequence on a statevector."""
    out = np.zeros_like(np.asarray(vec, dtype=complex))
    out[_permuted_indices(path)] = vec
    return out


def verify_equivalence(
    path: SwapPath, circuit: Circuit, constraints: frozenset[int] | set[int] = frozenset()
) -> float:
    """Max elementwise deviation between the compiled circuit's unitary and the
    reference permutation, over basis columns whose constraint wires are 0.
    Exact equality including global phase is the target."""
    if circuit.n_wires != path.n_wires:
        raise ValueError(f"circuit has {circuit.n_wires} wires, path {path.n_wires}")
    u = circuit_unitary(circuit)  # refuses oversized circuits before allocating
    n = path.n_wires
    cols = np.arange(2**n)
    for w in constraints:
        cols = cols[(cols >> (n - 1 - w)) & 1 == 0]
    # u minus the reference on the kept columns, without building the reference
    diff = u[:, cols] if constraints else u
    diff[_permuted_indices(path)[cols], np.arange(len(cols))] -= 1.0
    return float(np.max(np.abs(diff)))
