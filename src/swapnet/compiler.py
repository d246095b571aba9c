"""SWAP networks compiled onto the native {CZ, iSWAP} gate set.

Core identity: iSCZ = iSWAP @ CZ differs from SWAP only by S^dag on each
operand (SWAP = iSCZ (S^dag x S^dag)), and an S^dag commuted through a
permutation lands on the permuted wire.  So a network of m SWAPs compiles to
m fused iSCZ gates plus one final layer of at most n single-qubit phase gates,
tracked by an integer counter per wire that travels with the logical value:

    per SWAP(a, b): emit iSCZ(a, b); counter[a] += 1; counter[b] += 1;
    exchange counter[a], counter[b]
    final layer: counter mod 4 -> 1: S^dag, 2: Z, 3: S, 0: nothing

compile_ext is the one loop that turns swaps into gates.  Ext1: a swap with
one known |0> operand needs no CZ and one phase bump (the zero branch adds
neither): a bare iSWAP, and the zero moves; two known zeros emit nothing.
Ext2, given a coupling map: any other swap is a bare iSWAP, its CZ deferred to
the earliest or latest slot at which its two values sit on an edge, the chosen
one found for every value pair by one forward sweep in O(m * degree).  That
sweep refuses a swap off the map, so every deferred CZ has a slot: its two
values sit on the swap's edge just before and just after it.  The rules commute:
following the values, iSWAPs are permutations times diagonals and CZs are
diagonals, and the CZs ext1 drops act on a known zero, the identity anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

import numpy as np

from . import gates
from .circuit import (
    MAX_WIRES, Circuit, CircuitFormatError, CouplingMap, Gate, as_int, as_list, as_pair, integral,
    phase_gates,
)
from .sim import basis_deviation, basis_steps, check_basis_cap, check_unitary_cap, counting_rows


@dataclass(frozen=True)
class SwapPath:
    """Ordered SWAP sequence over n wires; the object being compiled."""

    n_wires: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_wires", integral(self.n_wires, "n_wires"))
        norm = tuple((integral(a, "pair wire"), integral(b, "pair wire")) for a, b in self.pairs)
        object.__setattr__(self, "pairs", norm)
        if self.n_wires < 1:
            raise ValueError(f"swap path needs at least one wire, got n={self.n_wires}")
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
        return phase_gates(self.counts, range(self.n_wires))

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


class PendingCZ(NamedTuple):
    """A deferred CZ from swap j: acts on the two logical values it entangled."""

    swap_index: int
    values: tuple[int, int]  # identified by their initial wires
    slot: int  # number of swaps of the path before the CZ
    wires: tuple[int, int]  # physical wires at that slot


@dataclass(frozen=True)
class CompileResult:
    circuit: Circuit
    ledger: PhaseLedger
    final_zeros: frozenset[int]
    pending: tuple[PendingCZ, ...]


def _coupled_spans(path: SwapPath, coupling: CouplingMap, latest: bool) -> tuple[list, dict]:
    """For each swap, the two values it exchanges and their sorted pair; and
    for each value pair that ever sits on an edge, the (slot, sorted wires) of
    the first slot at which it does, or of the last one when latest.  A swap
    only moves the pairs on edges at its two wires.  A swap off the map is
    refused by index and wires."""
    around: list[list[tuple]] = [[] for _ in range(path.n_wires)]
    for a, b in coupling.edges:
        around[a].append((a, b, (a, b)))
        around[b].append((b, a, (a, b)))
    value_on = list(range(path.n_wires))
    moved, slots = [], {}  # earliest keeps a pair's first entry, latest its last

    def place(t: int, edges: list[tuple]) -> None:
        for c, d, wires in edges:
            u, v = value_on[c], value_on[d]
            pair = (u, v) if u < v else (v, u)
            if latest or pair not in slots:
                slots[pair] = (t, wires)

    every_edge = [(a, b, (a, b)) for a, b in coupling.edges]
    if not latest:
        place(0, every_edge)
    for t, (a, b) in enumerate(path.pairs, 1):
        if ((a, b) if a < b else (b, a)) not in coupling.edges:
            raise ValueError(f"swap {t - 1} on wires ({a}, {b}) is not an edge of the coupling map")
        u, v = value_on[a], value_on[b]
        moved.append(((u, v), (u, v) if u < v else (v, u)))
        if latest:  # the pairs on these edges may leave them here
            place(t - 1, around[a] + around[b])
        value_on[a], value_on[b] = v, u
        if not latest:  # or arrive here
            place(t, around[a] + around[b])
    if latest:
        place(len(path.pairs), every_edge)
    return moved, slots


def compile_ext(
    path: SwapPath, coupling: CouplingMap | None = None, known_zero: Iterable[int] = (),
    policy: str = "earliest",
) -> CompileResult:
    """The one loop that turns swaps into gates; see the module docstring."""
    if policy not in ("earliest", "latest"):
        raise ValueError(f"policy must be 'earliest' or 'latest', got {policy!r}")
    known_zero = frozenset(integral(w, "known-zero wire") for w in known_zero)
    for w in known_zero:
        if not 0 <= w < path.n_wires:
            raise ValueError(f"known-zero wire {w} outside 0..{path.n_wires - 1}")
    slots = None
    if coupling is not None:
        if coupling.n_wires != path.n_wires:
            raise ValueError(f"coupling map has {coupling.n_wires} wires, path {path.n_wires}")
        moved, slots = _coupled_spans(path, coupling, policy == "latest")
    zeros = set(known_zero)
    ledger = PhaseLedger(path.n_wires)
    swaps: list[Gate | None] = []  # one per swap of the path; None for a |00> fixed point
    pending: list[PendingCZ] = []
    for j, (a, b) in enumerate(path.pairs):
        a_zero, b_zero = a in zeros, b in zeros
        if a_zero and b_zero:
            swaps.append(None)
        elif a_zero or b_zero:
            zero_w, data_w = (a, b) if a_zero else (b, a)
            swaps.append(Gate(gates.ISWAP, (a, b)))
            ledger.record_one_sided(data_w, zero_w)
            zeros.remove(zero_w)
            zeros.add(data_w)
        else:
            ledger.record_swap(a, b)
            swaps.append(Gate(gates.ISCZ if slots is None else gates.ISWAP, (a, b)))
            if slots is not None:
                values, pair = moved[j]
                pending.append(PendingCZ(j, values, *slots[pair]))

    # the CZs of slot t go just before swap t's gate, in wire order
    body: list[Gate] = []
    done = 0
    for slot, wires in sorted((p.slot, p.wires) for p in pending):
        if slot > done:
            body += filter(None, swaps[done:slot])
            done = slot
        body.append(Gate(gates.CZ, wires))
    body += filter(None, swaps[done:])
    circuit = Circuit(path.n_wires, tuple(body + ledger.phase_layer()), known_zero)
    return CompileResult(circuit, ledger, frozenset(zeros), tuple(pending))


def compile_iscz(path: SwapPath) -> CompileResult:
    """Every SWAP becomes one fused iSCZ; one trailing phase layer."""
    return compile_ext(path)


def compile_ext1(path: SwapPath, known_zero: frozenset[int] | set[int]) -> CompileResult:
    """Zero-aware compilation: SWAPs touching a tracked |0> drop their CZ."""
    return compile_ext(path, known_zero=known_zero)


def compile_ext2(path: SwapPath, coupling: CouplingMap, policy: str = "earliest") -> CompileResult:
    """Connectivity-aware compilation: bare iSWAPs, each CZ deferred to a legal slot."""
    return compile_ext(path, coupling, policy=policy)


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


def reference_permutation_unitary(path: SwapPath) -> np.ndarray:
    """The exact unitary of the SWAP sequence, built by permutation arithmetic
    on basis indices (no gate matrices involved); capped like circuit_unitary.
    Output wire w holds the bit that started on wire value_at()[w]."""
    n = path.n_wires
    check_unitary_cap(n)
    inputs = np.arange(2**n)
    index = np.zeros(2**n, dtype=np.intp)
    for v in path.value_at():
        index = (index << 1) | ((inputs >> (n - 1 - v)) & 1)
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[index, inputs] = 1.0
    return u


def verify_equivalence(
    path: SwapPath, circuit: Circuit, constraints: frozenset[int] | set[int] = frozenset()
) -> float:
    """Max elementwise deviation between the compiled circuit's unitary and the
    reference permutation, over basis columns whose constraint wires are 0,
    exactly, global phase included.  The kept columns span the free wires,
    each free wire taking the next counting row and each constraint wire the
    row 0; n x 2**len(free) is bounded by sim.check_basis_cap, and a gate
    outside the SWAP-network set refused by sim.basis_steps, before they exist."""
    if circuit.n_wires != path.n_wires:
        raise ValueError(f"circuit has {circuit.n_wires} wires, path {path.n_wires}")
    n = path.n_wires
    constraints = {integral(w, "constraint wire") for w in constraints}
    if any(not 0 <= w < n for w in constraints):
        raise ValueError(f"constraint wires {sorted(constraints)} not all in 0..{n - 1}")
    free = n - len(constraints)
    check_basis_cap(n, 2**free)
    steps = basis_steps(circuit)
    counting = iter(counting_rows(free))
    rows = [0 if w in constraints else next(counting) for w in range(n)]
    # wire w ends up holding the value that started on wire value_at()[w]
    return basis_deviation(steps, rows, [rows[v] for v in path.value_at()], 2**free)
