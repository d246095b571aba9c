"""Bucket-brigade QRAM circuit construction.

The circuit has three stages: address setting (each address bus bit is handed
to the root and routed down to its tree layer, where an Internal-SWAP parks it
in the address registers), data fetch (each data bus bit travels to the
addressed leaf, XORs in the addressed memory bit, and travels back), and
address uncomputing (the reverse of setting).  With `pipeline` on, fetch ops
follow the merged schedule from schedule.py; counter-moving data bits share
one bidirectional Routing.

With `extensions` on, every Routing and non-root Internal-SWAP pair drops its
CZ half: unidirectional pairs because one operand is a known |0> (bare iSWAP +
C-iSWAP), bidirectional ones by deferring the CZ onto the bus wires.  Each
iSWAP crossing multiplies the moving bit b by i^b, which single-qubit phase
gates on the bus undo: (S^dag)^h for h crossings, applied while the wire holds
the affected value (before the copy for the downward data leg, at the end for
the upward leg and the address bits).  The tree fixes every route, so h is a
closed form: n - 1 each way for a data bit, 2(l + 1) for address bit l >= 1
(l Routings and an Internal-SWAP each way), none for bit 0.  A bidirectional
exchange of bits x, y additionally leaves (-1)^(x*y); its x*z part is
cancelled by CZs between bus data wires at the start (both still hold their
initial values) and its memory-dependent part by diagonal parity gates at the
leaves right before the affected word's copy, using per-word parity cells
precomputed from the memory.

Gate-family tallies are recorded by construction role as the builder emits,
never by scanning gate kinds, so decompositions (e.g. the ccx Toffolis
inside a multi-controlled X) cannot leak into protocol-level counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable

from .. import gates
from ..circuit import (
    MAX_WIRES, Circuit, CircuitFormatError, Gate, as_bool, as_int, as_list, integral, phase_gates
)
from .layout import TreeLayout
from .schedule import pipeline_schedule, word_chain


@dataclass(frozen=True)
class QramSpec:
    """n address bits, k-bit words, one memory value per cell (2**n of them).

    Bit i of a word is (value >> (k - 1 - i)) & 1, matching data bus wire i
    (wire 0 carries the most significant bit).
    """

    n: int
    k: int
    memory: tuple[int, ...]
    extensions: bool = False
    pipeline: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", integral(self.n, "n"))
        object.__setattr__(self, "k", integral(self.k, "k"))
        object.__setattr__(self, "memory", tuple(integral(v, "memory value") for v in self.memory))
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        if len(self.memory) != 2**self.n:
            raise ValueError(
                f"memory must list 2**n = {2**self.n} cells, got {len(self.memory)}"
            )
        for v in self.memory:
            if not 0 <= v < 2**self.k:
                raise ValueError(f"memory value {v} outside 0..{2**self.k - 1}")

    def bit(self, cell: int, word: int) -> int:
        return (self.memory[cell] >> (self.k - 1 - word)) & 1


def qram_spec_from_dict(data: Any) -> QramSpec:
    if not isinstance(data, dict):
        raise CircuitFormatError("qram spec document must be a JSON object")
    n = as_int(data.get("n"), "n", limit=MAX_WIRES)
    k = as_int(data.get("k"), "k", limit=MAX_WIRES)
    memory = as_list(data.get("memory"), "memory", as_int)
    extensions = as_bool(data.get("extensions", False), "extensions")
    pipeline = as_bool(data.get("pipeline", False), "pipeline")
    try:
        return QramSpec(n, k, memory, extensions, pipeline)
    except ValueError as e:
        raise CircuitFormatError(f"bad qram spec document: {e}") from None


@dataclass
class QramBuildRecord:
    """Instrumented tallies, by construction role."""

    internal_swap_pairs: int = 0
    root_swaps: int = 0
    setting_routing_pairs: int = 0
    fetch_routing_ops: int = 0
    fetch_unidirectional_pairs: int = 0
    fetch_bidirectional_pairs: int = 0
    merged_routings: int = 0
    ext1_saved_pairs: int = 0
    ext2_saved_pairs: int = 0
    cz_on_qpu: int = 0
    parity_correction_events: int = 0
    extra_memory_cells: int = 0
    phase_correction_gates: int = 0


@dataclass(frozen=True)
class QramBuild:
    spec: QramSpec
    layout: TreeLayout
    circuit: Circuit
    record: QramBuildRecord


def build_qram_circuit(spec: QramSpec) -> QramBuild:
    return _Builder(spec).build()


class _Builder:
    def __init__(self, spec: QramSpec):
        self.spec = spec
        self.lay = TreeLayout(spec.n, spec.k)
        self.rec = QramBuildRecord()
        self.swap_kind = gates.ISWAP if spec.extensions else gates.SWAP
        self.cswap_kind = gates.CISWAP if spec.extensions else gates.CSWAP
        self.seg: list[Gate] = []
        # each repeated gate run of this build (its kinds follow the spec), by its arguments
        self.runs: dict[tuple, list[Gate]] = {}

    def emit(self, kind: gates.GateKind, *wires: int) -> None:
        self.seg.append(Gate(kind, tuple(wires)))

    def emit_run(self, key: tuple, build: Callable[..., None], *args: Any) -> None:
        """Emit the gates build(*args) emits, calling it only on key's first use."""
        if key in self.runs:
            self.seg.extend(self.runs[key])
        else:
            start = len(self.seg)
            build(*args)
            self.runs[key] = self.seg[start:]

    def build(self) -> QramBuild:
        self._setting()
        self._fetch()
        self._uncompute_setting()
        head = self._start_corrections()
        tail = self._end_corrections()
        rec = self.rec
        if self.spec.extensions:
            rec.ext1_saved_pairs = (
                rec.internal_swap_pairs
                + rec.setting_routing_pairs
                + rec.fetch_unidirectional_pairs
            )
            rec.ext2_saved_pairs = rec.fetch_bidirectional_pairs
        circuit = Circuit(
            self.lay.n_wires,
            tuple(head + self.seg + tail),
            self.lay.ancilla_wires(),
        )
        return QramBuild(self.spec, self.lay, circuit, rec)

    # -- address stage ------------------------------------------------------

    def _setting(self) -> None:
        for l in range(self.spec.n):
            self.emit(gates.SWAP, self.lay.address(l), self.lay.node_data(0, 0))
            for j in range(l):
                self._routing(j, setting=True)
            self._internal_swap(l)

    def _uncompute_setting(self) -> None:
        for l in reversed(range(self.spec.n)):
            self._internal_swap(l)
            for j in reversed(range(l)):
                self._routing(j, setting=True, up=True)
            self.emit(gates.SWAP, self.lay.address(l), self.lay.node_data(0, 0))

    def _internal_swap(self, l: int) -> None:
        lay = self.lay
        if l == 0:
            # the root hands its data register straight to its address register
            self.emit(gates.SWAP, lay.node_addr(0, 0), lay.node_data(0, 0))
            self.rec.root_swaps += 1
            return
        for m in range(2 ** (l - 1)):
            left, right = 2 * m, 2 * m + 1
            self.emit(self.swap_kind, lay.node_addr(l, left), lay.node_data(l, left))
            self.emit(
                self.cswap_kind,
                lay.node_addr(l - 1, m),
                lay.node_addr(l, right),
                lay.node_data(l, right),
            )
        self.rec.internal_swap_pairs += 2 ** (l - 1)

    # -- routing primitives -------------------------------------------------

    def _routing(self, j: int, setting: bool, up: bool = False) -> None:
        self.emit_run(("routing", j, up), self._routing_gates, j, up)
        if setting:
            self.rec.setting_routing_pairs += 2**j
        else:
            self.rec.fetch_unidirectional_pairs += 2**j
            self.rec.fetch_routing_ops += 1

    def _routing_gates(self, j: int, up: bool) -> None:
        # the moving bit crosses exactly one member of the pair either branch:
        # going down, C-SWAP to the right child first, then SWAP to the left
        # child; going up, the same two gates in the opposite order
        lay = self.lay
        for m in range(2**j):
            pd = lay.node_data(j, m)
            pair = [
                Gate(self.cswap_kind, (lay.node_addr(j, m), pd, lay.node_data(j + 1, 2 * m + 1))),
                Gate(self.swap_kind, (pd, lay.node_data(j + 1, 2 * m))),
            ]
            self.seg.extend(reversed(pair) if up else pair)

    def _routing_bidir(self, j: int) -> None:
        self.emit_run(("bidir", j), self._routing_bidir_gates, j)
        self.rec.fetch_bidirectional_pairs += 2**j
        self.rec.fetch_routing_ops += 1
        self.rec.merged_routings += 1

    def _routing_bidir_gates(self, j: int) -> None:
        # one exchange parent.d <-> on-path child.d: anti-controlled to the
        # left child, controlled to the right; off-path parents exchange (0,0)
        lay = self.lay
        for m in range(2**j):
            aw, pd = lay.node_addr(j, m), lay.node_data(j, m)
            self.emit(gates.X, aw)
            self.emit(self.cswap_kind, aw, pd, lay.node_data(j + 1, 2 * m))
            self.emit(gates.X, aw)
            self.emit(self.cswap_kind, aw, pd, lay.node_data(j + 1, 2 * m + 1))

    # -- fetch stage --------------------------------------------------------

    def _fetch(self) -> None:
        n, k = self.spec.n, self.spec.k
        if self.spec.pipeline:
            steps = pipeline_schedule(n, k).steps
            ops = [(op.kind, op.words, op.layers) for step in steps for op in step]
        else:
            ops = [(kind, (i,), layers) for i in range(k) for kind, layers in word_chain(n)]
        for op in ops:
            self._fetch_op(*op)

    def _fetch_op(self, kind: str, words: tuple[int, ...], layers: tuple[int, ...]) -> None:
        if kind in ("D", "Ddag"):
            self.emit(gates.SWAP, self.lay.data(words[0]), self.lay.node_data(0, 0))
        elif kind == "Rdown":
            self._routing(layers[0], setting=False)
        elif kind == "Rup":
            self._routing(layers[0], setting=False, up=True)
        elif kind == "Rbidir":
            self._routing_bidir(layers[0])
        elif kind == "M":
            self._memory_copy(words[0])
        else:
            raise AssertionError(f"unknown schedule op {kind}")

    def _memory_copy(self, word: int) -> None:
        self._parity_corrections(word)
        n = self.spec.n
        for cell in range(2**n):
            if self.spec.bit(cell, word):
                self.emit_run(("copy", cell), self._copy_cell, cell)

    def _copy_cell(self, cell: int) -> None:
        self._mcx(self.lay.cell_path_controls(cell), self.lay.node_data(self.spec.n - 1, cell >> 1))

    def _parity_corrections(self, word: int) -> None:
        """Cancel (-1)^(z_word * fetched_bit_j) phases left by bidirectional
        exchanges with earlier words j, using parities of the memory itself."""
        if not (self.spec.extensions and self.spec.pipeline) or word == 0:
            return
        self.rec.parity_correction_events += 1
        n = self.spec.n
        window = range(max(0, word - (n - 1)), word)
        lay = self.lay
        for q in range(2 ** (n - 1)):
            p0 = reduce(lambda acc, j: acc ^ self.spec.bit(2 * q, j), window, 0)
            p1 = reduce(lambda acc, j: acc ^ self.spec.bit(2 * q + 1, j), window, 0)
            aw, dw = lay.node_addr(n - 1, q), lay.node_data(n - 1, q)
            if p0:
                self.emit(gates.Z, dw)
            if p0 ^ p1:
                self.emit(gates.CZ, aw, dw)

    def _mcx(self, controls: list[tuple[int, int]], target: int) -> None:
        negated = [w for w, want in controls if want == 0]
        for w in negated:
            self.emit(gates.X, w)
        ws = [w for w, _ in controls]
        if len(ws) == 1:
            self.emit(gates.CNOT, ws[0], target)
        elif len(ws) == 2:
            self.emit(gates.CCX, ws[0], ws[1], target)
        else:
            s = [self.lay.scratch(i) for i in range(len(ws) - 2)]
            self.emit(gates.CCX, ws[0], ws[1], s[0])
            for idx in range(2, len(ws) - 1):
                self.emit(gates.CCX, s[idx - 2], ws[idx], s[idx - 1])
            self.emit(gates.CCX, s[-1], ws[-1], target)
            for idx in range(len(ws) - 2, 1, -1):
                self.emit(gates.CCX, s[idx - 2], ws[idx], s[idx - 1])
            self.emit(gates.CCX, ws[0], ws[1], s[0])
        for w in negated:
            self.emit(gates.X, w)

    # -- phase corrections --------------------------------------------------

    def _phase_corrections(self, hops: list[int], wire: Callable[[int], int]) -> list[Gate]:
        """(S^dag)^h on wire(i) for h = hops[i] crossings, tallied."""
        out = phase_gates(hops, map(wire, range(len(hops))))
        self.rec.phase_correction_gates += len(out)
        return out

    def _start_corrections(self) -> list[Gate]:
        if not self.spec.extensions:
            return []
        out = self._phase_corrections([self.spec.n - 1] * self.spec.k, self.lay.data)
        if self.spec.pipeline:
            n = self.spec.n
            for i in range(self.spec.k):
                for j in range(max(0, i - (n - 1)), i):
                    out.append(Gate(gates.CZ, (self.lay.data(j), self.lay.data(i))))
                    self.rec.cz_on_qpu += 1
            self.rec.extra_memory_cells = self.spec.k - 1
        return out

    def _end_corrections(self) -> list[Gate]:
        if not self.spec.extensions:
            return []
        up = self._phase_corrections([self.spec.n - 1] * self.spec.k, self.lay.data)
        # address bit l >= 1: l Routings and one Internal-SWAP, each way
        addr = [2 * (l + 1) if l else 0 for l in range(self.spec.n)]
        return up + self._phase_corrections(addr, self.lay.address)
