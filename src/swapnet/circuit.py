"""Circuit IR: gate lists over numbered wires, coupling maps, metrics, JSON.

Gates are hash-consed: equal gates are one shared immutable object for the
life of the process, so each distinct gate is checked and stored once however
often it is emitted.  A Circuit is immutable.  known_zero records wires
promised to start in |0>; compilation passes may rely on that promise and
verification restricts input columns to it.

JSON schema (stable interchange format):

    circuit:  {"n": int, "known_zero": [int], "gates":
                 [{"kind": str, "wires": [int], "params": [float]}]}
    coupling: {"n": int, "edges": [[int, int]]}

"params" may be omitted for parameter-free kinds; "known_zero" may be omitted
when empty.  Gate kind names are the lowercase strings from gates.ARITY.
Fields are read strictly by the shared as_* readers; load_json reads all four schemas.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable, TypeVar

from .gates import ARITY, PHASE_BY_COUNT, GateKind

T = TypeVar("T")

# Documents declaring more wires than this are refused when read, before any
# per-wire table is allocated for them.
MAX_WIRES = 1 << 16


class CircuitFormatError(ValueError):
    """Raised when circuit/coupling JSON is malformed; message names the field."""


def integral(value: Any, name: str) -> int:
    """value as an int when it equals one (1.0 and True are 1), else a ValueError."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


# Every Gate built, keyed by its kind's name and params and its wires (hashing
# those is cheaper than hashing the kind).  Entries never leave: each command is
# one short process that holds every gate it built until it ends anyway.
_GATES: dict[tuple, Gate] = {}


@dataclass(frozen=True, init=False)
class Gate:
    """A gate kind on distinct wires.  Equal gates are one shared immutable
    object: Gate(kind, wires) returns the one already built when there is one,
    and checks and stores a new one only otherwise.  A refused gate is never
    stored."""

    kind: GateKind
    wires: tuple[int, ...]

    def __new__(cls, kind: GateKind, wires: Iterable[int]) -> "Gate":
        if type(wires) is not tuple:
            wires = tuple(wires)
        key = (kind.name, kind.params, wires)
        gate = _GATES.get(key)
        if gate is not None:
            return gate
        wires = tuple(integral(w, "wire") for w in wires)  # as the lookup: 1.0 is wire 1
        if len(wires) != kind.arity:
            raise ValueError(f"{kind} expects {kind.arity} wires, got {wires}")
        if len(set(wires)) != len(wires):
            raise ValueError(f"repeated wire in {kind} on {wires}")
        gate = object.__new__(cls)
        object.__setattr__(gate, "kind", kind)
        object.__setattr__(gate, "wires", wires)
        _GATES[kind.name, kind.params, wires] = gate
        return gate

    def __reduce__(self):
        # rebuilt through Gate() with no state to write back, so pickle (every
        # protocol), copy and deepcopy hand back the stored gate untouched
        return Gate, (self.kind, self.wires)

    def __str__(self) -> str:
        return f"{self.kind} {' '.join(map(str, self.wires))}"


@dataclass(frozen=True)
class Circuit:
    n_wires: int
    gates: tuple[Gate, ...] = ()
    known_zero: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "n_wires", integral(self.n_wires, "n_wires"))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "known_zero", frozenset(integral(w, "wire") for w in self.known_zero))
        if self.n_wires < 1:
            raise ValueError("circuit needs at least one wire")
        for g in self.gates:
            for w in g.wires:
                if not 0 <= w < self.n_wires:
                    raise ValueError(f"gate {g} touches wire {w} outside 0..{self.n_wires - 1}")
        for w in self.known_zero:
            if not 0 <= w < self.n_wires:
                raise ValueError(f"known_zero wire {w} outside 0..{self.n_wires - 1}")

    def __len__(self) -> int:
        return len(self.gates)


def phase_gates(counts: Iterable[int], wires: Iterable[int]) -> list[Gate]:
    """(S^dag)^c on each wire for its count c; counts that are 0 mod 4 emit nothing."""
    return [Gate(PHASE_BY_COUNT[c % 4], (w,)) for c, w in zip(counts, wires) if c % 4]


@dataclass(frozen=True)
class CouplingMap:
    """Undirected connectivity; edges stored as sorted pairs."""

    n_wires: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "n_wires", integral(self.n_wires, "n_wires"))
        pairs = ((integral(a, "edge wire"), integral(b, "edge wire")) for a, b in self.edges)
        norm = frozenset((min(a, b), max(a, b)) for a, b in pairs)
        object.__setattr__(self, "edges", norm)
        if self.n_wires < 1:
            raise ValueError(f"coupling map needs at least one wire, got n={self.n_wires}")
        for a, b in norm:
            if a == b:
                raise ValueError(f"self-loop edge ({a}, {b})")
            if not (0 <= a < self.n_wires and 0 <= b < self.n_wires):
                raise ValueError(f"edge ({a}, {b}) outside 0..{self.n_wires - 1}")

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    @staticmethod
    def line(n: int) -> "CouplingMap":
        return CouplingMap(n, frozenset((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def grid(rows: int, cols: int) -> "CouplingMap":
        edges = set()
        for r in range(rows):
            for c in range(cols):
                w = r * cols + c
                if c + 1 < cols:
                    edges.add((w, w + 1))
                if r + 1 < rows:
                    edges.add((w, w + cols))
        return CouplingMap(rows * cols, frozenset(edges))


@dataclass(frozen=True)
class Metrics:
    total_gates: int
    single_qubit_gates: int
    two_qubit_gates: int
    three_qubit_gates: int
    depth: int
    two_qubit_depth: int

    def line(self) -> str:
        return (
            f"gates={self.total_gates} 1q={self.single_qubit_gates} "
            f"2q={self.two_qubit_gates} 3q={self.three_qubit_gates} "
            f"depth={self.depth} 2q_depth={self.two_qubit_depth}"
        )


def metrics(circuit: Circuit) -> Metrics:
    """Gate counts and depths in one pass over a per-wire frontier: each gate
    lands one layer past the busiest wire it touches (greedy ASAP layering),
    and the two-qubit depth counts the layers holding a multi-wire gate.
    Gates touch one, two or three wires (gates.ARITY)."""
    frontier = [0] * circuit.n_wires
    one = three = 0
    multi_wire = bytearray(len(circuit.gates) + 1)  # 1 at each layer with such a gate
    for wires in map(attrgetter("wires"), circuit.gates):
        if len(wires) == 2:
            a, b = wires
            fa, fb = frontier[a], frontier[b]
            layer = frontier[a] = frontier[b] = (fa if fa > fb else fb) + 1
            multi_wire[layer] = 1
        elif len(wires) == 1:
            frontier[wires[0]] += 1
            one += 1
        else:
            a, b, c = wires
            fa, fb, fc = frontier[a], frontier[b], frontier[c]
            layer = frontier[a] = frontier[b] = frontier[c] = max(fa, fb, fc) + 1
            multi_wire[layer] = 1
            three += 1
    total = len(circuit.gates)
    return Metrics(
        total_gates=total,
        single_qubit_gates=one,
        two_qubit_gates=total - one - three,
        three_qubit_gates=three,
        depth=max(frontier),
        two_qubit_depth=multi_wire.count(1),
    )


@dataclass(frozen=True)
class Violation:
    gate_index: int
    gate: Gate
    reason: str

    def __str__(self) -> str:
        return f"gate {self.gate_index} ({self.gate}): {self.reason}"


def validate(circuit: Circuit, coupling: CouplingMap) -> list[Violation]:
    """Structural checks beyond construction: coupling-map conformance of
    multi-qubit gates.  A coupling map of another size is refused."""
    if coupling.n_wires != circuit.n_wires:
        raise ValueError(f"coupling map has {coupling.n_wires} wires, circuit {circuit.n_wires}")
    out = []
    for i, g in enumerate(circuit.gates):
        if len(g.wires) < 2:
            continue
        for a_i in range(len(g.wires)):
            for b_i in range(a_i + 1, len(g.wires)):
                a, b = g.wires[a_i], g.wires[b_i]
                if not coupling.has_edge(a, b):
                    out.append(Violation(i, g, f"wires {a},{b} not coupled"))
    return out


def circuit_to_dict(circuit: Circuit) -> dict[str, Any]:
    gates = []
    for g in circuit.gates:
        entry: dict[str, Any] = {"kind": g.kind.name, "wires": list(g.wires)}
        if g.kind.params:
            entry["params"] = list(g.kind.params)
        gates.append(entry)
    out: dict[str, Any] = {"n": circuit.n_wires, "gates": gates}
    if circuit.known_zero:
        out["known_zero"] = sorted(circuit.known_zero)
    return out


def circuit_from_dict(data: Any) -> Circuit:
    if not isinstance(data, dict):
        raise CircuitFormatError("circuit document must be a JSON object")
    n = as_int(data.get("n"), "n", limit=MAX_WIRES)
    gates = as_list(data.get("gates", []), "gates", _gate_from_dict)
    known_zero = as_list(data.get("known_zero", []), "known_zero", as_int)
    if len(set(known_zero)) < len(known_zero):
        raise _refuse("known_zero", "distinct wires", data["known_zero"])
    try:
        return Circuit(n, gates, frozenset(known_zero))
    except ValueError as e:
        raise CircuitFormatError(str(e)) from None


def _gate_from_dict(entry: Any, name: str) -> Gate:
    if not isinstance(entry, dict) or "kind" not in entry or "wires" not in entry:
        raise CircuitFormatError(f'{name} needs "kind" and "wires"')
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in ARITY:
        raise CircuitFormatError(f"{name}.kind {kind!r} is not a known gate")
    params = as_list(entry.get("params", []), f"{name}.params", as_float)
    wires = as_list(entry["wires"], f"{name}.wires", as_int)
    try:
        return Gate(GateKind(kind, params), wires)
    except ValueError as e:
        raise CircuitFormatError(f"{name}: {e}") from None


def coupling_from_dict(data: Any) -> CouplingMap:
    if not isinstance(data, dict):
        raise CircuitFormatError("coupling document must be a JSON object")
    n = as_int(data.get("n"), "n", limit=MAX_WIRES)
    edges = as_list(data.get("edges", []), "edges", as_pair)
    if len({frozenset(e) for e in edges}) < len(edges):
        raise _refuse("edges", "distinct undirected edges", data["edges"])
    try:
        return CouplingMap(n, frozenset(edges))
    except ValueError as e:
        raise CircuitFormatError(f"bad coupling document: {e}") from None


def dump_json(circuit: Circuit, path: str | None = None) -> None:
    """Write the circuit's document, indented, to path or else to stdout."""
    doc = json.dumps(circuit_to_dict(circuit), indent=1) + "\n"
    if path is None:
        sys.stdout.write(doc)
    else:
        with open(path, "w") as fh:
            fh.write(doc)


def load_json(path: str, from_dict: Callable[[Any], T]) -> T:
    """Read the JSON document at path and parse it with one of the *_from_dict readers."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise CircuitFormatError(f"{path}: invalid JSON ({e})") from None
    return from_dict(data)


# Strict field readers: a bool is not an integer, a whole float is not an
# integer, a string is not a list.  Each names the field in its error.


def _refuse(name: str, want: str, value: Any) -> CircuitFormatError:
    return CircuitFormatError(f"field {name} must be {want}, got {value!r:.40}")


def as_int(value: Any, name: str, limit: int | None = None) -> int:
    """An integer field, refused above limit when one is given."""
    if type(value) is not int:
        raise _refuse(name, "an integer", value)
    if limit is not None and value > limit:
        raise _refuse(name, f"at most {limit}", value)
    return value


def as_list(value: Any, name: str, item: Callable[[Any, str], T]) -> tuple[T, ...]:
    """A list field, each element read by item under the name name[i]."""
    if not isinstance(value, list):
        raise _refuse(name, "a list", value)
    return tuple(item(v, f"{name}[{i}]") for i, v in enumerate(value))


def as_pair(value: Any, name: str) -> tuple[int, int]:
    pair = as_list(value, name, as_int)
    if len(pair) != 2:
        raise _refuse(name, "a pair of integers", value)
    return pair


def as_float(value: Any, name: str) -> float:
    """A finite number field; integers are accepted and converted."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise _refuse(name, "a finite number", value)


def as_bool(value: Any, name: str) -> bool:
    if type(value) is not bool:
        raise _refuse(name, "true or false", value)
    return value
