"""Circuit IR: gate lists over numbered wires, coupling maps, metrics, JSON.

A Circuit is immutable.  known_zero records wires promised to start in |0>;
compilation passes may rely on that promise and verification restricts input
columns to it.

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
from typing import Any, Callable, Iterable, TypeVar

from .gates import ARITY, GateKind

T = TypeVar("T")

# Documents declaring more wires than this are refused when read, before any
# per-wire table is allocated for them.
MAX_WIRES = 1 << 16


class CircuitFormatError(ValueError):
    """Raised when circuit/coupling JSON is malformed; message names the field."""


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    wires: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if len(self.wires) != self.kind.arity:
            raise ValueError(
                f"{self.kind} expects {self.kind.arity} wires, got {self.wires}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"repeated wire in {self.kind} on {self.wires}")

    def __str__(self) -> str:
        return f"{self.kind} {' '.join(map(str, self.wires))}"


@dataclass(frozen=True)
class Circuit:
    n_wires: int
    gates: tuple[Gate, ...] = ()
    known_zero: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "known_zero", frozenset(self.known_zero))
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

    def extended(self, more: Iterable[Gate]) -> "Circuit":
        return Circuit(self.n_wires, self.gates + tuple(more), self.known_zero)


@dataclass(frozen=True)
class CouplingMap:
    """Undirected connectivity; edges stored as sorted pairs."""

    n_wires: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        norm = frozenset((min(a, b), max(a, b)) for a, b in self.edges)
        object.__setattr__(self, "edges", norm)
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
    def ring(n: int) -> "CouplingMap":
        if n < 3:
            raise ValueError("ring needs n >= 3")
        return CouplingMap(n, frozenset((i, (i + 1) % n) for i in range(n)))

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

    @staticmethod
    def complete(n: int) -> "CouplingMap":
        return CouplingMap(
            n, frozenset((i, j) for i in range(n) for j in range(i + 1, n))
        )


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


def layers(circuit: Circuit) -> list[list[Gate]]:
    """Greedy as-soon-as-possible layering: each gate lands one past the busiest wire it touches."""
    frontier = [0] * circuit.n_wires
    out: list[list[Gate]] = []
    for g in circuit.gates:
        layer = max(frontier[w] for w in g.wires)
        if layer == len(out):
            out.append([])
        out[layer].append(g)
        for w in g.wires:
            frontier[w] = layer + 1
    return out


def metrics(circuit: Circuit) -> Metrics:
    by_arity = {1: 0, 2: 0, 3: 0}
    for g in circuit.gates:
        by_arity[len(g.wires)] += 1
    lays = layers(circuit)
    two_q_depth = sum(1 for lay in lays if any(len(g.wires) >= 2 for g in lay))
    return Metrics(
        total_gates=len(circuit.gates),
        single_qubit_gates=by_arity[1],
        two_qubit_gates=by_arity[2],
        three_qubit_gates=by_arity[3],
        depth=len(lays),
        two_qubit_depth=two_q_depth,
    )


@dataclass(frozen=True)
class Violation:
    gate_index: int
    gate: Gate | None
    reason: str

    def __str__(self) -> str:
        if self.gate is None:
            return self.reason
        return f"gate {self.gate_index} ({self.gate}): {self.reason}"


def validate(circuit: Circuit, coupling: CouplingMap | None = None) -> list[Violation]:
    """Structural checks beyond construction: coupling-map conformance of multi-qubit gates."""
    out = []
    if coupling is None:
        return out
    if coupling.n_wires != circuit.n_wires:
        out.append(Violation(-1, None, f"coupling map has {coupling.n_wires} wires, circuit {circuit.n_wires}"))
        return out
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


def coupling_to_dict(coupling: CouplingMap) -> dict[str, Any]:
    return {"n": coupling.n_wires, "edges": sorted(list(e) for e in coupling.edges)}


def coupling_from_dict(data: Any) -> CouplingMap:
    if not isinstance(data, dict):
        raise CircuitFormatError("coupling document must be a JSON object")
    n = as_int(data.get("n"), "n", limit=MAX_WIRES)
    edges = as_list(data.get("edges", []), "edges", as_pair)
    try:
        return CouplingMap(n, frozenset(edges))
    except ValueError as e:
        raise CircuitFormatError(f"bad coupling document: {e}") from None


def dump_json(obj: Circuit | CouplingMap, path: str | None = None) -> None:
    """Write the object's document, indented, to path or else to stdout."""
    to_dict = circuit_to_dict if isinstance(obj, Circuit) else coupling_to_dict
    doc = json.dumps(to_dict(obj), indent=1) + "\n"
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
