"""Circuit IR: the shared gate table, validation, metrics (against the layering
oracle in tests/oracles.py), coupling maps, JSON round-trips."""

import copy
import dataclasses
import gc
import json
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from swapnet import gates
from swapnet.circuit import (
    Circuit,
    CircuitFormatError,
    CouplingMap,
    Gate,
    Metrics,
    circuit_from_dict,
    circuit_to_dict,
    coupling_from_dict,
    dump_json,
    load_json,
    metrics,
    validate,
)
from swapnet import circuit as circuit_module
from swapnet.compiler import SwapPath, compile_ext1, compile_iscz, verify_equivalence
from swapnet.netbench import BenchConfig
from swapnet.qram.build import QramSpec
from swapnet.qram.counts import count_gates
from swapnet.qram.layout import TreeLayout
from swapnet.qram.schedule import pipeline_schedule

from oracles import complete, coupling_to_dict, extended, layers, metrics_by_arity, ring


def iscz(a, b):
    return Gate(gates.ISCZ, (a, b))


def test_gate_rejects_wrong_arity_and_repeats():
    with pytest.raises(ValueError):
        Gate(gates.CZ, (0,))
    with pytest.raises(ValueError):
        Gate(gates.CZ, (1, 1))
    with pytest.raises(ValueError):
        Gate(gates.CSWAP, (0, 2, 2))


@pytest.mark.parametrize("kind, wires", [
    (gates.CZ, (0, 1)), (gates.X, (3,)), (gates.CCX, (2, 0, 1)), (gates.fsim(0.25, 1.5), (4, 2)),
])
def test_equal_gates_are_one_object(kind, wires):
    g = Gate(kind, wires)
    assert Gate(kind, list(wires)) is g
    assert Gate(kind, tuple(np.int64(w) for w in wires)) is g
    assert Gate(kind, np.array(wires)) is g
    assert all(type(w) is int for w in Gate(kind, np.array(wires)).wires)
    assert Gate(gates.GateKind(kind.name, kind.params), wires) is g  # an equal kind, not the same one


PATH = SwapPath(2, ((0, 1),))

NON_INTEGRAL = {
    "gate wire": ("wire", lambda: Gate(gates.X, (1.5,))),
    "string wire": ("wire", lambda: Gate(gates.X, ("1",))),
    "path pair": ("pair wire", lambda: SwapPath(3, ((0.7, 1),))),
    "path size": ("n_wires", lambda: SwapPath(2.5, ())),
    "coupling edge": ("edge wire", lambda: CouplingMap(3, {(0.5, 1)})),
    "coupling size": ("n_wires", lambda: CouplingMap(2.5, ())),
    "known zero": ("wire", lambda: Circuit(2, (), {0.5})),
    "circuit size": ("n_wires", lambda: Circuit(2.5, ())),
    "ext1 zero": ("known-zero wire", lambda: compile_ext1(PATH, {0.5})),
    "constraint": ("constraint wire", lambda: verify_equivalence(PATH, compile_iscz(PATH).circuit, {0.5})),
    "layout": ("k", lambda: TreeLayout(2, 1.5)),
    "memory": ("memory value", lambda: QramSpec(1, 1, (0, 1.9))),
    "address bits": ("n", lambda: QramSpec(1.5, 1, (0, 1))),
    "bench size": ("size", lambda: BenchConfig(sizes=(3.7,))),
    "trials": ("trials", lambda: BenchConfig(sizes=(3,), trials=2.5)),
    "seed": ("seed", lambda: BenchConfig(sizes=(3,), seed=1.5)),
    "counts": ("k", lambda: count_gates(2, 1.5)),
    "schedule": ("n", lambda: pipeline_schedule(2.5, 2)),
}


@pytest.mark.parametrize("case", NON_INTEGRAL)
def test_non_integral_values_are_refused_by_name(case):
    name, call = NON_INTEGRAL[case]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        call()


def test_integral_values_become_ints():
    g = Gate(gates.zzevol(0.987654321), (1.0, np.int64(2)))  # no other test builds this gate
    assert g.wires == (1, 2) and all(type(w) is int for w in g.wires)
    assert Gate(gates.X, (True,)) is Gate(gates.X, (1,))
    c = Circuit(2.0, (), {1.0})
    assert (c.n_wires, c.known_zero) == (2, {1}) and type(c.n_wires) is int
    assert SwapPath(3.0, ((0.0, 1),)).pairs == ((0, 1),)
    assert BenchConfig(sizes=(3.0,), trials=2.0, seed=True) == BenchConfig(sizes=(3,), trials=2, seed=1)


def _stored(kind, wires):
    return {key: g for key, g in circuit_module._GATES.items() if g.kind == kind and g.wires == wires}


@pytest.mark.parametrize("kind, wires, message", [
    (gates.CZ, (1, 1), r"^repeated wire in cz on \(1, 1\)$"),
    (gates.CZ, (7,), r"^cz expects 2 wires, got \(7,\)$"),
    (gates.CSWAP, (5, 6, 5), r"^repeated wire in cswap on \(5, 6, 5\)$"),
    (gates.X, (8, 9), r"^x expects 1 wires, got \(8, 9\)$"),
])
def test_refused_gates_raise_every_time_and_are_never_stored(kind, wires, message):
    for _ in range(3):
        with pytest.raises(ValueError, match=message) as refused:
            Gate(kind, wires)
        # refused holds the failed call's frame, so a gate it had stored would still be live
        assert _stored(kind, wires) == {}


def test_gates_stay_frozen():
    g = Gate(gates.CZ, (0, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.wires = (1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.kind = gates.X
    assert g.wires == (0, 1) and Gate(gates.CZ, (0, 1)).wires == (0, 1)
    assert repr(g) == "Gate(kind=GateKind(name='cz', params=()), wires=(0, 1))"
    assert str(g) == "cz 0 1" and hash(g) == hash((gates.CZ, (0, 1)))


def test_pickle_and_copy_return_the_live_gate():
    g = Gate(gates.fsim(0.5, 0.25), (2, 0))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(g, protocol)) is g
    assert copy.copy(g) is g
    assert copy.deepcopy(g) is g
    c = Circuit(3, (g, Gate(gates.CZ, (0, 1))))
    kinds = [x.kind for x in c.gates]
    assert pickle.loads(pickle.dumps(c)) == c
    assert all(a is b for a, b in zip(copy.deepcopy(c).gates, c.gates))
    # nothing is written back into the live gates: their kinds are the same objects
    assert all(x.kind is k for x, k in zip(c.gates, kinds))


def test_the_table_keeps_every_gate_it_built():
    kind = gates.zzevol(0.123456789)  # no other test builds this gate
    size = len(circuit_module._GATES)
    g = Gate(kind, (11, 12))
    ref = weakref.ref(g)
    assert len(circuit_module._GATES) == size + 1
    del g
    gc.collect()
    assert ref() is not None and Gate(kind, (11, 12)) is ref()
    assert len(_stored(kind, (11, 12))) == 1
    assert Gate(kind, (12, 11)) is not ref() and Gate(kind, [12, 11]).wires == (12, 11)
    assert len(circuit_module._GATES) == size + 2  # one entry per distinct gate


def test_circuit_rejects_out_of_range_wires():
    with pytest.raises(ValueError):
        Circuit(2, (iscz(0, 2),))
    with pytest.raises(ValueError):
        Circuit(2, (), known_zero={5})
    with pytest.raises(ValueError):
        Circuit(0)


def test_empty_circuit_metrics():
    m = metrics(Circuit(3))
    assert m.total_gates == 0 and m.depth == 0 and m.two_qubit_depth == 0
    assert m.single_qubit_gates == m.two_qubit_gates == m.three_qubit_gates == 0


def test_metrics_depth_is_the_layer_count():
    c = Circuit(3, (iscz(0, 1), iscz(1, 2), Gate(gates.Z, (0,))))
    assert metrics(c).depth == len(layers(c)) == 2


def test_three_sequential_cnots_have_depth_three():
    c = Circuit(2, tuple(Gate(gates.CNOT, (0, 1)) for _ in range(3)))
    m = metrics(c)
    assert m.depth == 3 and m.two_qubit_depth == 3 and m.two_qubit_gates == 3


def test_two_round_network_plus_phase_layer_depth():
    # two layers of disjoint iscz, then single-qubit corrections: depth 3
    body = [iscz(0, 1), iscz(2, 3), iscz(1, 2), iscz(3, 4)]
    phases = [Gate(k, (w,)) for w, k in enumerate(
        (gates.SDAG, gates.Z, gates.Z, gates.SDAG, gates.Z))]
    m = metrics(Circuit(5, tuple(body + phases)))
    assert m.two_qubit_depth == 2
    assert m.depth == 3
    assert m.two_qubit_gates == 4 and m.single_qubit_gates == 5


def test_layers_groups_disjoint_gates():
    c = Circuit(4, (iscz(0, 1), iscz(2, 3), iscz(1, 2)))
    lays = layers(c)
    assert [len(l) for l in lays] == [2, 1]
    assert lays[1][0].wires == (1, 2)


gate_pool = st.sampled_from(
    [gates.X, gates.H, gates.S, gates.CZ, gates.CNOT, gates.ISCZ, gates.CCZ, gates.CSWAP]
)


@st.composite
def small_circuits(draw, max_gates=12):
    n = draw(st.integers(1, 5))
    n_gates = draw(st.integers(0, max_gates))
    out = []
    for _ in range(n_gates):
        kind = draw(gate_pool.filter(lambda k: k.arity <= n))
        wires = draw(
            st.permutations(range(n)).map(lambda p: tuple(p[: kind.arity]))
        )
        out.append(Gate(kind, wires))
    return Circuit(n, tuple(out))


@given(small_circuits(max_gates=40))
@example(Circuit(1))
@example(Circuit(4))
def test_property_metrics_match_the_layering_oracle(c):
    lays = layers(c)
    arity = [len(g.wires) for g in c.gates]
    assert metrics(c) == Metrics(
        total_gates=len(c.gates),
        single_qubit_gates=arity.count(1),
        two_qubit_gates=arity.count(2),
        three_qubit_gates=arity.count(3),
        depth=len(lays),
        two_qubit_depth=sum(1 for lay in lays if any(len(g.wires) >= 2 for g in lay)),
    )


@given(small_circuits(max_gates=40))
@example(Circuit(1))
@example(Circuit(1, (Gate(gates.X, (0,)), Gate(gates.S, (0,)))))
@example(Circuit(4))
def test_property_metrics_match_the_generic_loop(c):
    assert metrics(c) == metrics_by_arity(c)


@given(small_circuits())
def test_layering_is_valid_and_greedy(c):
    lays = layers(c)
    m = metrics(c)
    assert m.depth == len(lays) <= m.total_gates
    assert m.two_qubit_depth <= m.depth
    assert sum(len(l) for l in lays) == m.total_gates
    busy_before = [set() for _ in lays]
    for t, lay in enumerate(lays):
        used = set()
        for g in lay:
            assert not used.intersection(g.wires)  # no conflicts inside a layer
            used.update(g.wires)
        if t > 0:
            busy_before[t] = busy_before[t - 1] | {
                w for g in lays[t - 1] for w in g.wires
            }
    for t, lay in enumerate(lays):
        for g in lay:
            # greedy: a gate not in layer 0 is blocked by the previous layer
            if t > 0:
                prev = {w for g2 in lays[t - 1] for w in g2.wires}
                assert prev.intersection(g.wires)


def test_extended_appends_without_mutating():
    c = Circuit(3, (iscz(0, 1),), known_zero={2})
    c2 = extended(c, [Gate(gates.X, (2,))])
    assert len(c) == 1 and len(c2) == 2
    assert c2.known_zero == frozenset({2})


def test_coupling_factories():
    line = CouplingMap.line(4)
    assert line.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    ring4 = ring(4)
    assert (0, 3) in ring4.edges and len(ring4.edges) == 4
    grid = CouplingMap.grid(2, 3)
    assert grid.n_wires == 6
    assert len(grid.edges) == 7  # 4 horizontal + 3 vertical
    assert grid.has_edge(0, 3) and grid.has_edge(1, 2) and not grid.has_edge(0, 4)
    comp = complete(5)
    assert len(comp.edges) == 10


def test_coupling_edge_symmetry_and_errors():
    m = CouplingMap.line(3)
    assert m.has_edge(1, 0) and m.has_edge(0, 1)
    with pytest.raises(ValueError):
        CouplingMap(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        CouplingMap(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        ring(2)


def test_validate_flags_non_edges():
    line = CouplingMap.line(3)
    ok = validate(Circuit(3, (iscz(0, 1),)), line)
    assert ok == []
    bad = validate(Circuit(3, (iscz(0, 2),)), line)
    assert len(bad) == 1 and bad[0].gate_index == 0
    assert validate(Circuit(3), line) == []


def test_validate_ignores_single_qubit_gates():
    line = CouplingMap.line(3)
    c = Circuit(3, (Gate(gates.H, (0,)), iscz(0, 2)))
    bad = validate(c, line)
    assert [v.gate_index for v in bad] == [1]


def test_validate_checks_three_qubit_pairs():
    line = CouplingMap.line(4)
    # (0,1,2): pairs (0,1),(0,2),(1,2); (0,2) is not an edge
    bad = validate(Circuit(4, (Gate(gates.CSWAP, (0, 1, 2)),)), line)
    assert len(bad) == 1


def test_validate_wire_count_mismatch():
    # refused as compile_ext2 and verify_equivalence refuse it
    with pytest.raises(ValueError, match=r"^coupling map has 4 wires, circuit 3$"):
        validate(Circuit(3), CouplingMap.line(4))


def test_circuit_json_round_trip():
    c = Circuit(
        3,
        (
            Gate(gates.H, (0,)),
            Gate(gates.fsim(0.25, 1.5), (0, 2)),
            Gate(gates.CSWAP, (0, 1, 2)),
        ),
        known_zero={1},
    )
    back = circuit_from_dict(circuit_to_dict(c))
    assert back == c


def test_coupling_json_round_trip():
    m = CouplingMap.grid(2, 2)
    assert coupling_from_dict(coupling_to_dict(m)) == m


def test_json_file_round_trip(tmp_path):
    c = Circuit(2, (Gate(gates.ISCZ, (0, 1)),))
    p = tmp_path / "c.json"
    dump_json(c, str(p))
    assert load_json(str(p), circuit_from_dict) == c
    m = CouplingMap.line(2)
    q = tmp_path / "m.json"
    q.write_text(json.dumps(coupling_to_dict(m)))
    assert load_json(str(q), coupling_from_dict) == m


def test_gates_key_is_optional():
    assert circuit_from_dict({"n": 2}) == Circuit(2)


def test_malformed_documents_raise_format_error(tmp_path):
    with pytest.raises(CircuitFormatError):
        circuit_from_dict([1, 2, 3])
    with pytest.raises(CircuitFormatError):
        circuit_from_dict({"gates": []})  # no wire count
    with pytest.raises(CircuitFormatError):
        circuit_from_dict({"n": 2, "gates": [{"kind": "nosuch", "wires": [0]}]})
    with pytest.raises(CircuitFormatError):
        circuit_from_dict({"n": 2, "gates": [{"kind": "cz"}]})
    with pytest.raises(CircuitFormatError):
        circuit_from_dict({"n": 1, "gates": [{"kind": "cz", "wires": [0, 1]}]})
    with pytest.raises(CircuitFormatError):
        coupling_from_dict({"edges": []})  # no wire count
    with pytest.raises(CircuitFormatError):
        coupling_from_dict({"n": 2, "edges": [[0, 0]]})
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(CircuitFormatError):
        load_json(str(p), circuit_from_dict)


def test_integer_params_are_read_as_numbers():
    doc = {"n": 2, "gates": [{"kind": "fsim", "wires": [0, 1], "params": [1, 0]}]}
    assert circuit_from_dict(doc).gates[0].kind == gates.fsim(1.0, 0.0)


def test_params_omitted_for_parameterless_kinds():
    doc = circuit_to_dict(Circuit(2, (Gate(gates.CZ, (0, 1)),)))
    assert "params" not in doc["gates"][0]
    doc2 = circuit_to_dict(Circuit(2, (Gate(gates.fsim(1.0, 2.0), (0, 1)),)))
    assert doc2["gates"][0]["params"] == [1.0, 2.0]


def test_known_zero_omitted_when_empty():
    doc = circuit_to_dict(Circuit(2))
    assert "known_zero" not in doc
    doc2 = circuit_to_dict(Circuit(2, known_zero={0}))
    assert doc2["known_zero"] == [0]
