"""Circuit IR: validation, metrics, coupling maps, JSON round-trips."""

import json

import pytest
from hypothesis import given, strategies as st

from swapnet import gates
from swapnet.circuit import (
    Circuit,
    CircuitFormatError,
    CouplingMap,
    Gate,
    circuit_from_dict,
    circuit_to_dict,
    coupling_from_dict,
    coupling_to_dict,
    dump_json,
    layers,
    load_json,
    metrics,
    validate,
)


def iscz(a, b):
    return Gate(gates.ISCZ, (a, b))


def test_gate_rejects_wrong_arity_and_repeats():
    with pytest.raises(ValueError):
        Gate(gates.CZ, (0,))
    with pytest.raises(ValueError):
        Gate(gates.CZ, (1, 1))
    with pytest.raises(ValueError):
        Gate(gates.CSWAP, (0, 2, 2))


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
    [gates.X, gates.H, gates.S, gates.CZ, gates.CNOT, gates.ISCZ, gates.CCZ]
)


@st.composite
def small_circuits(draw):
    n = draw(st.integers(2, 5))
    n_gates = draw(st.integers(0, 12))
    out = []
    for _ in range(n_gates):
        kind = draw(gate_pool.filter(lambda k: k.arity <= n))
        wires = draw(
            st.permutations(range(n)).map(lambda p: tuple(p[: kind.arity]))
        )
        out.append(Gate(kind, wires))
    return Circuit(n, tuple(out))


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
    c2 = c.extended([Gate(gates.X, (2,))])
    assert len(c) == 1 and len(c2) == 2
    assert c2.known_zero == frozenset({2})


def test_coupling_factories():
    line = CouplingMap.line(4)
    assert line.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    ring = CouplingMap.ring(4)
    assert (0, 3) in ring.edges and len(ring.edges) == 4
    grid = CouplingMap.grid(2, 3)
    assert grid.n_wires == 6
    assert len(grid.edges) == 7  # 4 horizontal + 3 vertical
    assert grid.has_edge(0, 3) and grid.has_edge(1, 2) and not grid.has_edge(0, 4)
    comp = CouplingMap.complete(5)
    assert len(comp.edges) == 10


def test_coupling_edge_symmetry_and_errors():
    m = CouplingMap.line(3)
    assert m.has_edge(1, 0) and m.has_edge(0, 1)
    with pytest.raises(ValueError):
        CouplingMap(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        CouplingMap(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        CouplingMap.ring(2)


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
    bad = validate(Circuit(3), CouplingMap.line(4))
    assert len(bad) == 1 and bad[0].gate is None


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
    dump_json(m, str(q))
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
