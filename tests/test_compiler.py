"""Compilation of SWAP networks to {CZ, iSWAP}: ledger, extensions, oracles.

The reference oracle is pure bit arithmetic (reference_permutation_unitary);
compiled circuits must match it exactly, including global phase, on the
columns their preconditions allow.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swapnet import gates
from swapnet.circuit import Circuit, CouplingMap, Gate, load_json, metrics
from swapnet.compiler import (
    CompileResult,
    PhaseLedger,
    SwapPath,
    UnschedulableCZError,
    apply_reference_permutation,
    compile_cnot_baseline,
    compile_ext1,
    compile_ext2,
    compile_iscz,
    ledger_by_conjugation,
    legal_cz_slots,
    reference_permutation_unitary,
    swap_path_from_dict,
    swap_path_to_dict,
    unfuse_iscz,
    verify_equivalence,
)
from swapnet.sim import circuit_unitary

WORKED_PATH = SwapPath(5, ((0, 1), (2, 3), (1, 2), (3, 4)))


def test_swap_path_validation():
    with pytest.raises(ValueError):
        SwapPath(3, ((0, 0),))
    with pytest.raises(ValueError):
        SwapPath(2, ((0, 2),))


def test_value_at_tracks_the_permutation():
    path = SwapPath(3, ((0, 1), (1, 2)))
    # wire 0 holds value 1, wire 1 holds value 2, wire 2 holds value 0
    assert path.value_at() == [1, 2, 0]


def test_swap_path_json_round_trip(tmp_path):
    doc = swap_path_to_dict(WORKED_PATH)
    assert doc == {"n": 5, "path": [[0, 1], [2, 3], [1, 2], [3, 4]]}
    assert swap_path_from_dict(doc) == WORKED_PATH
    p = tmp_path / "path.json"
    p.write_text('{"n": 2, "path": [[0, 1]]}')
    assert load_json(str(p), swap_path_from_dict) == SwapPath(2, ((0, 1),))


def test_worked_example_ledger_counts():
    res = compile_iscz(WORKED_PATH)
    assert res.ledger.counts == [1, 2, 2, 1, 2]


def test_worked_example_phase_layer_kinds():
    layer = compile_iscz(WORKED_PATH).ledger.phase_layer()
    assert [(g.kind.name, g.wires[0]) for g in layer] == [
        ("sdag", 0), ("z", 1), ("z", 2), ("sdag", 3), ("z", 4),
    ]


def test_worked_example_is_exact():
    res = compile_iscz(WORKED_PATH)
    assert verify_equivalence(WORKED_PATH, res.circuit) <= 1e-12
    m = metrics(res.circuit)
    assert m.two_qubit_gates == 4 and m.two_qubit_depth == 2 and m.depth == 3


def test_conjugation_ledger_matches_incremental_on_worked_example():
    assert ledger_by_conjugation(WORKED_PATH) == [1, 2, 2, 1, 2]


def test_compile_iscz_gate_shape():
    res = compile_iscz(SwapPath(3, ((0, 1), (0, 2))))
    names = [g.kind.name for g in res.circuit.gates]
    assert names[:2] == ["iscz", "iscz"]
    assert all(n in ("s", "sdag", "z") for n in names[2:])
    assert res.n_corrections == sum(1 for c in res.ledger.counts if c % 4)


def test_empty_path_compiles_to_empty_circuit():
    res = compile_iscz(SwapPath(3, ()))
    assert len(res.circuit) == 0 and res.n_corrections == 0


def test_reference_unitary_is_the_swap_product():
    # independent cross-check: multiply actual SWAP gate matrices
    path = SwapPath(4, ((0, 1), (2, 3), (1, 2)))
    swap_circuit = Circuit(4, tuple(Gate(gates.SWAP, p) for p in path.pairs))
    assert np.array_equal(
        reference_permutation_unitary(path), circuit_unitary(swap_circuit)
    )


def test_apply_reference_permutation_matches_unitary():
    rng = np.random.default_rng(2)
    path = SwapPath(4, ((1, 2), (0, 3), (2, 3)))
    vec = rng.normal(size=16) + 1j * rng.normal(size=16)
    u = reference_permutation_unitary(path)
    assert np.array_equal(apply_reference_permutation(path, vec), u @ vec)


def test_verify_equivalence_refuses_oversized_circuits_before_allocating():
    path = SwapPath(13, ((0, 1), (11, 12)))
    circuit = compile_iscz(path).circuit
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="refusing unitary on 13 wires"):
            verify_equivalence(path, circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    with pytest.raises(ValueError, match="refusing unitary"):
        reference_permutation_unitary(path)


def test_verify_equivalence_deviation_on_constrained_columns():
    # a bare iSWAP differs from the SWAP by the phase i on columns 01 and 10
    path = SwapPath(2, ((0, 1),))
    bare = Circuit(2, (Gate(gates.ISWAP, (0, 1)),))
    assert verify_equivalence(path, bare) == pytest.approx(abs(1j - 1), abs=1e-15)
    # with wire 0 known zero only columns 00 and 01 count; 01 still picks up i
    assert verify_equivalence(path, bare, {0}) == pytest.approx(abs(1j - 1), abs=1e-15)
    # with both wires known zero only column 00 counts, and iSWAP fixes |00>
    assert verify_equivalence(path, bare, {0, 1}) == 0.0


def test_cnot_baseline_is_exact_and_three_per_swap():
    path = SwapPath(4, ((0, 1), (1, 2), (2, 3), (0, 1)))
    c = compile_cnot_baseline(path)
    assert len(c) == 3 * len(path)
    assert all(g.kind.name == "cnot" for g in c.gates)
    assert verify_equivalence(path, c) <= 1e-12


def test_unfuse_doubles_two_qubit_count_same_unitary():
    res = compile_iscz(WORKED_PATH)
    unfused = unfuse_iscz(res.circuit)
    assert metrics(unfused).two_qubit_gates == 2 * metrics(res.circuit).two_qubit_gates
    assert np.max(np.abs(circuit_unitary(unfused) - circuit_unitary(res.circuit))) <= 1e-12


def test_ext1_drops_cz_on_zero_operand():
    # swap (1,2) moves the tracked zero from wire 2 to wire 1 -> bare iswap;
    # swap (0,2) then touches no zero -> fused iscz
    path = SwapPath(3, ((1, 2), (0, 2)))
    res = compile_ext1(path, {2})
    kinds = [g.kind.name for g in res.circuit.gates if len(g.wires) == 2]
    assert kinds == ["iswap", "iscz"]
    assert res.final_zeros == frozenset({1})
    assert verify_equivalence(path, res.circuit, constraints={2}) <= 1e-12


def test_ext1_two_zeros_emit_nothing():
    path = SwapPath(2, ((0, 1),))
    res = compile_ext1(path, {0, 1})
    assert len(res.circuit) == 0
    assert res.final_zeros == frozenset({0, 1})


def test_ext1_without_zeros_equals_plain_compile():
    res0 = compile_iscz(WORKED_PATH)
    res1 = compile_ext1(WORKED_PATH, frozenset())
    assert [g for g in res0.circuit.gates] == [g for g in res1.circuit.gates]


def test_ext1_rejects_bad_zero_wire():
    with pytest.raises(ValueError):
        compile_ext1(SwapPath(2, ()), {3})


def test_ext2_earliest_and_latest_are_exact_on_the_line():
    line = CouplingMap.line(5)
    for policy in ("earliest", "latest"):
        res = compile_ext2(WORKED_PATH, line, policy)
        assert verify_equivalence(WORKED_PATH, res.circuit) <= 1e-12
        kinds = [g.kind.name for g in res.circuit.gates if len(g.wires) == 2]
        assert kinds.count("iswap") == len(WORKED_PATH)
        assert kinds.count("cz") == len(WORKED_PATH)


def test_ext2_phase_layer_matches_plain_compile():
    line = CouplingMap.line(5)
    res = compile_ext2(WORKED_PATH, line)
    assert res.ledger.counts == compile_iscz(WORKED_PATH).ledger.counts


def test_ext2_pending_slots_are_legal():
    line = CouplingMap.line(5)
    for policy in ("earliest", "latest"):
        res = compile_ext2(WORKED_PATH, line, policy)
        for p in res.pending:
            assert p.slot in legal_cz_slots(WORKED_PATH, line, p.swap_index)


def test_ext2_policy_and_shape_errors():
    line = CouplingMap.line(5)
    with pytest.raises(ValueError):
        compile_ext2(WORKED_PATH, line, "soonest")
    with pytest.raises(ValueError):
        compile_ext2(WORKED_PATH, CouplingMap.line(4))


def test_ext2_unschedulable_raises():
    # no edges at all: the deferred CZ has nowhere to go
    empty = CouplingMap(2, frozenset())
    with pytest.raises(UnschedulableCZError) as err:
        compile_ext2(SwapPath(2, ((0, 1),)), empty)
    assert err.value.swap_index == 0


def test_legal_slots_contain_adjacent_slots_when_path_on_edges():
    line = CouplingMap.line(5)
    for j in range(len(WORKED_PATH)):
        slots = legal_cz_slots(WORKED_PATH, line, j)
        assert j in slots and j + 1 in slots
    with pytest.raises(ValueError):
        legal_cz_slots(WORKED_PATH, line, 99)


def test_verify_equivalence_detects_mismatch():
    path = SwapPath(2, ((0, 1),))
    wrong = Circuit(2, (Gate(gates.CZ, (0, 1)),))
    assert verify_equivalence(path, wrong) > 0.5
    with pytest.raises(ValueError):
        verify_equivalence(path, Circuit(3))


# -- randomized properties ---------------------------------------------------

@st.composite
def random_paths(draw, max_n=5, max_m=12):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    pairs = []
    for _ in range(m):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        if b >= a:
            b += 1
        pairs.append((a, b))
    return SwapPath(n, tuple(pairs))


@st.composite
def random_line_paths(draw, max_n=5, max_m=10):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    pairs = []
    for _ in range(m):
        a = draw(st.integers(0, n - 2))
        pairs.append((a, a + 1))
    return SwapPath(n, tuple(pairs))


@given(random_paths())
@settings(max_examples=60, deadline=None)
def test_property_conjugation_rule_equals_incremental_ledger(path):
    assert ledger_by_conjugation(path) == compile_iscz(path).ledger.counts


@given(random_paths())
@settings(max_examples=40, deadline=None)
def test_property_compile_iscz_is_exact(path):
    res = compile_iscz(path)
    assert verify_equivalence(path, res.circuit) <= 1e-10
    assert metrics(res.circuit).two_qubit_gates == len(path)


@given(random_paths(), st.data())
@settings(max_examples=40, deadline=None)
def test_property_ext1_is_exact_on_constrained_columns(path, data):
    zeros = data.draw(
        st.frozensets(st.integers(0, path.n_wires - 1), max_size=path.n_wires)
    )
    res = compile_ext1(path, zeros)
    assert verify_equivalence(path, res.circuit, constraints=zeros) <= 1e-10
    assert metrics(res.circuit).two_qubit_gates <= len(path)
    # zeros remain zeros: their tracked set has the same size
    assert len(res.final_zeros) == len(zeros)


@given(random_line_paths(), st.sampled_from(["earliest", "latest"]))
@settings(max_examples=40, deadline=None)
def test_property_ext2_is_exact_on_line(path, policy):
    res = compile_ext2(path, CouplingMap.line(path.n_wires), policy)
    assert verify_equivalence(path, res.circuit) <= 1e-10


@given(random_line_paths())
@settings(max_examples=30, deadline=None)
def test_property_adjacent_slots_always_legal(path):
    line = CouplingMap.line(path.n_wires)
    for j in range(len(path)):
        slots = legal_cz_slots(path, line, j)
        assert j in slots and j + 1 in slots
