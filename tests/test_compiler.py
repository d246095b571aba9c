"""Compilation of SWAP networks to {CZ, iSWAP}: ledger, extensions, oracles.

The reference oracle is pure bit arithmetic (reference_permutation_unitary);
compiled circuits must match it exactly, including global phase, on the
columns their preconditions allow.  verify_equivalence checks them with the
exact phase-permutation engine and refuses a circuit with any gate outside
its set (the monomial kinds, ccx among them) before it builds any input; the
dense unitary multiplied out of gate matrices (tests/oracles.py), minus the
reference on the kept columns, is its oracle here, up to 12 wires.  Past
that the engine runs alone, up to its bound of 2**24 bit-matrix entries.
"""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from swapnet import gates
from swapnet.circuit import Circuit, CouplingMap, Gate, load_json, metrics, validate
from swapnet.compiler import (
    SwapPath,
    compile_cnot_baseline,
    compile_ext,
    compile_ext1,
    compile_ext2,
    compile_iscz,
    ledger_by_conjugation,
    reference_permutation_unitary,
    swap_path_from_dict,
    swap_path_to_dict,
    unfuse_iscz,
    verify_equivalence,
)
from swapnet.netbench import random_permutation, route_linear
from swapnet.sim import basis_steps, circuit_unitary

from oracles import (
    basis_bits, bit_matrix_path_deviation, complete, dense_unitary, extended, legal_cz_slots,
    propagate_basis, ring,
)

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
    assert res.ledger.n_corrections() == sum(1 for c in res.ledger.counts if c % 4)


def test_empty_path_compiles_to_empty_circuit():
    res = compile_iscz(SwapPath(3, ()))
    assert len(res.circuit) == 0 and res.ledger.n_corrections() == 0


def test_reference_unitary_is_the_swap_product():
    # independent cross-check: the SWAP gates' own basis maps, read from their matrices
    path = SwapPath(4, ((0, 1), (2, 3), (1, 2)))
    swap_circuit = Circuit(4, tuple(Gate(gates.SWAP, p) for p in path.pairs))
    assert np.array_equal(
        reference_permutation_unitary(path), circuit_unitary(swap_circuit)
    )


def test_verify_equivalence_refuses_oversized_circuits_before_allocating():
    # 20 wires x 2**20 columns is 20 MiB of bits, just over the engine's bound
    path = route_linear(random_permutation(20, np.random.default_rng(20)))
    circuit = compile_iscz(path).circuit
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^refusing exact check: 20 wires x 2\*\*20 "):
            verify_equivalence(path, circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # the dense oracle keeps its own cap: 13 wires is past it, not past the engine's
    small = SwapPath(13, ((0, 1), (11, 12)))
    with pytest.raises(ValueError, match="refusing unitary on 13 wires"):
        reference_permutation_unitary(small)
    assert verify_equivalence(small, compile_iscz(small).circuit) == 0.0


def test_verify_equivalence_past_the_unitary_cap():
    # a routed n=16 permutation: 16 wires x 2**16 columns, exact, no unitary
    path = route_linear(random_permutation(16, np.random.default_rng(16)))
    body = list(compile_iscz(path).circuit.gates)
    assert verify_equivalence(path, Circuit(16, tuple(body))) == 0.0
    body[len(body) // 3] = Gate(gates.ISWAP, body[len(body) // 3].wires)  # drop one CZ half
    assert verify_equivalence(path, Circuit(16, tuple(body))) >= 1.0


def test_verify_equivalence_deviation_on_constrained_columns():
    # a bare iSWAP differs from the SWAP by the phase i on columns 01 and 10
    path = SwapPath(2, ((0, 1),))
    bare = Circuit(2, (Gate(gates.ISWAP, (0, 1)),))
    assert verify_equivalence(path, bare) == pytest.approx(abs(1j - 1), abs=1e-15)
    # with wire 0 known zero only columns 00 and 01 count; 01 still picks up i
    assert verify_equivalence(path, bare, {0}) == pytest.approx(abs(1j - 1), abs=1e-15)
    # with both wires known zero only column 00 counts, and iSWAP fixes |00>
    assert verify_equivalence(path, bare, {0, 1}) == 0.0


@pytest.mark.parametrize("wire", [7, -1, 3])
def test_verify_equivalence_refuses_out_of_range_constraint_wires(wire):
    path = SwapPath(3, ((0, 1),))
    with pytest.raises(ValueError, match="constraint wires"):
        verify_equivalence(path, compile_iscz(path).circuit, {wire})


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
    assert np.max(np.abs(dense_unitary(unfused) - dense_unitary(res.circuit))) <= 1e-12


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


def test_ext2_refuses_an_off_map_swap():
    # no edges at all: the swap itself is off the map
    empty = CouplingMap(2, frozenset())
    with pytest.raises(ValueError, match=r"^swap 0 on wires \(0, 1\) is not an edge of the coupling map$"):
        compile_ext2(SwapPath(2, ((0, 1),)), empty)


def test_legal_slots_contain_adjacent_slots_when_path_on_edges():
    line = CouplingMap.line(5)
    for j in range(len(WORKED_PATH)):
        slots = legal_cz_slots(WORKED_PATH, line, j)
        assert j in slots and j + 1 in slots
    with pytest.raises(ValueError):
        legal_cz_slots(WORKED_PATH, line, 99)


def test_ext2_names_the_first_off_map_swap():
    # swaps 1 and 3 exchange values 1 and 3 across wires 0 and 3, off the line;
    # the two values never sit on a line edge, so neither CZ would have a slot
    line = CouplingMap.line(4)
    path = SwapPath(4, ((0, 1), (0, 3), (1, 2), (0, 3), (2, 3)))
    assert [legal_cz_slots(path, line, j) == [] for j in range(len(path))] == [
        False, True, False, True, False,
    ]
    for policy in ("earliest", "latest"):
        with pytest.raises(ValueError, match=r"^swap 1 on wires \(0, 3\) is not an edge"):
            compile_ext2(path, line, policy)


def test_ext2_refuses_an_off_map_swap_whose_values_meet_later():
    # swap 0 exchanges values 0 and 2 across the gap; swap 1 brings them
    # together, so a CZ would have a slot, but the iSWAP itself is off the map
    path = SwapPath(3, ((0, 2), (0, 1)))
    line = CouplingMap.line(3)
    assert legal_cz_slots(path, line, 0) == [2]
    for policy in ("earliest", "latest"):
        with pytest.raises(ValueError, match=r"^swap 0 on wires \(0, 2\) is not an edge"):
            compile_ext2(path, line, policy)


def test_coupling_of_another_size_is_refused_by_both_routes():
    path = SwapPath(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match="coupling map has 3 wires, path 4"):
        legal_cz_slots(path, CouplingMap.line(3), 0)
    with pytest.raises(ValueError, match="coupling map has 3 wires, path 4"):
        compile_ext2(path, CouplingMap.line(3))


def test_ext2_is_linear_in_the_swap_count():
    # a routed line permutation at n=192 has about 9,000 swaps; scanning every
    # slot per swap took over 30 s per policy on a 2-core VM, the sweep 0.1 s
    n = 192
    path = route_linear(random_permutation(n, np.random.default_rng(192)))
    line = CouplingMap.line(n)
    assert len(path) > 8000
    start = time.perf_counter()
    results = [compile_ext2(path, line, policy) for policy in ("earliest", "latest")]
    assert time.perf_counter() - start < 3.0
    counts = compile_iscz(path).ledger.counts
    for res in results:
        assert validate(res.circuit, line) == []
        assert res.ledger.counts == counts
        assert metrics(res.circuit).two_qubit_gates == 2 * len(path)


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


@st.composite
def edge_walks(draw):
    """A coupling map (line, ring, grid or complete) and up to 60 swaps on its
    edges; pairs repeat, and half the walks retrace their steps so every value
    returns to its starting wire."""
    coupling = draw(st.one_of(
        st.integers(2, 7).map(CouplingMap.line),
        st.integers(3, 7).map(ring),
        st.tuples(st.integers(1, 3), st.integers(2, 3)).map(lambda rc: CouplingMap.grid(*rc)),
        st.integers(2, 5).map(complete),
    ))
    edges = sorted(coupling.edges)
    steps = st.lists(st.tuples(st.sampled_from(edges), st.booleans()), max_size=30)
    walk = [e[::-1] if flip else e for e, flip in draw(steps)]
    walk += walk[::-1] if draw(st.booleans()) else [e for e, _ in draw(steps)]
    return SwapPath(coupling.n_wires, tuple(walk)), coupling


@given(edge_walks(), st.sampled_from(["earliest", "latest"]))
@settings(max_examples=150, deadline=None)
def test_property_ext2_takes_the_oracle_slot(walk, policy):
    path, coupling = walk
    res = compile_ext2(path, coupling, policy)
    assert [p.swap_index for p in res.pending] == list(range(len(path)))
    for p in res.pending:
        a, b = path.pairs[p.swap_index]
        before = SwapPath(path.n_wires, path.pairs[: p.swap_index]).value_at()
        assert p.values == (before[a], before[b])
        slots = legal_cz_slots(path, coupling, p.swap_index)
        assert p.slot == (slots[0] if policy == "earliest" else slots[-1])
        held = SwapPath(path.n_wires, path.pairs[: p.slot]).value_at()
        assert p.wires == tuple(sorted(held.index(v) for v in p.values))
    assert validate(res.circuit, coupling) == []
    assert verify_equivalence(path, res.circuit) == 0.0


@given(edge_walks(), st.data())
@settings(max_examples=60, deadline=None)
def test_property_ext2_refuses_the_first_off_map_swap(walk, data):
    path, coupling = walk
    n = path.n_wires
    off = [(a, b) for a in range(n) for b in range(n) if a != b and not coupling.has_edge(a, b)]
    if not off:  # a complete map has no off-map pair
        return
    at = data.draw(st.integers(0, len(path)))
    pair = data.draw(st.sampled_from(off))
    bad = SwapPath(n, path.pairs[:at] + (pair,) + path.pairs[at:])
    message = rf"^swap {at} on wires \({pair[0]}, {pair[1]}\) is not an edge of the coupling map$"
    for policy in ("earliest", "latest"):
        with pytest.raises(ValueError, match=message):
            compile_ext2(bad, coupling, policy)


@st.composite
def ext_cases(draw):
    """A coupling map with a path on its edges (an edge walk, or a routed
    permutation on the line), a random set of known-zero wires and a policy."""
    if draw(st.booleans()):
        path, coupling = draw(edge_walks())
    else:
        n = draw(st.integers(2, 10))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        path, coupling = route_linear(random_permutation(n, rng)), CouplingMap.line(n)
    zeros = draw(st.frozensets(st.integers(0, path.n_wires - 1), max_size=path.n_wires))
    return path, coupling, zeros, draw(st.sampled_from(["earliest", "latest"]))


@given(ext_cases())
@settings(max_examples=150, deadline=None)
def test_property_compile_ext_applies_both_extensions(case):
    path, coupling, zeros, policy = case
    # swap j needs its CZ unless one of the values it exchanges started on a known zero
    free = []
    for j, (a, b) in enumerate(path.pairs):
        held = SwapPath(path.n_wires, path.pairs[:j]).value_at()
        free.append(held[a] not in zeros and held[b] not in zeros)
    end = path.value_at()
    res, bare = compile_ext(path, coupling, zeros, policy), compile_ext(path, None, zeros, policy)
    for r, kind in ((res, "cz"), (bare, "iscz")):
        assert verify_equivalence(path, r.circuit, zeros) == 0.0
        assert validate(r.circuit, coupling) == []
        kinds = [g.kind.name for g in r.circuit.gates]
        assert kinds.count("cz") + kinds.count("iscz") == kinds.count(kind) == sum(free)
        assert r.circuit.known_zero == zeros
        assert r.final_zeros == {w for w in range(path.n_wires) if end[w] in zeros}
    ext1, ext2 = compile_ext1(path, zeros), compile_ext2(path, coupling, policy)
    assert bare.circuit == ext1.circuit  # with no map the policy is checked, then unused
    # ext1's rule on the swaps, ext2's on the CZs: the swap gates are ext1's
    # with each iSCZ bare, and the deferred CZs are ext2's for the free swaps
    skeleton = [Gate(gates.ISWAP, g.wires) if g.kind.name == "iscz" else g for g in ext1.circuit.gates]
    assert [g for g in res.circuit.gates if g.kind.name != "cz"] == skeleton
    assert res.pending == tuple(p for p in ext2.pending if free[p.swap_index])
    assert res.ledger.counts == ext1.ledger.counts
    if not zeros:
        assert res.circuit == ext2.circuit


def test_known_zeros_do_not_excuse_an_off_map_swap():
    # the path of test_ext2_names_the_first_off_map_swap: a known zero on wire
    # 1 or 3 would drop the CZs of swaps 1 and 3, but not their off-map iSWAPs
    line = CouplingMap.line(4)
    path = SwapPath(4, ((0, 1), (0, 3), (1, 2), (0, 3), (2, 3)))
    for zero in range(4):
        for policy in ("earliest", "latest"):
            with pytest.raises(ValueError, match=r"^swap 1 on wires \(0, 3\) is not an edge"):
                compile_ext(path, line, {zero}, policy)
    with pytest.raises(ValueError, match=r"^swap 0 on wires \(0, 1\) is not an edge"):
        compile_ext(SwapPath(2, ((0, 1),)), CouplingMap(2, frozenset()), {0, 1})  # emits nothing


def test_dropping_any_deferred_cz_after_known_zeros_is_rejected():
    path = route_linear(random_permutation(8, np.random.default_rng(8)))
    zeros = {0, 5}
    for policy in ("earliest", "latest"):
        body = compile_ext(path, CouplingMap.line(8), zeros, policy).circuit.gates
        at = [i for i, g in enumerate(body) if g.kind.name == "cz"]
        assert 0 < len(at) < len(path)
        for i in at:
            mutant = Circuit(8, body[:i] + body[i + 1 :], frozenset(zeros))
            assert verify_equivalence(path, mutant, zeros) >= 1.0


def test_compile_ext_checks_its_arguments_with_or_without_a_map():
    line = CouplingMap.line(5)
    for coupling in (line, None):
        with pytest.raises(ValueError, match="policy must be 'earliest' or 'latest', got 'soonest'"):
            compile_ext(WORKED_PATH, coupling, policy="soonest")
        with pytest.raises(ValueError, match="known-zero wire 5 outside 0..4"):
            compile_ext(WORKED_PATH, coupling, {5})
    with pytest.raises(ValueError, match="coupling map has 4 wires, path 5"):
        compile_ext(WORKED_PATH, CouplingMap.line(4), {0})
    res = compile_iscz(WORKED_PATH)
    assert (res.final_zeros, res.pending) == (frozenset(), ())


@given(random_line_paths())
@settings(max_examples=30, deadline=None)
def test_property_adjacent_slots_always_legal(path):
    line = CouplingMap.line(path.n_wires)
    for j in range(len(path)):
        slots = legal_cz_slots(path, line, j)
        assert j in slots and j + 1 in slots


# -- the exact engine against the dense oracle ---------------------------------

MONOMIAL_KINDS = [
    gates.GateKind(name) for name in gates.ARITY
    if name not in ("h", "fsim")
]
SELF_INVERSE = {"i", "x", "y", "z", "cz", "cnot", "swap", "cswap", "ccz", "ccx"}
PHASES = np.array([1, 1j, -1, -1j])


def kept_columns(n, constraints):
    return np.array(
        [c for c in range(2**n) if all((c >> (n - 1 - w)) & 1 == 0 for w in constraints)]
    )


def dense_deviation(path, circuit, constraints):
    """Oracle: max |U - P| on the kept columns, both matrices built in full,
    U from gate matrices."""
    cols = kept_columns(path.n_wires, constraints)
    u = dense_unitary(circuit)[:, cols]
    return float(np.max(np.abs(u - reference_permutation_unitary(path)[:, cols])))


@st.composite
def monomial_gate(draw, n):
    """One monomial gate on random wires, a ccx Toffoli as often as the rest together."""
    kind = gates.CCX if draw(st.booleans()) else draw(st.sampled_from(MONOMIAL_KINDS))
    wires = tuple(draw(st.permutations(range(n)))[: kind.arity])
    return Gate(kind, wires)


@st.composite
def monomial_cases(draw):
    """A path over 3..6 wires, constraint wires, and a monomial circuit: a
    compiled one (equivalent on the kept columns), or none, with gates
    spliced in.  A gate spliced in twice in a row cancels when it is its own
    inverse, so equivalent circuits with Toffolis in them occur too."""
    n = draw(st.integers(3, 6))
    pair = st.permutations(range(n)).map(lambda p: (p[0], p[1]))
    path = SwapPath(n, tuple(draw(st.lists(pair, max_size=8))))
    constraints = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    base = draw(st.sampled_from(["iscz", "ext1", "cnot", "none"]))
    if base == "iscz":
        body = list(compile_iscz(path).circuit.gates)
    elif base == "ext1":
        body = list(compile_ext1(path, constraints).circuit.gates)
    elif base == "cnot":
        body = list(compile_cnot_baseline(path).gates)
    else:
        body = []
    if body and draw(st.booleans()):
        del body[draw(st.integers(0, len(body) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        g = draw(monomial_gate(n))
        at = draw(st.integers(0, len(body)))
        body[at:at] = [g] * (2 if g.kind.name in SELF_INVERSE and draw(st.booleans()) else 1)
    return path, Circuit(n, tuple(body)), constraints


@given(monomial_cases())
@example((
    SwapPath(3, ((0, 2),)),
    Circuit(3, (Gate(gates.CCX, (0, 2, 1)),) + compile_iscz(SwapPath(3, ((0, 2),))).circuit.gates),
    frozenset({0}),
))
@settings(max_examples=200, deadline=None)
def test_property_exact_engine_matches_the_dense_unitary(case):
    path, circuit, constraints = case
    n = path.n_wires
    cols = kept_columns(n, constraints)
    bits, phase = propagate_basis(basis_steps(circuit), basis_bits(cols, n))
    # each kept column of U is i**phase times the basis vector the engine names
    want = np.zeros((2**n, len(cols)), dtype=complex)
    rows = (1 << np.arange(n - 1, -1, -1)) @ bits.astype(np.int64)
    want[rows, np.arange(len(cols))] = PHASES[phase]
    assert np.max(np.abs(dense_unitary(circuit)[:, cols] - want)) <= 1e-12
    dense = dense_deviation(path, circuit, constraints)
    event("equivalent" if dense <= 1e-10 else "not equivalent")
    assert abs(verify_equivalence(path, circuit, constraints) - dense) <= 1e-12


@pytest.mark.parametrize(
    "extra",
    [
        [Gate(gates.fsim(0.3, 0.2), (0, 1))],
        [Gate(gates.H, (2,))],
        # h pairs, around a gate off their wire or on it: the first h is named
        [Gate(gates.H, (4,)), Gate(gates.CCZ, (0, 1, 2)), Gate(gates.H, (4,))],
        [Gate(gates.H, (0,)), Gate(gates.ISWAP, (0, 1)), Gate(gates.H, (0,))],
        # the Toffoli as h, ccz, h is not one step: ccx is the Toffoli
        [Gate(gates.H, (2,)), Gate(gates.CCZ, (0, 1, 2)), Gate(gates.H, (2,))],
    ],
    ids=["fsim", "lone-h", "h-off-wire", "h-iswap-h", "h-ccz-h"],
)
@pytest.mark.parametrize("constraints", [frozenset(), frozenset({1, 3})])
def test_non_monomial_circuits_take_the_dense_path(extra, constraints):
    """No path takes such circuits any more, the dense one included: the
    verifier, the engine and the dense oracle (circuit_unitary) all refuse
    them with one message naming the first gate outside the set."""
    circuit = extended(compile_iscz(WORKED_PATH).circuit, extra)
    first = len(circuit) - len(extra)
    named = rf"^not a SWAP-network circuit: gate {first} \({re.escape(str(extra[0]))}\) is not "
    with pytest.raises(ValueError, match=named):
        verify_equivalence(WORKED_PATH, circuit, constraints)
    for refuse in (basis_steps, circuit_unitary):
        with pytest.raises(ValueError, match=named):
            refuse(circuit)


def test_non_monomial_circuits_are_refused_before_any_input_exists():
    # 19 wires x 2**19 inputs is under the engine's bound: building them took 99 MiB
    path = route_linear(random_permutation(19, np.random.default_rng(19)))
    circuit = extended(compile_iscz(path).circuit, [Gate(gates.fsim(0.3, 0.2), (0, 1))])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^not a SWAP-network circuit: gate \d+ \(fsim"):
            verify_equivalence(path, circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@st.composite
def constrained_cases(draw):
    """A routed path over 1..10 wires, any constraint set (every wire
    included), and one of its compiled circuits, maybe missing one gate."""
    n = draw(st.integers(1, 10))
    path = route_linear(tuple(draw(st.permutations(range(n)))))
    constraints = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    mode = draw(st.sampled_from(["iscz", "unfused", "ext1", "ext2", "cnot"]))
    if mode == "iscz":
        body = compile_iscz(path).circuit.gates
    elif mode == "unfused":
        body = unfuse_iscz(compile_iscz(path).circuit).gates
    elif mode == "ext1":
        body = compile_ext1(path, constraints).circuit.gates
    elif mode == "ext2":
        policy = draw(st.sampled_from(["earliest", "latest"]))
        body = compile_ext2(path, CouplingMap.line(n), policy).circuit.gates
    else:
        body = compile_cnot_baseline(path).gates
    body = list(body)
    if body and draw(st.booleans()):
        del body[draw(st.integers(0, len(body) - 1))]
    return path, Circuit(n, tuple(body)), constraints


ALL_BOUND = SwapPath(3, ((0, 1), (1, 2))), frozenset({0, 1, 2})  # one column, no free wire


@given(constrained_cases())
@example((ALL_BOUND[0], compile_iscz(ALL_BOUND[0]).circuit, ALL_BOUND[1]))
@example((ALL_BOUND[0], Circuit(3, (Gate(gates.X, (0,)),)), ALL_BOUND[1]))
@settings(max_examples=150, deadline=None)
def test_packed_rows_give_the_bit_matrix_verdict(case):
    # the columns the verifier keeps, built as uint8 matrices by index
    # arithmetic: the same verdict, exactly
    path, circuit, constraints = case
    want = bit_matrix_path_deviation(path, circuit, constraints)
    assert verify_equivalence(path, circuit, constraints) == want


def test_a_reversed_nineteen_wire_check_stays_small():
    # 19 wires x 2**19 columns: uint8 bit matrices and index temporaries peaked at 41 MiB
    path = route_linear(tuple(range(18, -1, -1)))
    circuit = compile_iscz(path).circuit
    tracemalloc.start()
    try:
        assert verify_equivalence(path, circuit) == 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_exact_deviations_are_exact():
    # |i - 1| = sqrt 2 and |-1 - 1| = 2 exactly, 1 for a wrong output index
    path = SwapPath(2, ((0, 1),))
    assert verify_equivalence(path, Circuit(2, (Gate(gates.ISWAP, (0, 1)),))) == np.sqrt(2)
    assert verify_equivalence(path, extended(compile_iscz(path).circuit, [Gate(gates.Z, (0,))])) == 2.0
    assert verify_equivalence(path, Circuit(2)) == 1.0
    tpath = SwapPath(3, ((0, 1),))
    circuit = extended(compile_iscz(tpath).circuit, [Gate(gates.CCX, (0, 1, 2))] * 2)
    assert verify_equivalence(tpath, circuit) == 0.0
    assert dense_deviation(tpath, circuit, frozenset()) == 0.0  # ccx is exact on both sides
