"""QRAM circuit construction: exact semantics, instrumented tallies, layout.

Verification is exhaustive over all basis inputs (a, z) at small sizes; the
expected action |a>|z> -> |a>|z xor memory[a]> with ancillae returned to |0>
and zero residual phase is checked elementwise against the full statevector.
"""

import numpy as np
import pytest

from swapnet.qram.build import (
    QramSpec,
    build_qram_circuit,
    qram_spec_from_dict,
    qram_spec_to_dict,
)
from swapnet.circuit import Circuit, CircuitFormatError, Gate, load_json, metrics
from swapnet.qram.counts import count_gates
from swapnet.qram.layout import TreeLayout
from swapnet.qram.verify import (
    FULL_STATE_WIRE_CAP,
    ideal_qram_unitary,
    verify_circuit_matches,
    verify_qram,
)

TOL = 1e-9
SMALL_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2)]
FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def memories(n, k, count, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in rng.integers(0, 2**k, size=2**n)) for _ in range(count)]


# -- layout ------------------------------------------------------------------

def test_layout_wire_partition():
    lay = TreeLayout(3, 2)
    assert lay.n_tree_wires == 14 and lay.n_scratch == 1
    assert lay.n_wires == 3 + 2 + 14 + 1
    wires = [lay.address(b) for b in range(3)]
    wires += [lay.data(b) for b in range(2)]
    for l in range(3):
        for m in range(2**l):
            wires += [lay.node_addr(l, m), lay.node_data(l, m)]
    wires += [lay.scratch(0)]
    assert sorted(wires) == list(range(lay.n_wires))


def test_layout_scratch_only_above_two_layers():
    assert TreeLayout(1, 1).n_scratch == 0
    assert TreeLayout(2, 1).n_scratch == 0
    assert TreeLayout(4, 1).n_scratch == 2


def test_ancilla_wires_cover_tree_and_scratch():
    lay = TreeLayout(2, 2)
    assert lay.ancilla_wires() == frozenset(range(4, lay.n_wires))


def test_cell_path_controls_enumerated():
    lay = TreeLayout(2, 1)
    # cell bits select the polarity at each ancestor: root then leaf
    assert lay.cell_path_controls(0) == [(lay.node_addr(0, 0), 0), (lay.node_addr(1, 0), 0)]
    assert lay.cell_path_controls(1) == [(lay.node_addr(0, 0), 0), (lay.node_addr(1, 0), 1)]
    assert lay.cell_path_controls(2) == [(lay.node_addr(0, 0), 1), (lay.node_addr(1, 1), 0)]
    assert lay.cell_path_controls(3) == [(lay.node_addr(0, 0), 1), (lay.node_addr(1, 1), 1)]
    with pytest.raises(ValueError):
        lay.cell_path_controls(4)


def test_layout_bounds_checks():
    lay = TreeLayout(2, 2)
    with pytest.raises(ValueError):
        lay.address(2)
    with pytest.raises(ValueError):
        lay.data(2)
    with pytest.raises(ValueError):
        lay.scratch(0)
    with pytest.raises(ValueError):
        TreeLayout(0, 1)


# -- spec --------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        QramSpec(1, 1, (0,))  # needs 2 cells
    with pytest.raises(ValueError):
        QramSpec(1, 1, (0, 2))  # value outside k bits
    with pytest.raises(ValueError):
        QramSpec(0, 1, ())


def test_spec_bit_extraction():
    spec = QramSpec(1, 3, (0b101, 0b010))
    assert [spec.bit(0, w) for w in range(3)] == [1, 0, 1]
    assert [spec.bit(1, w) for w in range(3)] == [0, 1, 0]


def test_spec_json_round_trip(tmp_path):
    spec = QramSpec(2, 2, (0, 1, 2, 3), extensions=True, pipeline=True)
    doc = qram_spec_to_dict(spec)
    assert qram_spec_from_dict(doc) == spec
    p = tmp_path / "spec.json"
    p.write_text('{"n": 1, "k": 1, "memory": [0, 1]}')
    assert load_json(str(p), qram_spec_from_dict) == QramSpec(1, 1, (0, 1))
    with pytest.raises(CircuitFormatError):
        qram_spec_from_dict({"n": 1, "k": 1})
    bad = tmp_path / "bad.json"
    bad.write_text("nope[")
    with pytest.raises(CircuitFormatError):
        load_json(str(bad), qram_spec_from_dict)


# -- ideal map ---------------------------------------------------------------

def test_ideal_unitary_is_xor_table():
    spec = QramSpec(1, 2, (3, 1))
    u = ideal_qram_unitary(spec)
    # address 0, z=0 -> word 3; z == memory -> 0
    assert u[(0 << 2) | 3, (0 << 2) | 0] == 1.0
    assert u[(0 << 2) | 0, (0 << 2) | 3] == 1.0
    assert u[(1 << 2) | 0, (1 << 2) | 1] == 1.0
    assert np.array_equal(u @ u.conj().T, np.eye(8))


def test_ideal_unitary_full_truth_table():
    spec = QramSpec(2, 2, (2, 0, 3, 1))
    u = ideal_qram_unitary(spec)
    for a in range(4):
        for z in range(4):
            col = (a << 2) | z
            row = (a << 2) | (z ^ spec.memory[a])
            assert u[row, col] == 1.0


# -- semantics over the flag grid --------------------------------------------

@pytest.mark.parametrize("n,k", SMALL_SIZES)
@pytest.mark.parametrize("extensions,pipeline", FLAGS)
def test_exhaustive_verification_small(n, k, extensions, pipeline):
    for memory in memories(n, k, 2, seed=n * 8 + k):
        spec = QramSpec(n, k, memory, extensions=extensions, pipeline=pipeline)
        assert verify_qram(spec) < TOL


def test_all_zero_memory_returns_bus_unchanged():
    for extensions, pipeline in FLAGS:
        spec = QramSpec(2, 2, (0, 0, 0, 0), extensions=extensions, pipeline=pipeline)
        assert verify_qram(spec) < TOL


def test_extensions_on_off_agree():
    for memory in memories(2, 2, 3, seed=5):
        base = QramSpec(2, 2, memory)
        for pipeline in (False, True):
            ext = QramSpec(2, 2, memory, extensions=True, pipeline=pipeline)
            assert verify_qram(base) < TOL
            assert verify_qram(ext) < TOL


@pytest.mark.parametrize("n,k", [(2, 3), (2, 4)])
def test_schedule_repair_sizes_stay_exact(n, k):
    # k > n exercises merged bidirectional routings and repaired collisions
    for memory in memories(n, k, 2, seed=17):
        spec = QramSpec(n, k, memory, extensions=True, pipeline=True)
        assert verify_qram(spec) < TOL


@pytest.mark.slow
def test_three_layer_tree_with_scratch_wires():
    rng = np.random.default_rng(23)
    memory = tuple(int(v) for v in rng.integers(0, 2, size=8))
    for extensions in (False, True):
        spec = QramSpec(3, 1, memory, extensions=extensions, pipeline=True)
        inputs = [(int(a), int(z)) for a, z in zip(
            rng.integers(0, 8, size=4), rng.integers(0, 2, size=4))]
        assert verify_qram(spec, inputs=inputs) < TOL


def test_verification_cap_enforced():
    spec = QramSpec(4, 4, (0,) * 16)
    with pytest.raises(ValueError):
        verify_qram(spec)
    assert FULL_STATE_WIRE_CAP == 20


def test_verify_circuit_matches_detects_wrong_circuit():
    spec = QramSpec(1, 1, (0, 1))
    lay = TreeLayout(1, 1)
    wrong = Circuit(lay.n_wires)  # identity: wrong whenever memory[1] = 1
    assert verify_circuit_matches(spec, wrong) > 0.5
    with pytest.raises(ValueError):
        verify_circuit_matches(spec, Circuit(2))


# -- gate vocabulary by flag -------------------------------------------------

def kinds_used(circuit):
    return {g.kind.name for g in circuit.gates}


def test_plain_build_uses_swap_family_only():
    spec = QramSpec(2, 2, (1, 2, 3, 0))
    used = kinds_used(build_qram_circuit(spec).circuit)
    assert "iswap" not in used and "ciswap" not in used
    assert {"swap", "cswap"} <= used


def test_extension_build_switches_to_iswap_family():
    spec = QramSpec(2, 2, (1, 2, 3, 0), extensions=True)
    build = build_qram_circuit(spec)
    used = kinds_used(build.circuit)
    assert {"iswap", "ciswap"} <= used
    assert "cswap" not in used  # every controlled pair is CZ-free now
    # plain SWAPs remain only for bus transfers and the root internal swap
    swaps = [g for g in build.circuit.gates if g.kind.name == "swap"]
    lay = build.layout
    root = {lay.node_addr(0, 0), lay.node_data(0, 0)}
    for g in swaps:
        assert lay.node_data(0, 0) in g.wires
        assert set(g.wires) <= root or min(g.wires) < spec.n + spec.k


def test_extension_build_has_phase_corrections():
    spec = QramSpec(2, 1, (0, 1, 1, 0), extensions=True)
    build = build_qram_circuit(spec)
    assert build.record.phase_correction_gates > 0
    names = kinds_used(build.circuit)
    assert names.intersection({"s", "sdag", "z"})


# -- instrumented tallies ----------------------------------------------------

@pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_hop_counts_follow_closed_forms(n, k):
    spec = QramSpec(n, k, (0,) * 2**n, extensions=True, pipeline=True)
    rec = build_qram_circuit(spec).record
    assert rec.addr_hops == [0 if l == 0 else 2 * (l + 1) for l in range(n)]
    assert rec.data_hops_down == [n - 1] * k
    assert rec.data_hops_up == [n - 1] * k



@pytest.mark.slow
def test_deep_address_bit_accumulates_z_correction():
    # address bit 2 makes 2*(2+1) = 6 crossings; 6 mod 4 = 2 -> a Z gate on
    # its bus wire among the final corrections
    spec = QramSpec(3, 1, (0,) * 8, extensions=True)
    build = build_qram_circuit(spec)
    assert build.record.addr_hops[2] == 6
    tail = build.circuit.gates[-build.record.phase_correction_gates:]
    addr2 = build.layout.address(2)
    assert any(g.kind.name == "z" and g.wires == (addr2,) for g in tail)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (2, 4), (3, 3)])
def test_tallies_match_closed_forms(n, k):
    spec = QramSpec(n, k, (0,) * 2**n, extensions=True, pipeline=True)
    rec = build_qram_circuit(spec).record
    want = count_gates(n, k)
    assert rec.internal_swap_pairs == want.internal_swap_pairs
    assert rec.root_swaps == want.root_swaps
    assert rec.setting_routing_pairs == want.setting_routing_pairs
    assert rec.fetch_routing_ops == want.fetch_routing_ops
    assert rec.fetch_unidirectional_pairs == want.fetch_unidirectional_pairs
    assert rec.fetch_bidirectional_pairs == want.fetch_bidirectional_pairs
    assert rec.ext1_saved_pairs == want.ext1_saved_pairs
    assert rec.ext2_saved_pairs == want.ext2_saved_pairs
    assert rec.cz_on_qpu == want.cz_on_qpu
    assert rec.parity_correction_events == want.parity_correction_events
    assert rec.extra_memory_cells == want.extra_memory_cells
    assert rec.merged_routings == want.cz_on_qpu


def test_bus_cz_pairs_precede_everything_else():
    spec = QramSpec(2, 3, (0, 1, 2, 3), extensions=True, pipeline=True)
    build = build_qram_circuit(spec)
    czs = [g for g in build.circuit.gates if g.kind.name == "cz"]
    lay = build.layout
    bus = {lay.data(i) for i in range(3)}
    bus_czs = [g for g in czs if set(g.wires) <= bus]
    assert len(bus_czs) == build.record.cz_on_qpu == 2
    # they appear in the head, before any tree operation
    first_tree_gate = next(
        i for i, g in enumerate(build.circuit.gates)
        if any(w >= spec.n + spec.k for w in g.wires)
    )
    for g in bus_czs:
        assert build.circuit.gates.index(g) < first_tree_gate


def test_unpipelined_extension_build_has_no_bus_czs_or_parity_events():
    spec = QramSpec(2, 3, (0, 1, 2, 3), extensions=True, pipeline=False)
    rec = build_qram_circuit(spec).record
    assert rec.cz_on_qpu == 0
    assert rec.parity_correction_events == 0
    assert rec.fetch_bidirectional_pairs == 0


def test_metrics_sane_and_known_zero_covers_ancillas():
    spec = QramSpec(2, 2, (1, 0, 3, 2), extensions=True, pipeline=True)
    build = build_qram_circuit(spec)
    assert build.circuit.known_zero == build.layout.ancilla_wires()
    m = metrics(build.circuit)
    assert m.total_gates == len(build.circuit)
    assert m.three_qubit_gates > 0  # controlled swaps and parity CCZs
