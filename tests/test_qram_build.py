"""QRAM circuit construction: exact semantics, instrumented tallies, layout.

Verification is exhaustive over all basis inputs (a, z); the expected action
|a>|z> -> |a>|z xor memory[a]> with ancillae returned to |0> and zero
residual phase is checked exactly by the phase-permutation engine, and the
dense statevector per input is its oracle at small sizes.  Every Toffoli is
one ccx gate, so no build holds an h.  The engine's one size bound is 2**24
bit-matrix entries (wires x 2**(n+k)), so trees far past 20 wires verify, and
a circuit with a gate outside its set is refused.
"""

import tracemalloc

import numpy as np
import pytest

from swapnet.qram.build import (
    QramSpec,
    build_qram_circuit,
    qram_spec_from_dict,
)
from swapnet import gates
from swapnet.circuit import Circuit, CircuitFormatError, Gate, load_json, metrics
from swapnet.qram.counts import count_gates
from swapnet.qram.layout import TreeLayout
from swapnet.sim import PureState
from swapnet.qram.verify import verify_circuit_matches, verify_qram

from oracles import extended, qram_spec_to_dict, tensordot_statevector

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
    with pytest.raises(ValueError):
        TreeLayout(1, 0)


@pytest.mark.parametrize("l, m", [(2, 0), (1, 2), (-1, 0), (0, -1), (0, 1)])
def test_tree_node_outside_the_layout_is_refused(l, m):
    lay = TreeLayout(2, 2)
    with pytest.raises(ValueError, match="tree node"):
        lay.node_addr(l, m)
    with pytest.raises(ValueError, match="tree node"):
        lay.node_data(l, m)


@pytest.mark.parametrize("n, k", [(15, 1), (17, 1), (1, 65535)])
def test_layout_refuses_more_wires_than_a_circuit_may_have(n, k):
    with pytest.raises(ValueError):
        TreeLayout(n, k)


def test_build_refuses_a_tree_its_reader_would_refuse():
    # n = 15, k = 1 is 65,563 wires; a circuit file may hold at most 65,536
    with pytest.raises(ValueError, match="exceeds 65536 wires"):
        build_qram_circuit(QramSpec(15, 1, (0,) * 2**15))


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


# -- ideal map, checked by the verifier on a hand-built fetch -----------------

def ideal_fetch_circuit(spec):
    """The fetch written out by hand on spec's layout wires: for each set
    memory bit, an X-conjugated CNOT (n=1) or CCX (n=2) from the address
    bus onto that data wire, so it fires exactly at that address."""
    lay = TreeLayout(spec.n, spec.k)
    addr = [lay.address(i) for i in range(spec.n)]
    gates_out = []
    for a, word in enumerate(spec.memory):
        flips = [
            Gate(gates.X, (w,)) for i, w in enumerate(addr) if not (a >> (spec.n - 1 - i)) & 1
        ]
        for j in range(spec.k):
            if not (word >> (spec.k - 1 - j)) & 1:
                continue
            d = lay.data(j)
            if spec.n == 1:
                fire = [Gate(gates.CNOT, (addr[0], d))]
            else:
                fire = [Gate(gates.CCX, (*addr, d))]
            gates_out += flips + fire + flips
    return Circuit(lay.n_wires, tuple(gates_out))


@pytest.mark.parametrize("n,k", SMALL_SIZES)
def test_ideal_fetch_truth_table(n, k):
    memory = tuple((3 * a + 1) % 2**k for a in range(2**n))
    spec = QramSpec(n, k, memory)
    circuit = ideal_fetch_circuit(spec)
    assert verify_circuit_matches(spec, circuit) == 0.0
    for a in range(2**n):
        for j in range(k):
            flipped = memory[:a] + (memory[a] ^ (1 << j),) + memory[a + 1 :]
            assert verify_circuit_matches(QramSpec(n, k, flipped), circuit) == 1.0


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


def test_three_layer_tree_with_scratch_wires():
    rng = np.random.default_rng(23)
    memory = tuple(int(v) for v in rng.integers(0, 2, size=8))
    for extensions in (False, True):
        spec = QramSpec(3, 1, memory, extensions=extensions, pipeline=True)
        assert verify_qram(spec) < TOL


def flip_one_bit(spec, seed):
    rng = np.random.default_rng(seed)
    memory = list(spec.memory)
    memory[int(rng.integers(0, 2**spec.n))] ^= 1 << int(rng.integers(0, spec.k))
    return QramSpec(spec.n, spec.k, tuple(memory), spec.extensions, spec.pipeline)


@pytest.mark.parametrize("n,k", [(3, 2), (3, 3)])
@pytest.mark.parametrize("extensions,pipeline", FLAGS)
def test_exhaustive_verification_three_layers(n, k, extensions, pipeline):
    (memory,) = memories(n, k, 1, seed=31 * n + k)
    spec = QramSpec(n, k, memory, extensions=extensions, pipeline=pipeline)
    build = build_qram_circuit(spec)
    assert verify_qram(spec, build) == 0.0  # exact: no rounding noise
    flipped = flip_one_bit(spec, seed=n + k)
    # the build checked against a flipped memory, and a flipped build against spec
    assert verify_qram(flipped, build) >= 1.0
    assert verify_circuit_matches(spec, build_qram_circuit(flipped).circuit) >= 1.0


def dense_deviation(spec, circuit):
    """Oracle: one dense statevector per basis input, run gate by gate
    through gate-matrix contractions."""
    lay = TreeLayout(spec.n, spec.k)
    trailing = lay.n_wires - spec.n - spec.k
    worst = 0.0
    for a in range(2**spec.n):
        for z in range(2**spec.k):
            vec = PureState.basis(lay.n_wires, ((a << spec.k) | z) << trailing).vec
            err = tensordot_statevector(circuit, vec)
            err[((a << spec.k) | (z ^ spec.memory[a])) << trailing] -= 1.0
            worst = max(worst, float(np.max(np.abs(err))))
    return worst


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2)])
@pytest.mark.parametrize("extensions,pipeline", FLAGS)
def test_exact_engine_matches_dense_statevectors(n, k, extensions, pipeline):
    (memory,) = memories(n, k, 1, seed=7 * n + k)
    spec = QramSpec(n, k, memory, extensions=extensions, pipeline=pipeline)
    for built in (spec, flip_one_bit(spec, seed=k)):
        circuit = build_qram_circuit(built).circuit
        assert abs(verify_circuit_matches(spec, circuit) - dense_deviation(spec, circuit)) <= 1e-12


def test_non_monomial_circuits_are_refused():
    spec = QramSpec(2, 1, (1, 0, 0, 1), extensions=True)
    circuit = build_qram_circuit(spec).circuit
    lay = TreeLayout(2, 1)
    tree = lay.node_addr(1, 1), lay.node_data(1, 1)
    # fsim fixes |00> on the restored tree wires, but it is still no SWAP-network gate
    for extra in (Gate(gates.fsim(0.4, 0.9), tree), Gate(gates.H, (tree[0],))):
        named = rf"^not a SWAP-network circuit: gate {len(circuit)} \({extra.kind.name}"
        with pytest.raises(ValueError, match=named):
            verify_circuit_matches(spec, extended(circuit, [extra]))
    # a Toffoli written as h, ccz, h is refused at its first h
    i = next(i for i, g in enumerate(circuit.gates) if g.kind == gates.CCX)
    h = Gate(gates.H, circuit.gates[i].wires[2:])
    toffoli = (h, Gate(gates.CCZ, circuit.gates[i].wires), h)
    old_form = Circuit(circuit.n_wires, circuit.gates[:i] + toffoli + circuit.gates[i + 1 :])
    with pytest.raises(ValueError, match=rf"^not a SWAP-network circuit: gate {i} \(h "):
        verify_circuit_matches(spec, old_form)


@pytest.mark.parametrize("n,k,flag", [(1, 17, True), (2, 12, False)])
def test_exhaustive_verification_at_the_cap(n, k, flag):
    # the most basis inputs the old 20 bus+tree wire cap admitted: 2**18 and 2**14
    (memory,) = memories(n, k, 1, seed=n + k)
    spec = QramSpec(n, k, memory, extensions=flag, pipeline=flag)
    assert n + k + TreeLayout(n, k).n_tree_wires == 20
    build = build_qram_circuit(spec)
    assert verify_qram(spec, build) == 0.0
    assert verify_qram(flip_one_bit(spec, seed=k), build) == 1.0


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("extensions,pipeline", FLAGS)
def test_exhaustive_verification_past_twenty_wires(n, extensions, pipeline):
    # 44, 76 and 140 wires: every 2**(n+4) input, exact
    (memory,) = memories(n, 4, 1, seed=41 * n)
    spec = QramSpec(n, 4, memory, extensions=extensions, pipeline=pipeline)
    build = build_qram_circuit(spec)
    assert verify_qram(spec, build) == 0.0
    assert verify_qram(flip_one_bit(spec, seed=n), build) == 1.0


def test_exhaustive_verification_of_a_seven_layer_tree():
    # 272 wires x 2**13 inputs, about an eighth of the engine's bound
    (memory,) = memories(7, 6, 1, seed=76)
    spec = QramSpec(7, 6, memory, extensions=True, pipeline=True)
    build = build_qram_circuit(spec)
    assert build.circuit.n_wires == 272
    assert verify_qram(spec, build) == 0.0
    assert verify_qram(flip_one_bit(spec, seed=7), build) == 1.0


def test_exhaustive_verification_of_a_nine_layer_tree():
    # 1,042 wires x 2**13 inputs through about 32,000 gates, every input exact
    (memory,) = memories(9, 4, 1, seed=94)
    spec = QramSpec(9, 4, memory, extensions=True, pipeline=True)
    build = build_qram_circuit(spec)
    assert build.circuit.n_wires == 1042
    assert verify_qram(spec, build) == 0.0
    assert verify_qram(flip_one_bit(spec, seed=9), build) == 1.0


def test_verification_cap_enforced():
    # 22 wires x 2**20 inputs is just over the 2**24-entry bound: refused
    # before the circuit or any input exists
    spec = QramSpec(1, 19, (0, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^refusing exact check: 22 wires x 2\*\*20 "):
            verify_qram(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    with pytest.raises(ValueError, match="refusing exact check"):
        verify_circuit_matches(spec, Circuit(22))


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


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 2), (4, 1)])
@pytest.mark.parametrize("extensions,pipeline", FLAGS)
def test_every_toffoli_is_one_ccx_gate(n, k, extensions, pipeline):
    (memory,) = memories(n, k, 1, seed=n)
    used = kinds_used(build_qram_circuit(QramSpec(n, k, memory, extensions, pipeline)).circuit)
    assert "h" not in used and "ccz" not in used
    assert ("ccx" in used) == (n >= 2 and any(memory))  # n = 1 fetches with a cnot


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

def test_deep_address_bit_accumulates_z_correction():
    # address bit 2 makes 2*(2+1) = 6 crossings; 6 mod 4 = 2 -> a Z gate on
    # its bus wire among the final corrections
    spec = QramSpec(3, 1, (0,) * 8, extensions=True)
    build = build_qram_circuit(spec)
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
