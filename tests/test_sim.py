"""Simulation on the one basis-map engine: statevectors, density matrices,
noise, fidelity.

Independent oracles from tests/oracles.py, both built from gate_matrix:
dense matrix arithmetic (kron products applied to full vectors) recomputes
what the basis maps produce, and a gate-by-gate tensordot contraction, with
the einsum depolarizing formula, pins them bit for bit, one gate or a whole
noisy circuit at a time.  A gate outside the monomial set (h or fsim) is
refused by every entry point with the verifier's one message.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swapnet import gates
from swapnet.circuit import Circuit, Gate
from swapnet.gates import gate_matrix
from swapnet.sim import (
    DENSITY_WIRE_CAP,
    UNITARY_WIRE_CAP,
    MixedState,
    PureState,
    _monomial,
    apply_circuit,
    basis_deviation,
    basis_steps,
    check_basis_cap,
    circuit_unitary,
    counting_rows,
    depolarize_pair,
    fidelity,
)

from oracles import (
    basis_bits,
    dense_propagate,
    dense_unitary,
    extended,
    noisy_density,
    pack,
    product_state,
    propagate_basis,
    random_product_state,
    tensordot_apply,
    tensordot_statevector,
)

TOL = 1e-12


def einsum_depolarize(rho, n, pair, p):
    """Oracle: (1-p) rho + p Tr_pair(rho) (x) I/d through a transposed copy."""
    w = len(pair)
    d = 2**w
    rest = [i for i in range(n) if i not in pair]
    perm = list(pair) + rest + [n + i for i in pair] + [n + i for i in rest]
    t = rho.reshape([2] * (2 * n)).transpose(perm)
    r = 2 ** len(rest)
    t = np.ascontiguousarray(t).reshape(d, r, d, r)
    reduced = np.einsum("arac->rc", t)
    mixed = np.zeros_like(t)
    idx = np.arange(d)
    mixed[idx, :, idx, :] = reduced / d
    t = (1.0 - p) * t + p * mixed
    inv = np.argsort(perm)
    return t.reshape([2] * (2 * n)).transpose(inv).reshape(2**n, 2**n)


def tensordot_rho(rho, n, g):
    """Oracle: U rho U^dag, the gate's tensor on the ket axes, its conjugate on the bra axes."""
    t = tensordot_apply(rho.reshape([2] * (2 * n)), g.kind, g.wires)
    t = tensordot_apply(t, g.kind, tuple(n + w for w in g.wires), conj=True)
    return t.reshape(2**n, 2**n)


def random_vec(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_rho(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


MONOMIAL_KINDS = [
    gates.GateKind(name)
    for name in ("x", "y", "z", "s", "sdag", "cz", "cnot", "swap", "iswap", "iscz",
                 "cswap", "ciswap", "ciscz", "ccz", "ccx")
]


@st.composite
def gate_on_wires(draw):
    kind = draw(st.sampled_from(MONOMIAL_KINDS))
    n = draw(st.integers(kind.arity, 5))
    wires = tuple(draw(st.permutations(range(n)))[: kind.arity])
    return n, Gate(kind, wires)


@given(gate_on_wires(), st.integers(0, 2**32 - 1))
@example((5, Gate(gates.CISCZ, (4, 2, 0))), 1)
@example((4, Gate(gates.ISWAP, (3, 1))), 2)
@example((3, Gate(gates.Y, (2,))), 3)
@settings(max_examples=150, deadline=None)
def test_monomial_kernels_match_tensordot_bit_for_bit(case, seed):
    n, g = case
    rng = np.random.default_rng(seed)
    vec = random_vec(rng, 2**n)
    pure = PureState(n, vec)
    pure.apply_gate(g)
    want = tensordot_apply(vec.reshape([2] * n), g.kind, g.wires).reshape(-1)
    assert np.array_equal(pure.vec, want)

    rho = random_rho(rng, n)
    mixed = MixedState(n, rho)
    mixed.apply_gate(g)
    assert np.array_equal(mixed.rho, tensordot_rho(rho, n, g))

    eye = np.eye(2**n, dtype=complex).reshape([2] * n + [2**n])
    want_u = tensordot_apply(eye, g.kind, g.wires).reshape(2**n, 2**n)
    assert np.array_equal(circuit_unitary(Circuit(n, (g,))), want_u)


@pytest.mark.parametrize("p", [0.02, 0.3, 1.0])
@pytest.mark.parametrize("n,pair", [(3, (1,)), (4, (3, 0)), (4, (0, 2)), (5, (4, 1, 2))])
def test_depolarize_matches_einsum_formula_bit_for_bit(n, pair, p):
    rho = random_rho(np.random.default_rng(len(pair) + n), n)
    r = MixedState(n, rho)
    depolarize_pair(r, pair, p)
    assert np.array_equal(r.rho, einsum_depolarize(rho, n, pair, p))


@st.composite
def monomial_circuits(draw):
    """Up to eight monomial gates on random wires of a 1..5-wire circuit."""
    n = draw(st.integers(1, 5))
    kinds = st.sampled_from([k for k in MONOMIAL_KINDS if k.arity <= n])
    body = []
    for kind in draw(st.lists(kinds, max_size=8)):
        body.append(Gate(kind, tuple(draw(st.permutations(range(n)))[: kind.arity])))
    return Circuit(n, tuple(body))


@given(monomial_circuits(), st.sampled_from((0.0, 0.3)), st.integers(0, 2**32 - 1))
@example(Circuit(4, (Gate(gates.S, (2,)), Gate(gates.ISCZ, (3, 1)), Gate(gates.Y, (0,)),
                     Gate(gates.CCX, (1, 0, 3)), Gate(gates.SDAG, (1,)))), 0.3, 1)
@settings(max_examples=150, deadline=None)
def test_apply_circuit_matches_gate_by_gate_tensordot_bit_for_bit(c, p, seed):
    """apply_circuit runs the whole circuit as one basis map, and noisy_density
    runs it gate by gate with a channel after each multi-qubit gate; the
    oracle applies each gate's tensor and each channel's formula in turn."""
    n = c.n_wires
    rng = np.random.default_rng(seed)
    vec = random_vec(rng, 2**n)
    assert np.array_equal(apply_circuit(PureState(n, vec), c).vec, tensordot_statevector(c, vec))

    rho = random_rho(rng, n)
    clean, noisy = rho, np.outer(vec, vec.conj())
    for g in c.gates:
        clean, noisy = (tensordot_rho(t, n, g) for t in (clean, noisy))
        if len(g.wires) >= 2:
            noisy = einsum_depolarize(noisy, n, g.wires, p)
    assert np.array_equal(apply_circuit(MixedState(n, rho), c).rho, clean)
    assert np.array_equal(noisy_density(PureState(n, vec), c, p).rho, noisy)


def test_state_constructors_do_not_alias_caller_arrays():
    rng = np.random.default_rng(4)
    vec = random_vec(rng, 8)
    vec_before = vec.copy()
    pure = PureState(3, vec)
    for g in (Gate(gates.CZ, (0, 2)), Gate(gates.ISCZ, (1, 0)), Gate(gates.CCX, (0, 1, 2))):
        pure.apply_gate(g)
    assert np.array_equal(vec, vec_before)

    rho = random_rho(rng, 3)
    rho_before = rho.copy()
    mixed = MixedState(3, rho)
    mixed.apply_gate(Gate(gates.S, (1,)))
    mixed.apply_gate(Gate(gates.CNOT, (2, 0)))
    depolarize_pair(mixed, (0, 1), 0.3)
    assert np.array_equal(rho, rho_before)
    assert not np.array_equal(mixed.rho, rho_before)


def test_non_monomial_kinds_are_refused_with_the_verifiers_message():
    vec = random_vec(np.random.default_rng(8), 8)
    for g in (Gate(gates.H, (1,)), Gate(gates.fsim(0.7, 0.2), (2, 1))):
        named = rf"^not a SWAP-network circuit: gate \({re.escape(str(g))}\) is not monomial$"
        pure = PureState(3, vec)
        with pytest.raises(ValueError, match=named):
            pure.apply_gate(g)
        assert np.array_equal(pure.vec, vec)
        mixed = pure.to_density()
        with pytest.raises(ValueError, match=named):
            mixed.apply_gate(g)
        assert np.array_equal(mixed.rho, np.outer(vec, vec.conj()))
        # given a circuit, every entry point also names the gate's index
        c = Circuit(3, (Gate(gates.CZ, (0, 1)), g))
        indexed = rf"^not a SWAP-network circuit: gate 1 \({re.escape(str(g))}\) is not monomial$"
        for state in (pure, mixed):
            with pytest.raises(ValueError, match=indexed):
                apply_circuit(state, c)
        for check in (circuit_unitary, basis_steps):
            with pytest.raises(ValueError, match=indexed):
                check(c)


def test_ccx_propagates_as_an_exact_toffoli():
    c = Circuit(4, (Gate(gates.CCX, (3, 0, 1)),))
    inputs = basis_bits(np.arange(16), 4)
    before = inputs.copy()
    bits, phase = propagate_basis(basis_steps(c), inputs)
    assert np.array_equal(inputs, before)  # the caller's matrix is left alone
    want = inputs.copy()
    want[1] ^= inputs[3] & inputs[0]
    assert np.array_equal(bits, want) and not phase.any()
    rows = (1 << np.arange(3, -1, -1)) @ want.astype(np.int64)
    assert np.array_equal(circuit_unitary(c), np.eye(16)[rows].T)  # exact, no rounding
    # written as h, ccz, h the Toffoli is not one step: its first h is refused
    h = Gate(gates.H, (1,))
    with pytest.raises(ValueError, match=r"^not a SWAP-network circuit: gate 0 \(h 1\)"):
        basis_steps(Circuit(4, (h, Gate(gates.CCZ, (3, 0, 1)), h)))


def test_propagated_phases_are_powers_of_i_mod_4():
    # s four times on a wire at 1 is the identity; three times leaves i**3
    c = Circuit(2, (Gate(gates.S, (1,)),) * 3)
    bits, phase = propagate_basis(basis_steps(c), basis_bits(np.arange(4), 2))
    assert phase.tolist() == [0, 3, 0, 3]
    steps = basis_steps(extended(c, [Gate(gates.S, (1,))] * 257))
    _, phase = propagate_basis(steps, basis_bits(np.arange(4), 2))
    assert phase.tolist() == [0, 0, 0, 0]  # 260 quarter turns wrap exactly


def test_basis_deviation_is_exact():
    rows = counting_rows(2)
    for power, dev in enumerate([0.0, np.sqrt(2), 2.0, np.sqrt(2)]):
        c = Circuit(2, (Gate(gates.S, (1,)),) * power)  # i**power on columns 01 and 11
        assert basis_deviation(basis_steps(c), rows, rows, 4) == dev == abs(1j**power - 1)
    swapped = Circuit(2, (Gate(gates.SWAP, (0, 1)),))  # 01 and 10 land elsewhere
    assert basis_deviation(basis_steps(swapped), rows, rows, 4) == 1.0
    minus = extended(swapped, [Gate(gates.CZ, (0, 1))])  # and 11 lands home with phase -1
    assert basis_deviation(basis_steps(minus), rows, rows, 4) == 2.0
    assert rows == counting_rows(2)  # the caller's rows are left alone


EVERY_MONOMIAL_KIND = [gates.I] + MONOMIAL_KINDS
COLUMN_COUNTS = (1, 7, 8, 9, 63, 64, 65, 200)  # either side of a byte and of a 64-bit word


@st.composite
def packed_cases(draw):
    """Up to twelve gates of any monomial kind on 1..6 wires, a column count
    from COLUMN_COUNTS, random input bits with some rows all ones, and the
    expected matrix basis_deviation compares with: the true outputs, or
    those with one bit flipped."""
    n = draw(st.integers(1, 6))
    kinds = st.sampled_from([k for k in EVERY_MONOMIAL_KIND if k.arity <= n])
    body = []
    for kind in draw(st.lists(kinds, max_size=12)):
        body.append(Gate(kind, tuple(draw(st.permutations(range(n)))[: kind.arity])))
    columns = draw(st.sampled_from(COLUMN_COUNTS))
    ones = sorted(draw(st.sets(st.integers(0, n - 1))))
    flip = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, columns - 1)))
    return Circuit(n, tuple(body)), columns, ones, flip, draw(st.integers(0, 2**32 - 1))


@given(packed_cases())
@example((Circuit(2, (Gate(gates.ISWAP, (0, 1)),)), 65, [0, 1], None, 0))
@example((Circuit(3, (Gate(gates.X, (2,)), Gate(gates.CISWAP, (2, 0, 1)), Gate(gates.SDAG, (1,)))),
          64, [0, 1], (2, 63), 1))
@settings(max_examples=200, deadline=None)
def test_packed_rows_match_the_dense_kernel_bit_for_bit(case):
    """The engine runs each row packed into one int; the oracle gathers uint8
    rows through each gate_matrix.  Bits, phases and deviations agree at
    every column count, the pad bits past the last column never leak in."""
    c, columns, ones, flip, seed = case
    inputs = np.random.default_rng(seed).integers(0, 2, size=(c.n_wires, columns), dtype=np.uint8)
    inputs[ones] = 1
    before = inputs.copy()
    bits, phase = propagate_basis(basis_steps(c), inputs)
    want_bits, want_phase = dense_propagate(c, inputs)
    assert np.array_equal(inputs, before)
    assert bits.dtype == phase.dtype == np.uint8
    assert np.array_equal(bits, want_bits) and np.array_equal(phase, want_phase)

    expected = want_bits.copy()
    if flip is not None:
        expected[flip] ^= 1
    hit = np.all(want_bits == expected, axis=0)
    worst = max([0.0 if hit.all() else 1.0] + [abs(1j ** int(k) - 1) for k in want_phase[hit]])
    assert basis_deviation(basis_steps(c), pack(inputs), pack(expected), columns) == worst


@pytest.mark.parametrize("kind", EVERY_MONOMIAL_KIND, ids=str)
def test_each_kind_program_reproduces_its_monomial_table(kind):
    """The compiled program, evaluated one basis input at a time with 0/1
    slots, gives _monomial's moved bits and phase power on all 2**r inputs."""
    r = kind.arity
    ((_, (ands, outs, adds)),) = basis_steps(Circuit(r, (Gate(kind, tuple(range(r))),)))
    moves, power = _monomial(kind)
    assert [p for p, _, _ in outs] == [p for p, _ in moves]
    for j in range(2**r):
        v = [1] + [(j >> (r - 1 - p)) & 1 for p in range(r)]
        for a, b in ands:
            v.append(v[a] & v[b])
        for (_, first, rest), (_, bit) in zip(outs, moves):
            assert (v[first] + sum(v[s] for s in rest)) % 2 == bit[j]
        assert sum(c * v[s] for c, s in adds) % 4 == (0 if power is None else power[j])


def test_bit_matrix_bound_is_two_to_the_24_entries():
    check_basis_cap(16, 2**20)  # exactly 2**24 entries, 16 MiB
    check_basis_cap(1, 2**24)
    for wires, inputs in ((17, 2**20), (1, 2**25), (73, 2**71), (65536, 2**65536)):
        size = rf"{wires} wires x 2\*\*{inputs.bit_length() - 1} basis inputs"
        with pytest.raises(ValueError, match=rf"^refusing exact check: {size} is over 2\*\*24 "):
            check_basis_cap(wires, inputs)


@given(st.integers(0, 20))
@example(0)
@example(3)
@example(20)
@settings(max_examples=25, deadline=None)
def test_counting_rows_are_the_packed_basis_indices(m):
    # m = 0..2 has less than one byte of columns, m = 3 exactly one
    assert counting_rows(m) == pack(basis_bits(np.arange(2**m), m))


def test_basis_bits_match_the_shift_formula():
    for n in range(1, 25):
        indices = np.random.default_rng(n).integers(0, 2**n, size=257)
        indices[:2] = 0, 2**n - 1
        shifts = np.arange(n - 1, -1, -1)
        want = ((indices[None, :] >> shifts[:, None]) & 1).astype(np.uint8)
        got = basis_bits(indices, n)
        assert got.dtype == np.uint8 and got.flags.c_contiguous and np.array_equal(got, want)


def test_basis_bits_need_no_wide_temporary():
    indices = np.arange(2**19)
    tracemalloc.start()
    try:
        bits = basis_bits(indices, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bits.shape == (19, 2**19) and peak < 32 * 2**20  # an int64 temporary was 80 MiB
    with pytest.raises(ValueError, match="basis_bits takes at most 32 wires, got 33"):
        basis_bits(indices[:4], 33)


def test_wire_zero_is_most_significant_bit():
    s = PureState.basis(2, 0)
    s.apply_gate(Gate(gates.X, (0,)))
    assert np.argmax(np.abs(s.vec)) == 2  # |10>
    s.apply_gate(Gate(gates.X, (1,)))
    assert np.argmax(np.abs(s.vec)) == 3  # |11>


def test_basis_and_product_states():
    s = PureState.basis(3, 5)
    assert s.vec[5] == 1.0 and np.sum(np.abs(s.vec)) == 1.0
    plus = np.array([1, 1]) / np.sqrt(2)
    zero = np.array([1, 0])
    p = product_state([plus, zero])
    assert np.allclose(p.vec, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


def test_pure_state_shape_validation():
    with pytest.raises(ValueError):
        PureState(2, np.zeros(3, dtype=complex))


def test_cnot_action_on_basis_states():
    for b1 in (0, 1):
        for b2 in (0, 1):
            s = PureState.basis(2, 2 * b1 + b2)
            s.apply_gate(Gate(gates.CNOT, (0, 1)))
            assert np.argmax(np.abs(s.vec)) == 2 * b1 + (b2 ^ b1)


def test_apply_gate_matches_dense_oracle():
    rng = np.random.default_rng(7)
    c = Circuit(
        4,
        (
            Gate(gates.Y, (2,)),
            Gate(gates.ISCZ, (1, 3)),
            Gate(gates.CSWAP, (3, 0, 2)),
            Gate(gates.CCX, (2, 0, 1)),
        ),
    )
    vec = rng.normal(size=16) + 1j * rng.normal(size=16)
    vec /= np.linalg.norm(vec)
    s = PureState(4, vec.copy())
    out = apply_circuit(s, c)
    assert np.max(np.abs(out.vec - dense_unitary(c) @ vec)) <= 1e-12


def test_circuit_unitary_matches_dense_oracle():
    c = Circuit(3, (Gate(gates.ISWAP, (0, 2)), Gate(gates.CCZ, (2, 0, 1))))
    assert np.max(np.abs(circuit_unitary(c) - dense_unitary(c))) <= 1e-12


def test_circuit_unitary_examples():
    c = Circuit(2, (Gate(gates.SWAP, (0, 1)),))
    assert np.array_equal(circuit_unitary(c), gate_matrix(gates.SWAP))
    c2 = Circuit(2, (Gate(gates.ISWAP, (0, 1)), Gate(gates.CZ, (0, 1))))
    assert np.max(np.abs(circuit_unitary(c2) - gate_matrix(gates.ISCZ))) <= TOL


def test_circuit_unitary_cap():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(UNITARY_WIRE_CAP + 1))


def test_mixed_state_tracks_pure_outer_product():
    rng = np.random.default_rng(3)
    c = Circuit(3, (Gate(gates.CCX, (1, 2, 0)), Gate(gates.ISCZ, (0, 2)), Gate(gates.S, (1,))))
    s = random_product_state(3, rng)
    pure = apply_circuit(s, c)
    mixed = apply_circuit(s.to_density(), c)
    assert np.max(np.abs(mixed.rho - np.outer(pure.vec, pure.vec.conj()))) <= 1e-12


def test_density_cap_enforced():
    with pytest.raises(ValueError):
        MixedState(DENSITY_WIRE_CAP + 1, np.eye(2 ** (DENSITY_WIRE_CAP + 1), dtype=complex))
    # refused before the 4**n outer product: 256 MiB at two wires over the cap
    state = PureState.basis(DENSITY_WIRE_CAP + 2, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            state.to_density()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_statevectors_stop_at_the_bit_matrix_bound():
    # a basis map holds an n x 2**n bit matrix: 20 wires x 2**20 is over 2**24
    state = PureState.basis(20, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^refusing exact check: 20 wires x 2\*\*20 basis"):
            state.apply_gate(Gate(gates.X, (0,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the bit matrix alone would be 20 MiB
    assert state.vec[1] == 1.0
    largest = PureState.basis(19, 1)
    largest.apply_gate(Gate(gates.X, (0,)))
    assert largest.vec[2**18 + 1] == 1.0


def test_depolarize_zero_strength_is_identity():
    r = PureState.basis(2, 3).to_density()
    before = r.rho.copy()
    depolarize_pair(r, (0, 1), 0.0)
    assert np.array_equal(r.rho, before)


def test_depolarize_full_strength_gives_maximally_mixed_pair():
    r = PureState.basis(2, 0).to_density()
    depolarize_pair(r, (0, 1), 1.0)
    assert np.max(np.abs(r.rho - np.eye(4) / 4)) <= TOL


def test_copy_keeps_the_density_cap():
    # the copy apply_circuit runs on must allow what the original was built under
    n = DENSITY_WIRE_CAP
    out = apply_circuit(PureState.basis(n).to_density(), Circuit(n))
    assert out.n == n and out.rho[0, 0] == 1.0


def test_depolarize_fidelity_analytic():
    # <00| rho' |00> = (1-p) + p/4 = 1 - 3p/4 = 0.985 at p = 0.02
    r = PureState.basis(2, 0).to_density()
    depolarize_pair(r, (0, 1), 0.02)
    assert abs(fidelity(PureState.basis(2, 0), r) - 0.985) <= 1e-12


def test_depolarize_subset_preserves_trace_and_rest():
    rng = np.random.default_rng(11)
    s = random_product_state(3, rng)
    r = s.to_density()
    depolarize_pair(r, (0, 2), 0.3)
    assert abs(np.trace(r.rho) - 1.0) <= 1e-12
    # wire 1's reduced state is untouched; axes are (ket0..ket2, bra0..bra2)
    red = np.einsum("abcadc->bd", r.rho.reshape([2] * 6))
    red0 = np.einsum("abcadc->bd", s.to_density().rho.reshape([2] * 6))
    assert np.max(np.abs(red - red0)) <= 1e-12


def test_depolarize_bad_strength():
    r = PureState.basis(2, 0).to_density()
    with pytest.raises(ValueError):
        depolarize_pair(r, (0, 1), 1.5)


def test_wire_count_mismatch_raises():
    with pytest.raises(ValueError):
        apply_circuit(PureState.basis(2, 0), Circuit(3))


def test_random_product_state_is_normalized_product():
    rng = np.random.default_rng(5)
    s = random_product_state(4, rng)
    assert abs(np.linalg.norm(s.vec) - 1.0) <= 1e-12
    # purity of every single-wire reduced state is 1 for a product state
    t = np.outer(s.vec, s.vec.conj()).reshape([2] * 8)
    for w in range(4):
        keep = [w, 4 + w]
        rest = [i for i in range(8) if i not in keep]
        red = np.trace(
            t.transpose(keep + rest).reshape(2, 2, 2**3, 2**3), axis1=2, axis2=3
        )
        assert abs(np.trace(red @ red) - 1.0) <= 1e-10


def test_fidelity_identical_and_orthogonal():
    a = PureState.basis(2, 1)
    assert fidelity(a, a.copy()) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(a, PureState.basis(2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_vs_maximally_mixed():
    a = PureState.basis(1, 0)
    r = MixedState(1, np.eye(2, dtype=complex) / 2)
    assert fidelity(a, r) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(r, a) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_refuses_two_mixed_states():
    r = PureState.basis(1, 0).to_density()
    with pytest.raises(TypeError, match="fidelity needs at least one pure state"):
        fidelity(r, r.copy())


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(PureState.basis(1, 0), PureState.basis(2, 0))

