"""Simulation kernels: statevectors, density matrices, noise, fidelity.

Independent oracles: dense matrix arithmetic (kron products applied to full
vectors) recomputes what the tensor kernels produce; a tensordot kernel and
the einsum depolarizing formula pin the fast kernels bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swapnet import gates
from swapnet.circuit import Circuit, Gate
from swapnet.gates import gate_matrix
from swapnet.sim import (
    DENSITY_WIRE_CAP,
    MixedState,
    NoiseModel,
    PureState,
    apply_circuit,
    circuit_unitary,
    depolarize_pair,
    fidelity,
    random_product_state,
)

TOL = 1e-12


def dense_unitary(circuit):
    """Oracle: expand every gate to a full 2^n x 2^n matrix with explicit
    wire-to-axis bookkeeping, then multiply."""
    n = circuit.n_wires
    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        m = gate_matrix(g.kind)
        w = len(g.wires)
        perm = list(g.wires) + [i for i in range(n) if i not in g.wires]
        p = np.zeros((2**n, 2**n))
        for b in range(2**n):
            bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
            out = 0
            for pos, wire in enumerate(perm):
                out = (out << 1) | bits[wire]
            p[out, b] = 1.0
        big = np.kron(m, np.eye(2 ** (n - w)))
        u = (p.T @ big @ p) @ u
    return u


def tensordot_apply(t, kind, axes, conj=False):
    """Oracle: contract the gate tensor with the state's operand axes."""
    w = len(axes)
    u = gate_matrix(kind)
    if conj:
        u = u.conj()
    out = np.tensordot(u.reshape([2] * (2 * w)), t, axes=(list(range(w, 2 * w)), list(axes)))
    return np.moveaxis(out, list(range(w)), list(axes))


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
                 "cswap", "ciswap", "ciscz", "ccz")
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
    t = tensordot_apply(rho.reshape([2] * (2 * n)), g.kind, g.wires)
    t = tensordot_apply(t, g.kind, tuple(n + w for w in g.wires), conj=True)
    assert np.array_equal(mixed.rho, t.reshape(2**n, 2**n))

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


def test_state_constructors_do_not_alias_caller_arrays():
    rng = np.random.default_rng(4)
    vec = random_vec(rng, 8)
    vec_before = vec.copy()
    pure = PureState(3, vec)
    for g in (Gate(gates.CZ, (0, 2)), Gate(gates.ISCZ, (1, 0)), Gate(gates.H, (2,))):
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


def test_non_monomial_kinds_use_the_dense_path():
    rng = np.random.default_rng(8)
    vec = random_vec(rng, 8)
    for g in (Gate(gates.H, (1,)), Gate(gates.SYC, (2, 0)), Gate(gates.zzevol(0.3), (0, 1))):
        s = PureState(3, vec)
        s.apply_gate(g)
        want = tensordot_apply(vec.reshape([2] * 3), g.kind, g.wires).reshape(-1)
        assert np.array_equal(s.vec, want)


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
    p = PureState.product([plus, zero])
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
            Gate(gates.H, (2,)),
            Gate(gates.ISCZ, (1, 3)),
            Gate(gates.CSWAP, (3, 0, 2)),
            Gate(gates.fsim(0.7, 0.2), (2, 0)),
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
        circuit_unitary(Circuit(13))
    assert circuit_unitary(Circuit(13), cap=13).shape == (8192, 8192)


def test_mixed_state_tracks_pure_outer_product():
    rng = np.random.default_rng(3)
    c = Circuit(3, (Gate(gates.H, (0,)), Gate(gates.ISCZ, (0, 2)), Gate(gates.S, (1,))))
    s = random_product_state(3, rng)
    pure = apply_circuit(s, c)
    mixed = apply_circuit(s.to_density(), c)
    assert np.max(np.abs(mixed.rho - np.outer(pure.vec, pure.vec.conj()))) <= 1e-12


def test_density_cap_enforced():
    with pytest.raises(ValueError):
        MixedState(DENSITY_WIRE_CAP + 1, np.eye(2 ** (DENSITY_WIRE_CAP + 1), dtype=complex))
    with pytest.raises(ValueError):
        PureState.basis(DENSITY_WIRE_CAP + 1, 0).to_density()


def test_depolarize_zero_strength_is_identity():
    r = MixedState.basis(2, 3)
    before = r.rho.copy()
    depolarize_pair(r, (0, 1), 0.0)
    assert np.array_equal(r.rho, before)


def test_depolarize_full_strength_gives_maximally_mixed_pair():
    r = MixedState.basis(2, 0)
    depolarize_pair(r, (0, 1), 1.0)
    assert np.max(np.abs(r.rho - np.eye(4) / 4)) <= TOL


def test_copy_keeps_the_density_cap():
    # the copy apply_circuit runs on must allow what the original was built under
    out = apply_circuit(PureState.basis(11).to_density(cap=11), Circuit(11))
    assert out.n == 11 and out.rho[0, 0] == 1.0


def test_depolarize_fidelity_analytic():
    # <00| rho' |00> = (1-p) + p/4 = 1 - 3p/4 = 0.985 at p = 0.02
    r = MixedState.basis(2, 0)
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
    r = MixedState.basis(2, 0)
    with pytest.raises(ValueError):
        depolarize_pair(r, (0, 1), 1.5)


def test_noise_model_rejects_pure_states():
    c = Circuit(2, (Gate(gates.CZ, (0, 1)),))
    with pytest.raises(ValueError):
        apply_circuit(PureState.basis(2, 0), c, NoiseModel(0.1))
    with pytest.raises(ValueError):
        NoiseModel(-0.1)


def test_noise_applies_only_after_multi_qubit_gates():
    c1 = Circuit(2, (Gate(gates.H, (0,)),))
    r = apply_circuit(MixedState.basis(2, 0), c1, NoiseModel(0.5))
    pure = apply_circuit(PureState.basis(2, 0), c1)
    assert np.max(np.abs(r.rho - np.outer(pure.vec, pure.vec.conj()))) <= 1e-12
    c2 = Circuit(2, (Gate(gates.CZ, (0, 1)),))
    r2 = apply_circuit(MixedState.basis(2, 0), c2, NoiseModel(1.0))
    assert np.max(np.abs(r2.rho - np.eye(4) / 4)) <= TOL


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


def test_fidelity_mixed_mixed_matches_pure_shortcut():
    rng = np.random.default_rng(9)
    a = random_product_state(2, rng)
    b = random_product_state(2, rng)
    direct = abs(np.vdot(a.vec, b.vec)) ** 2
    uhlmann = fidelity(a.to_density(), b.to_density())
    assert abs(direct - uhlmann) <= 1e-9


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(PureState.basis(1, 0), PureState.basis(2, 0))

