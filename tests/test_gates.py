"""Gate matrices: exact values, algebraic identities, Pauli expansions.

Tolerance discipline: identities that hold in exact arithmetic are checked
entrywise to 1e-12; nothing is compared up to global phase.
"""

import math

import numpy as np
import pytest

from swapnet import gates
from swapnet.circuit import Gate
from swapnet.gates import (
    GateKind,
    PHASE_BY_COUNT,
    controlled,
    fsim,
    gate_matrix,
    xyevol,
    zzevol,
)

from oracles import PAULI_1Q, pauli_expansion

TOL = 1e-12


def mat(kind):
    return gate_matrix(kind)


def kron(a, b):
    return np.kron(mat(a), mat(b))


def assert_close(a, b, tol=TOL):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


ALL_FIXED = [
    gates.I, gates.X, gates.Y, gates.Z, gates.S, gates.SDAG, gates.H,
    gates.CZ, gates.CNOT, gates.SWAP, gates.ISWAP, gates.ISCZ, gates.SYC,
    gates.CSWAP, gates.CISWAP, gates.CISCZ, gates.CCZ, gates.CCX,
]
PARAMETRIC_SAMPLES = [
    fsim(0.0, 0.0), fsim(math.pi / 2, math.pi), fsim(0.3, 1.1),
    xyevol(0.0), xyevol(math.pi / 2), xyevol(0.7),
    zzevol(0.0), zzevol(math.pi / 4), zzevol(1.2),
]


@pytest.mark.parametrize("kind", ALL_FIXED + PARAMETRIC_SAMPLES, ids=str)
def test_every_matrix_is_unitary(kind):
    u = mat(kind)
    assert u.shape == (2**kind.arity,) * 2
    assert_close(u @ u.conj().T, np.eye(len(u)))


def test_iscz_matrix_exact():
    expect = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, -1]],
        dtype=complex,
    )
    assert np.array_equal(mat(gates.ISCZ), expect)


def test_iscz_is_iswap_cz_product_both_orders():
    iswap, cz, iscz = mat(gates.ISWAP), mat(gates.CZ), mat(gates.ISCZ)
    assert_close(iswap @ cz, iscz)
    assert_close(cz @ iswap, iscz)


def test_swap_recovered_from_iscz_and_sdag_pair():
    corr = kron(gates.SDAG, gates.SDAG)
    assert_close(mat(gates.ISCZ) @ corr, mat(gates.SWAP))
    assert_close(corr @ mat(gates.ISCZ), mat(gates.SWAP))


def test_sdag_commutes_through_iscz_by_switching_wires():
    iscz = mat(gates.ISCZ)
    assert_close(iscz @ kron(gates.I, gates.SDAG), kron(gates.SDAG, gates.I) @ iscz)
    assert_close(iscz @ kron(gates.SDAG, gates.I), kron(gates.I, gates.SDAG) @ iscz)


def test_sdag_powers_have_period_four():
    sdag = mat(gates.SDAG)
    assert_close(np.linalg.matrix_power(sdag, 2), mat(gates.Z))
    assert_close(np.linalg.matrix_power(sdag, 3), mat(gates.S))
    assert_close(np.linalg.matrix_power(sdag, 4), np.eye(2))


def test_phase_by_count_maps_counters_to_sdag_powers():
    sdag = mat(gates.SDAG)
    assert PHASE_BY_COUNT[0] is None
    for c in (1, 2, 3):
        assert_close(mat(PHASE_BY_COUNT[c]), np.linalg.matrix_power(sdag, c))


def test_iswap_basis_action():
    # |b1 b2> -> (+i)^(b1 xor b2) |b2 b1>, first operand most significant
    u = mat(gates.ISWAP)
    for b1 in (0, 1):
        for b2 in (0, 1):
            col = u[:, 2 * b1 + b2]
            expect = np.zeros(4, dtype=complex)
            expect[2 * b2 + b1] = 1j ** (b1 ^ b2)
            assert_close(col, expect)


def test_cz_basis_action():
    u = mat(gates.CZ)
    for b1 in (0, 1):
        for b2 in (0, 1):
            col = u[:, 2 * b1 + b2]
            expect = np.zeros(4, dtype=complex)
            expect[2 * b1 + b2] = (-1) ** (b1 * b2)
            assert_close(col, expect)


def test_ccx_is_ccz_conjugated_by_h_on_the_target_exactly():
    h2 = np.kron(np.eye(4), [[1, 1], [1, -1]])  # sqrt(2) h on the last operand, in integers
    assert np.array_equal(mat(gates.CCX), h2 @ mat(gates.CCZ) @ h2 / 2)
    assert np.array_equal(mat(gates.CCX), np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]])


def test_swap_and_cz_exact_entries():
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(mat(gates.SWAP), swap.astype(complex))
    assert np.array_equal(mat(gates.CZ), np.diag([1, 1, 1, -1]).astype(complex))


def test_fsim_zero_angles_is_identity():
    assert_close(mat(fsim(0.0, 0.0)), np.eye(4))


def test_fsim_half_pi_pi_is_elementwise_conjugate_of_iscz():
    # sign conventions differ: fsim carries -i middles, iscz carries +i
    assert_close(mat(fsim(math.pi / 2, math.pi)), mat(gates.ISCZ).conj())


def test_syc_is_fsim_at_its_fixed_angles():
    assert_close(mat(gates.SYC), mat(fsim(math.pi / 2, math.pi / 6)))


def test_xy_evolution_zero_is_identity():
    assert_close(mat(xyevol(0.0)), np.eye(4))


def test_xy_evolution_half_pi_middles_are_minus_i():
    u = mat(xyevol(math.pi / 2))
    assert abs(u[1, 2] + 1j) <= TOL
    assert abs(u[2, 1] + 1j) <= TOL
    assert abs(u[1, 1]) <= TOL and abs(u[2, 2]) <= TOL


def test_evolution_helpers_match_gate_matrix():
    # xyevol(gt) and zzevol(gt) are exp(-i*gt*H) for their documented H
    p = PAULI_1Q
    for kind, h, gt in (
        (xyevol, (np.kron(p["X"], p["X"]) + np.kron(p["Y"], p["Y"])) / 2, 0.7),
        (zzevol, np.kron(p["Z"], p["Z"]), 1.2),
    ):
        evals, vecs = np.linalg.eigh(h)
        assert_close(mat(kind(gt)), (vecs * np.exp(-1j * gt * evals)) @ vecs.conj().T)


def test_zz_evolution_quarter_pi_is_cz_up_to_single_qubit_phases():
    # solve diag(d) @ zz = cz; the diagonal must exist and factor as a
    # tensor product of single-qubit phase gates (d00*d11 == d01*d10)
    zz = mat(zzevol(math.pi / 4))
    cz = mat(gates.CZ)
    d = cz @ np.linalg.inv(zz)
    assert_close(d, np.diag(np.diag(d)))
    dd = np.diag(d)
    assert abs(dd[1] - dd[2]) <= TOL
    assert abs(dd[0] * dd[3] - dd[1] * dd[2]) <= TOL


def test_zz_evolution_diagonal_entries():
    gt = 0.9
    u = mat(zzevol(gt))
    expect = np.exp(-1j * gt) * np.diag([1, np.exp(2j * gt), np.exp(2j * gt), 1])
    assert_close(u, expect)


def test_controlled_builds_block_unitary():
    u = mat(gates.SWAP)
    cu = controlled(u)
    assert_close(cu[:4, :4], np.eye(4))
    assert_close(cu[4:, 4:], u)
    assert np.max(np.abs(cu[:4, 4:])) == 0
    assert np.max(np.abs(cu[4:, :4])) == 0


def test_three_qubit_kinds():
    assert_close(mat(gates.CSWAP), controlled(mat(gates.SWAP)))
    assert_close(mat(gates.CISWAP), controlled(mat(gates.ISWAP)))
    assert_close(mat(gates.CISCZ), controlled(mat(gates.ISCZ)))
    assert np.array_equal(mat(gates.CCZ), np.diag([1.0] * 7 + [-1.0]).astype(complex))


def test_gate_kind_validation():
    with pytest.raises(ValueError):
        GateKind("nosuch")
    with pytest.raises(ValueError):
        GateKind("fsim", (0.1,))  # needs two params
    with pytest.raises(ValueError):
        GateKind("swap", (0.5,))  # takes none
    with pytest.raises(ValueError):
        GateKind("xyevol", (float("nan"),))
    # a list of integers is stored as a tuple of floats, so its gates hash
    kind = GateKind("fsim", [1, 0])
    assert kind.params == (1.0, 0.0) and kind == gates.fsim(1.0, 0.0)
    assert Gate(kind, (0, 1)) is Gate(gates.fsim(1, 0), (0, 1))


def test_gate_kind_str_and_arity():
    assert str(gates.ISCZ) == "iscz"
    assert gates.CSWAP.arity == 3
    assert str(fsim(0.5, 0.25)) == "fsim(0.5, 0.25)"


PAULI_ORACLES = {
    "swap": {"II": 0.5, "XX": 0.5, "YY": 0.5, "ZZ": 0.5},
    "cz": {"II": 0.5, "IZ": 0.5, "ZI": 0.5, "ZZ": -0.5},
    "iswap": {"II": 0.5, "ZZ": 0.5, "XX": 0.5j, "YY": 0.5j},
}


@pytest.mark.parametrize("name", sorted(PAULI_ORACLES), ids=str)
def test_pauli_expansion_known_coefficients(name):
    exp = pauli_expansion(GateKind(name))
    got = exp.nonzero()
    want = PAULI_ORACLES[name]
    assert set(got) == set(want)
    for label, coeff in want.items():
        assert abs(got[label] - coeff) <= TOL


@pytest.mark.parametrize(
    "kind",
    [gates.CZ, gates.CNOT, gates.SWAP, gates.ISWAP, gates.ISCZ, gates.SYC,
     fsim(0.4, 2.0), xyevol(1.3), zzevol(0.6)],
    ids=str,
)
def test_pauli_expansion_reconstructs_matrix(kind):
    assert_close(pauli_expansion(kind).reconstruct(), mat(kind), TOL)


def test_pauli_expansion_rejects_wrong_arity():
    with pytest.raises(ValueError):
        pauli_expansion(gates.X)
    with pytest.raises(ValueError):
        pauli_expansion(gates.CSWAP)
