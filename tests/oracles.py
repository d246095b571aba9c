"""Independent amplitude oracles for the simulator's one basis-map engine.

Both build every amplitude from `gate_matrix`, never from the monomial
tables `propagate_basis` reads, so a test that compares the engine with them
compares two computations, not one engine with itself.
"""

import numpy as np

from swapnet.gates import gate_matrix


def dense_unitary(circuit):
    """Expand every gate to a full 2^n x 2^n matrix with explicit
    wire-to-axis bookkeeping, then multiply."""
    n = circuit.n_wires
    b = np.arange(2**n)
    bits = (b[:, None] >> np.arange(n - 1, -1, -1)) & 1  # row b: its wires, wire 0 first
    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        m = gate_matrix(g.kind)
        w = len(g.wires)
        perm = list(g.wires) + [i for i in range(n) if i not in g.wires]
        p = np.zeros((2**n, 2**n))
        p[bits[:, perm] @ (1 << np.arange(n - 1, -1, -1)), b] = 1.0  # operands to the front
        big = np.kron(m, np.eye(2 ** (n - w)))
        u = (p.T @ big @ p) @ u
    return u


def tensordot_apply(t, kind, axes, conj=False):
    """Contract the gate tensor with the state's operand axes."""
    w = len(axes)
    u = gate_matrix(kind)
    if conj:
        u = u.conj()
    out = np.tensordot(u.reshape([2] * (2 * w)), t, axes=(list(range(w, 2 * w)), list(axes)))
    return np.moveaxis(out, list(range(w)), list(axes))


def tensordot_statevector(circuit, vec):
    """The circuit's output statevector, gate by gate through tensordot_apply."""
    t = np.asarray(vec, dtype=complex).reshape([2] * circuit.n_wires)
    for g in circuit.gates:
        t = tensordot_apply(t, g.kind, g.wires)
    return t.reshape(-1)
