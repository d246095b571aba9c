"""Independent oracles for the tests: plain scans and dense products that the
library computes another, faster way.

The amplitude oracles build every amplitude from `gate_matrix`, never from
the gate programs the engine runs, so a test that compares the engine with
them compares two computations, not one engine with itself.  So does
`dense_propagate`, which gathers basis inputs as uint8 rows through each
gate's matrix: the dense reference for the packed engine.  The uint8 form
lives here alone: `basis_bits` unpacks basis indices into it, `pack` packs
it into the engine's rows (the reference for `sim.counting_rows`), and
`propagate_basis` runs the engine on it and unpacks the result.  On that
form `bit_matrix_path_deviation` and `bit_matrix_qram_deviation` recompute
the verifiers' values from uint8 input and expected matrices built by index
arithmetic, as the verifiers once did, compared column by column in numpy.
`layers` and `metrics_by_arity` (the generic loop `metrics` unrolls) are the
oracles for `metrics`, `legal_cz_slots` for `compile_ext2`'s
one-sweep slot search, and `noisy_density` (a density matrix through every
gate and channel) for `netbench.noisy_fidelity`, which counts value subsets
instead of simulating; `extended`, `ring` and `complete` build test inputs.

The rest left `src/` because only tests read them: `PAULI_1Q` and
`pauli_expansion` (with its `PauliExpansion`) check gate matrices against
their Pauli sums, `random_factors`, `product_state` and
`random_product_state` build the Haar-random product inputs the noise
oracles take, and `coupling_to_dict` and `qram_spec_to_dict` write the documents
that the library's readers parse.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from swapnet.circuit import Circuit, CouplingMap, Metrics
from swapnet.compiler import SwapPath
from swapnet.gates import gate_matrix
from swapnet.sim import PureState, _run, basis_steps, depolarize_pair

PAULI_1Q = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def layers(circuit):
    """Greedy as-soon-as-possible layering: each gate lands one past the busiest wire it touches."""
    frontier = [0] * circuit.n_wires
    out = []
    for g in circuit.gates:
        layer = max(frontier[w] for w in g.wires)
        if layer == len(out):
            out.append([])
        out[layer].append(g)
        for w in g.wires:
            frontier[w] = layer + 1
    return out


def metrics_by_arity(circuit):
    """Gate counts and depths in one pass over a per-wire frontier: each gate
    lands one layer past the busiest wire it touches (greedy ASAP layering),
    and the two-qubit depth counts the layers holding a multi-wire gate."""
    frontier = [0] * circuit.n_wires
    by_arity = [0, 0, 0, 0]
    multi_wire = bytearray(len(circuit.gates) + 1)  # 1 at each layer with such a gate
    for g in circuit.gates:
        wires = g.wires
        arity = len(wires)
        by_arity[arity] += 1
        if arity == 1:
            frontier[wires[0]] += 1
        elif arity == 2:
            a, b = wires
            fa, fb = frontier[a], frontier[b]
            layer = frontier[a] = frontier[b] = (fa if fa > fb else fb) + 1
            multi_wire[layer] = 1
        else:
            layer = max([frontier[w] for w in wires]) + 1
            for w in wires:
                frontier[w] = layer
            multi_wire[layer] = 1
    return Metrics(
        total_gates=len(circuit.gates),
        single_qubit_gates=by_arity[1],
        two_qubit_gates=by_arity[2],
        three_qubit_gates=by_arity[3],
        depth=max(frontier),
        two_qubit_depth=multi_wire.count(1),
    )


def extended(circuit, more):
    """The circuit with the gates of more appended; the original is unchanged."""
    return Circuit(circuit.n_wires, circuit.gates + tuple(more), circuit.known_zero)


def ring(n):
    if n < 3:
        raise ValueError("ring needs n >= 3")
    return CouplingMap(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n):
    return CouplingMap(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def legal_cz_slots(path, coupling, swap_index):
    """All slots t (CZ after the first t swaps of the path) where swap_index's
    two values sit on a coupled edge.  Always contains swap_index and
    swap_index + 1 when the path runs on the map's edges.  A plain scan over
    every slot."""
    if coupling.n_wires != path.n_wires:
        raise ValueError(f"coupling map has {coupling.n_wires} wires, path {path.n_wires}")
    m = len(path.pairs)
    if not 0 <= swap_index < m:
        raise ValueError(f"swap index {swap_index} outside 0..{m - 1}")
    held = SwapPath(path.n_wires, path.pairs[:swap_index]).value_at()
    wires = [held[w] for w in path.pairs[swap_index]]  # each value starts on its own wire
    slots = [0] if coupling.has_edge(*wires) else []
    for t, (a, b) in enumerate(path.pairs, 1):
        wires = [b if w == a else a if w == b else w for w in wires]
        if coupling.has_edge(*wires):
            slots.append(t)
    return slots


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


def basis_bits(indices, n):
    """The (n x len(indices)) uint8 bit matrix of basis indices over n <= 32
    wires; row w holds wire w, the most significant bit first.  The indices
    are unpacked as big-endian 32-bit words, so no wider temporary exists."""
    if n > 32:
        raise ValueError(f"basis_bits takes at most 32 wires, got {n}")
    words = np.asarray(indices).astype(">u4").view(np.uint8).reshape(-1, 4)
    return np.ascontiguousarray(np.unpackbits(words, axis=1)[:, 32 - n :].T)


def pack(bits):
    """Each row of a (wires x columns) bit matrix as one int, bit c for column c."""
    return [int.from_bytes(row, "little") for row in np.packbits(bits, axis=1, bitorder="little")]


def propagate_basis(steps, bits):
    """sim's engine on a (wires x inputs) uint8 matrix, column c the bits of
    input c: the output bit matrix and, per input, the power k mod 4 of the
    phase i**k the circuit multiplies in."""
    columns = bits.shape[1]
    rows = pack(bits)
    rows += _run(steps, rows, (1 << columns) - 1)  # the output rows, then the phase planes
    size = (columns + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(size, "little") for r in rows), dtype=np.uint8)
    out = np.unpackbits(packed.reshape(len(rows), size), axis=1, count=columns, bitorder="little")
    return out[:-2], out[-2] | (out[-1] << 1)


def bit_matrix_deviation(circuit, inputs, expected):
    """max |U - P| over the columns of the uint8 inputs: 1 when a column
    misses its expected one, else |i**k - 1| for its phase power k."""
    bits, phase = propagate_basis(basis_steps(circuit), inputs)
    hit = np.all(bits == expected, axis=0)
    return max([0.0 if hit.all() else 1.0] + [abs(1j ** int(k) - 1) for k in np.unique(phase[hit])])


def bit_matrix_path_deviation(path, circuit, constraints):
    """verify_equivalence's value: the free wires count through their basis
    indices, the constraint wires stay 0, and wire w should end up holding
    the row that started on wire value_at()[w]."""
    n = path.n_wires
    free = [w for w in range(n) if w not in constraints]
    inputs = np.zeros((n, 2 ** len(free)), dtype=np.uint8)
    inputs[free] = basis_bits(np.arange(2 ** len(free)), len(free))
    return bit_matrix_deviation(circuit, inputs, inputs[path.value_at()])


def bit_matrix_qram_deviation(spec, circuit):
    """verify_circuit_matches's value: bus word (a << k) | z should become
    (a << k) | (z ^ memory[a]), every other wire start and end at 0."""
    n, k = spec.n, spec.k
    words = np.arange(2 ** (n + k), dtype=np.int64)
    inputs = np.zeros((circuit.n_wires, words.size), dtype=np.uint8)
    expected = np.zeros_like(inputs)
    inputs[: n + k] = basis_bits(words, n + k)
    expected[: n + k] = basis_bits(words ^ np.array(spec.memory, dtype=np.int64)[words >> k], n + k)
    return bit_matrix_deviation(circuit, inputs, expected)


def dense_propagate(circuit, bits):
    """The (wires x inputs) uint8 basis inputs pushed through the circuit gate
    by gate with numpy gathers over whole rows: each gate's operand bits form
    an index into the destination and phase power of its gate_matrix column.
    Returns the output bits and the phase power mod 4 per input, the form
    propagate_basis gives from packed rows."""
    bits = np.array(bits, dtype=np.uint8)
    phase = np.zeros(bits.shape[1], dtype=np.uint8)  # wraps mod 256, a multiple of 4
    for g in circuit.gates:
        u = gate_matrix(g.kind)
        dest = np.argmax(u != 0, axis=0)
        power = np.array([[1, 1j, -1, -1j].index(u[d, j]) for j, d in enumerate(dest)], dtype=np.uint8)
        index = np.zeros(bits.shape[1], dtype=np.intp)
        for w in g.wires:
            index = (index << 1) | bits[w]
        phase += power[index]
        out = dest[index]
        for p, w in enumerate(g.wires):
            bits[w] = (out >> (len(g.wires) - 1 - p)) & 1
    return bits, phase & 3


def tensordot_apply(t, kind, axes, conj=False):
    """Contract the gate tensor with the state's operand axes."""
    w = len(axes)
    u = gate_matrix(kind)
    if conj:
        u = u.conj()
    out = np.tensordot(u.reshape([2] * (2 * w)), t, axes=(list(range(w, 2 * w)), list(axes)))
    return np.moveaxis(out, list(range(w)), list(axes))


def noisy_density(state, circuit, p):
    """The pure state's density matrix through the circuit gate by gate, each
    gate on two or more wires followed by a depolarizing channel of strength
    p on its wires: the dense noise model netbench.noisy_fidelity counts."""
    rho = state.to_density()
    for g in circuit.gates:
        rho.apply_gate(g)
        if len(g.wires) >= 2:
            depolarize_pair(rho, g.wires, p)
    return rho


def tensordot_statevector(circuit, vec):
    """The circuit's output statevector, gate by gate through tensordot_apply."""
    t = np.asarray(vec, dtype=complex).reshape([2] * circuit.n_wires)
    for g in circuit.gates:
        t = tensordot_apply(t, g.kind, g.wires)
    return t.reshape(-1)


@dataclass(frozen=True)
class PauliExpansion:
    """Two-qubit operator as sum of coefficients times Pauli products P (x) Q."""

    coeffs: dict

    def reconstruct(self):
        out = np.zeros((4, 4), dtype=complex)
        for label, c in self.coeffs.items():
            out += c * np.kron(PAULI_1Q[label[0]], PAULI_1Q[label[1]])
        return out

    def nonzero(self):
        return {k: v for k, v in self.coeffs.items() if abs(v) > 1e-12}


def pauli_expansion(kind):
    """Expand a two-qubit gate over the 16 Pauli products, coeff = Tr[(P(x)Q)^dag M]/4."""
    if kind.arity != 2:
        raise ValueError(f"pauli_expansion needs a two-qubit gate, got {kind}")
    m = gate_matrix(kind)
    coeffs = {}
    for a, b in product("IXYZ", repeat=2):
        p = np.kron(PAULI_1Q[a], PAULI_1Q[b])
        coeffs[a + b] = complex(np.trace(p.conj().T @ m)) / 4
    return PauliExpansion(coeffs)


def random_factors(n, rng):
    """Haar-random single-qubit states, wire 0 first: two complex normals per
    qubit, normalized."""
    factors = []
    for _ in range(n):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors.append(a / np.linalg.norm(a))
    return factors


def product_state(factors):
    """The pure state of the single-qubit factors, wire 0 first (most significant)."""
    vec = np.array([1.0], dtype=complex)
    for f in factors:
        vec = np.kron(vec, np.asarray(f, dtype=complex))
    return PureState(len(factors), vec)


def random_product_state(n, rng):
    """Haar-random single-qubit product state, the product of random_factors."""
    return product_state(random_factors(n, rng))


def coupling_to_dict(coupling):
    return {"n": coupling.n_wires, "edges": sorted(list(e) for e in coupling.edges)}


def qram_spec_to_dict(spec):
    return {
        "n": spec.n,
        "k": spec.k,
        "memory": list(spec.memory),
        "extensions": spec.extensions,
        "pipeline": spec.pipeline,
    }
