"""Exact verification of QRAM circuits against the ideal fetch map.

The ideal action on basis states is |a>|z>|0...> -> |a>|z xor memory[a]>|0...>
with every tree and scratch wire restored to |0> and no residual phase on any
branch.  Verification measures, over all 2**(n+k) computational basis
inputs on the bus wires (never a sample), the worst elementwise deviation of
the circuit's output from the expected basis vector, which catches wrong
values, unrestored ancillas, and phase errors alike.

Every gate the builder emits, the ccx Toffoli included, is a permutation with
power-of-i phases.  So all inputs are pushed through the circuit at once
(sim.basis_deviation), each wire's row packed into one int and the phase
power mod 4 into two more, and the deviation is exact: 0, sqrt 2 or 2 for
a right output with phase 1, +-i or -1, and 1 for a wrong one.  The input
rows are the bus's counting rows, and the expected ones follow in closed
form: a data wire's row flips on the 2**k columns of each address whose
word has that bit set.  A circuit with any other gate, such as one read
from a file, is refused with a ValueError before any input is built.  The
one size bound is the engine's: checked_layout refuses a layout whose
wires x 2**(n+k) row bits are over sim.BASIS_ENTRY_CAP, before anything is
built.
"""

from __future__ import annotations

from ..circuit import Circuit
from ..sim import basis_deviation, basis_steps, check_basis_cap, counting_rows
from .build import QramBuild, QramSpec, build_qram_circuit
from .layout import TreeLayout


def verify_qram(spec: QramSpec, build: QramBuild | None = None) -> float:
    """Max deviation of the built circuit from the ideal fetch over all
    2**(n+k) basis inputs (a, z)."""
    if build is None:
        checked_layout(spec)  # refuse before building
        build = build_qram_circuit(spec)
    return verify_circuit_matches(spec, build.circuit)


def verify_circuit_matches(spec: QramSpec, circuit: Circuit) -> float:
    """Same check for any circuit on spec's layout, such as one read from a file."""
    lay = checked_layout(spec)
    if circuit.n_wires != lay.n_wires:
        raise ValueError(
            f"circuit has {circuit.n_wires} wires, layout needs {lay.n_wires}"
        )
    steps = basis_steps(circuit)
    n, k = spec.n, spec.k
    # column (a << k) | z holds address a and data z; tree and scratch wires start and end at 0
    rows = counting_rows(n + k) + [0] * (lay.n_wires - n - k)
    block = (1 << 2**k) - 1  # the columns of one address
    expected = list(rows)
    for i in range(k):  # the blocks are disjoint, so their sum is their OR
        expected[n + i] ^= sum(block << (a << k) for a in range(2**n) if spec.bit(a, i))
    return basis_deviation(steps, rows, expected, 2 ** (n + k))


def checked_layout(spec: QramSpec) -> TreeLayout:
    """spec's layout, refused over the engine's row-bit bound before anything is built."""
    lay = TreeLayout(spec.n, spec.k)
    check_basis_cap(lay.n_wires, 2 ** (spec.n + spec.k))
    return lay
