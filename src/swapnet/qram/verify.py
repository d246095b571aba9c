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
a right output with phase 1, +-i or -1, and 1 for a wrong one.  A circuit
with any other gate, such as one read from a file, is refused with a
ValueError before any input is built.  The one size bound is the engine's:
checked_layout refuses a layout whose (wires x 2**(n+k)) bit matrix is over
sim.BASIS_ENTRY_CAP entries, before anything is built.
"""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit
from ..sim import basis_bits, basis_deviation, basis_steps, check_basis_cap
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
    words = np.arange(2 ** (n + k), dtype=np.int64)  # word (a << k) | z
    memory = np.array(spec.memory, dtype=np.int64)
    bits = np.zeros((lay.n_wires, words.size), dtype=np.uint8)
    expected = np.zeros_like(bits)  # tree and scratch wires start and end at 0
    bits[: n + k] = basis_bits(words, n + k)
    expected[: n + k] = basis_bits(words ^ memory[words >> k], n + k)
    return basis_deviation(steps, bits, expected)


def checked_layout(spec: QramSpec) -> TreeLayout:
    """spec's layout, refused over the engine's bit-matrix bound before anything is built."""
    lay = TreeLayout(spec.n, spec.k)
    check_basis_cap(lay.n_wires, 2 ** (spec.n + spec.k))
    return lay
