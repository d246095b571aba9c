"""Exact verification of QRAM circuits against the ideal fetch map.

The ideal action on basis states is |a>|z>|0...> -> |a>|z xor memory[a]>|0...>
with every tree and scratch wire restored to |0> and no residual phase on any
branch.  Verification applies the full circuit to computational basis inputs
over the bus wires and measures the worst elementwise deviation from the
expected basis vector, which catches wrong values, unrestored ancillas, and
phase errors alike.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..circuit import Circuit
from ..sim import PureState, apply_circuit
from .build import QramBuild, QramSpec, build_qram_circuit
from .layout import TreeLayout

FULL_STATE_WIRE_CAP = 20  # bus + tree registers; scratch wires ride on top


def ideal_qram_unitary(spec: QramSpec) -> np.ndarray:
    """Permutation unitary of the fetch on the bus wires alone."""
    n, k = spec.n, spec.k
    dim = 2 ** (n + k)
    u = np.zeros((dim, dim), dtype=complex)
    for a in range(2**n):
        for z in range(2**k):
            col = (a << k) | z
            row = (a << k) | (z ^ spec.memory[a])
            u[row, col] = 1.0
    return u


def verify_qram(
    spec: QramSpec,
    build: QramBuild | None = None,
    inputs: Iterable[tuple[int, int]] | None = None,
) -> float:
    """Max deviation of the built circuit from the ideal fetch over basis
    inputs (a, z); exhaustive over all 2**(n+k) of them unless `inputs` says
    otherwise."""
    if build is None:
        _checked_layout(spec)  # refuse before building
        build = build_qram_circuit(spec)
    return verify_circuit_matches(spec, build.circuit, inputs)


def verify_circuit_matches(
    spec: QramSpec, circuit: Circuit, inputs: Iterable[tuple[int, int]] | None = None
) -> float:
    """Same check for any circuit on spec's layout, such as one read from a file."""
    lay = _checked_layout(spec)
    if circuit.n_wires != lay.n_wires:
        raise ValueError(
            f"circuit has {circuit.n_wires} wires, layout needs {lay.n_wires}"
        )
    trailing = lay.n_wires - (spec.n + spec.k)
    if inputs is None:
        inputs = (
            (a, z) for a in range(2**spec.n) for z in range(2**spec.k)
        )
    worst = 0.0
    for a, z in inputs:
        idx_in = (((a << spec.k) | z)) << trailing
        idx_out = (((a << spec.k) | (z ^ spec.memory[a]))) << trailing
        state = apply_circuit(PureState.basis(lay.n_wires, idx_in), circuit)
        err = state.vec
        err[idx_out] -= 1.0
        worst = max(worst, float(np.max(np.abs(err))))
    return worst


def _checked_layout(spec: QramSpec) -> TreeLayout:
    lay = TreeLayout(spec.n, spec.k)
    if spec.n + spec.k + lay.n_tree_wires > FULL_STATE_WIRE_CAP:
        raise ValueError(
            f"full-state verification capped at {FULL_STATE_WIRE_CAP} bus+tree wires; "
            f"n={spec.n} k={spec.k} needs {spec.n + spec.k + lay.n_tree_wires}"
        )
    return lay
