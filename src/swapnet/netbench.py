"""Depth and fidelity benchmark: SWAP networks on {CZ, iSWAP} vs a CNOT baseline.

Three compilation modes per trial, all realizing the same routed permutation:

- cnot:         three CNOTs per SWAP (baseline, 3m two-qubit gates);
- iscz_fused:   one fused iSCZ per SWAP plus the phase layer (m gates);
- iscz_unfused: iSWAP and CZ emitted separately (2m gates).

Each trial draws a uniform permutation (Fisher-Yates), routes it on the line
with odd-even transposition (round 0 compares even pairs (0,1), (2,3), ...),
and runs a Haar-random single-qubit product input through the compiled
circuit twice: once pure (fidelity against the ideal permutation of the
input, which should be 1 up to roundoff) and once with a two-qubit
depolarizing channel after every two-qubit gate (fidelity against the
circuit's own noiseless output).  The noisy run holds no density matrix:
every benchmark gate is Clifford, so `noisy_fidelity` prices the noise
exactly from the input's squared Pauli weights, which each gate permutes
and each channel scales.  The tests check it against a density matrix run
through every gate and channel (`noisy_density` in tests/oracles.py).

Per-trial randomness is seeded from (master seed, n, trial), so records do
not depend on execution order and a parallel run reproduces a serial one.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Any, Iterable, Sequence, TextIO

import numpy as np

from .circuit import Circuit, integral, metrics
from .compiler import (
    SwapPath,
    apply_reference_permutation,
    compile_cnot_baseline,
    compile_iscz,
    unfuse_iscz,
)
from .gates import PAULI_1Q, GateKind, gate_matrix
from .sim import DENSITY_WIRE_CAP, PureState, apply_circuit, check_strength, random_factors

MODES = ("cnot", "iscz_fused", "iscz_unfused")


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...]
    trials: int = 100
    p: float = 0.02
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(integral(n, "size") for n in self.sizes))
        object.__setattr__(self, "trials", integral(self.trials, "trials"))
        object.__setattr__(self, "seed", integral(self.seed, "seed"))
        if not self.sizes or any(not 2 <= n <= DENSITY_WIRE_CAP for n in self.sizes):
            raise ValueError(f"sizes must be a nonempty list of 2 <= n <= {DENSITY_WIRE_CAP}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"sizes {self.sizes} repeat a size")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_strength(self.p)
        object.__setattr__(self, "p", float(self.p))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    mode: str
    permutation: tuple[int, ...]
    m_swaps: int
    two_qubit_gates: int
    depth: int
    two_qubit_depth: int
    fidelity_noiseless: float
    fidelity_noisy: float
    p: float
    seed: int


def random_permutation(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform permutation by Fisher-Yates; perm[w] is the destination of the
    value starting on wire w."""
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        p[i], p[j] = p[j], p[i]
    return tuple(p)


def route_linear(perm: tuple[int, ...]) -> SwapPath:
    """Odd-even transposition routing on the line: nearest-neighbour SWAPs
    sending the value at wire w to wire perm[w]."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    held = list(range(n))
    pairs = []
    for r in range(n):
        for i in range(r % 2, n - 1, 2):
            if perm[held[i]] > perm[held[i + 1]]:
                held[i], held[i + 1] = held[i + 1], held[i]
                pairs.append((i, i + 1))
    return SwapPath(n, tuple(pairs))


def compile_mode(path: SwapPath, mode: str) -> Circuit:
    if mode == "cnot":
        return compile_cnot_baseline(path)
    if mode == "iscz_fused":
        return compile_iscz(path).circuit
    if mode == "iscz_unfused":
        return unfuse_iscz(compile_iscz(path).circuit)
    raise ValueError(f"unknown mode {mode!r}")


_PAULIS = tuple(PAULI_1Q[c] for c in "IXYZ")  # digit 0..3 of a Pauli string


@lru_cache(maxsize=256)
def _pauli_table(kind: GateKind) -> tuple[int, ...] | None:
    """The Clifford table of a kind: entry P is the Pauli string Q with
    U P U^dag = +-Q.  A string over the gate's r operands is numbered in
    base 4 with digits I, X, Y, Z, the first operand the most significant.
    None when the kind is not Clifford, so some U P U^dag is no Pauli string."""
    u = gate_matrix(kind)
    r = kind.arity
    strings = np.array([reduce(np.kron, ps, np.eye(1)) for ps in product(_PAULIS, repeat=r)])
    table = []
    for p in strings:
        # coordinates Tr(Q^dag M) / 2**r of M = U P U^dag; their squares sum to 1
        coords = np.einsum("qij,ij->q", strings.conj(), u @ p @ u.conj().T) / 2**r
        q = int(np.argmax(abs(coords)))
        if abs(abs(coords[q]) - 1) > 1e-12:
            return None
        table.append(q)
    return tuple(table)


def _gather_index(kind: GateKind, offsets: tuple[int, ...]) -> np.ndarray:
    """Where each Pauli string over a span of wires takes its weight from
    when a gate of this kind acts on the span's wires at `offsets`: the span
    starts at the gate's lowest wire and ends at its highest, one base-4 axis
    per wire, its first wire the most significant.  Axes off the gate pass
    through."""
    span, r = max(offsets) + 1, len(offsets)
    strings = np.moveaxis(np.arange(4**span).reshape([4] * span), offsets, range(r))
    came_from = strings.reshape(4**r, -1)[np.argsort(_pauli_table(kind))]
    return np.moveaxis(came_from.reshape(strings.shape), range(r), offsets).ravel()


def noisy_fidelity(circuit: Circuit, factors: Sequence[np.ndarray], p: float) -> float:
    """<phi|rho|phi>, where phi is the circuit's noiseless output on the
    product input of `factors` (one unit 2-vector per wire, wire 0 first) and
    rho its output when every multi-qubit gate's operands are depolarized
    with strength p right after the gate: what a density matrix run gate
    by gate with sim.depolarize_pair after each multi-qubit gate gives, for
    Clifford circuits, without a density matrix.

    Heisenberg-picture Pauli tracking (Aaronson and Gottesman,
    arXiv:quant-ph/0406196): with psi the input,
    F = 2**-n sum_Q lambda_Q <psi|Q|psi>**2 over the 4**n Pauli strings Q,
    where lambda_Q is (1-p) to the number of channels at which Q, carried
    through the gates so far, acts on the channel's wires.  The weights
    start as the Kronecker product of the per-wire [1, x**2, y**2, z**2] / 2,
    (x, y, z) the wire's Bloch vector; each gate gathers them along its
    `_pauli_table` into a second buffer, and each channel scales every one
    but those that are the identity on its wires by 1-p.  Two 4**n float
    buffers, capped like a density matrix at DENSITY_WIRE_CAP wires.
    """
    n = circuit.n_wires
    check_strength(p)
    if len(factors) != n:
        raise ValueError(f"{len(factors)} factors for a circuit on {n} wires")
    if n > DENSITY_WIRE_CAP:
        raise ValueError(f"refusing Pauli weights on {n} wires (cap {DENSITY_WIRE_CAP})")
    bloch = []
    for w, f in enumerate(factors):
        f = np.asarray(f, dtype=complex)
        if f.shape != (2,) or not abs(np.vdot(f, f).real - 1) <= 1e-9:
            raise ValueError(f"factor {w} is not a unit 2-vector")
        a, b = f
        ab = np.conj(a) * b
        x, y, z = 2 * ab.real, 2 * ab.imag, abs(a) ** 2 - abs(b) ** 2
        bloch.append(np.array([1.0, x * x, y * y, z * z]) / 2)
    for i, g in enumerate(circuit.gates):
        if _pauli_table(g.kind) is None:
            raise ValueError(f"noisy_fidelity needs Clifford gates: gate {i} ({g}) is not Clifford")
    # past the last noisy gate the gates only permute the weights, which keeps their sum
    noisy = [i for i, g in enumerate(circuit.gates) if len(g.wires) >= 2]
    stop = noisy[-1] + 1 if noisy and p > 0.0 else 0
    weights = np.ones(1)
    for v in bloch:
        weights = np.outer(weights, v).ravel()  # the Kronecker product, wire 0 first
    spare = np.empty_like(weights)
    index_of: dict[tuple, np.ndarray] = {}
    for g in circuit.gates[:stop]:
        lo = min(g.wires)
        key = (g.kind, tuple(w - lo for w in g.wires))
        if key not in index_of:
            index_of[key] = _gather_index(*key)
        index = index_of[key]
        gather_shape = (4**lo, len(index), -1)
        # every index is in range; mode "raise" would buffer the output
        np.take(weights.reshape(gather_shape), index, axis=1, out=spare.reshape(gather_shape), mode="clip")
        if len(g.wires) >= 2:
            # the gate kept the strings that are the identity on its wires in
            # place, and the channel leaves them alone; the Ellipsis keeps a
            # view when the gate covers every wire
            np.multiply(spare, 1.0 - p, out=spare)
            idle = (*(0 if w in g.wires else slice(None) for w in range(n)), ...)
            np.copyto(spare.reshape([4] * n)[idle], weights.reshape([4] * n)[idle])
        weights, spare = spare, weights
    return float(weights.sum())


def _run_trial(task: tuple[int, int, BenchConfig]) -> list[TrialRecord]:
    n, trial, config = task
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, n, trial]))
    perm = random_permutation(n, rng)
    path = route_linear(perm)
    factors = random_factors(n, rng)
    state = PureState.product(factors)
    ideal = apply_reference_permutation(path, state.vec)
    out = []
    for mode in MODES:
        circuit = compile_mode(path, mode)
        pure = apply_circuit(state, circuit)
        fid_clean = float(abs(np.vdot(ideal, pure.vec)) ** 2)
        fid_noisy = noisy_fidelity(circuit, factors, config.p)
        met = metrics(circuit)
        out.append(
            TrialRecord(
                n=n,
                trial=trial,
                mode=mode,
                permutation=perm,
                m_swaps=len(path),
                two_qubit_gates=met.two_qubit_gates,
                depth=met.depth,
                two_qubit_depth=met.two_qubit_depth,
                fidelity_noiseless=fid_clean,
                fidelity_noisy=fid_noisy,
                p=config.p,
                seed=config.seed,
            )
        )
    return out


def check_jobs(jobs: int) -> None:
    """Refuse a worker count below 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_benchmark(config: BenchConfig, jobs: int = 1) -> list[TrialRecord]:
    check_jobs(jobs)
    tasks = [(n, t, config) for n in config.sizes for t in range(config.trials)]
    # all workers start at the first submit, so never ask for more than can run
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        chunks = map(_run_trial, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_trial, tasks, chunksize=8))
    return [rec for chunk in chunks for rec in chunk]


CSV_COLUMNS = (
    "n",
    "trial",
    "mode",
    "m_swaps",
    "two_qubit_gates",
    "depth",
    "two_qubit_depth",
    "fidelity_noiseless",
    "fidelity_noisy",
    "p",
    "seed",
    "permutation",
)


def write_csv(records: Iterable[TrialRecord], out: TextIO) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in records:
        row = [getattr(r, c) for c in CSV_COLUMNS]
        row[-1] = "-".join(map(str, r.permutation))
        w.writerow(row)


def summarize(records: list[TrialRecord]) -> list[dict[str, Any]]:
    """Per (n, mode) means, in size-then-mode order."""
    keys = sorted({(r.n, r.mode) for r in records}, key=lambda t: (t[0], MODES.index(t[1])))
    out = []
    for n, mode in keys:
        grp = [r for r in records if r.n == n and r.mode == mode]
        out.append(
            {
                "n": n,
                "mode": mode,
                "trials": len(grp),
                "mean_swaps": sum(r.m_swaps for r in grp) / len(grp),
                "mean_two_qubit_gates": sum(r.two_qubit_gates for r in grp) / len(grp),
                "mean_two_qubit_depth": sum(r.two_qubit_depth for r in grp) / len(grp),
                "worst_noiseless_error": max(abs(1.0 - r.fidelity_noiseless) for r in grp),
                "mean_fidelity_noisy": sum(r.fidelity_noisy for r in grp) / len(grp),
            }
        )
    return out


def summary_text(records: list[TrialRecord]) -> str:
    rows = summarize(records)
    head = f"{'n':>3} {'mode':<13} {'trials':>6} {'swaps':>7} {'2q':>8} {'2q depth':>8} {'F noisy':>9}"
    lines = [head, "-" * len(head)]
    for s in rows:
        lines.append(
            f"{s['n']:>3} {s['mode']:<13} {s['trials']:>6} {s['mean_swaps']:>7.2f} "
            f"{s['mean_two_qubit_gates']:>8.2f} {s['mean_two_qubit_depth']:>8.2f} "
            f"{s['mean_fidelity_noisy']:>9.5f}"
        )
    return "\n".join(lines)
