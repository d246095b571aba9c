"""Depth and fidelity benchmark: SWAP networks on {CZ, iSWAP} vs a CNOT baseline.

Three compilation modes per trial, all realizing the same routed permutation:

- cnot:         three CNOTs per SWAP (baseline, 3m two-qubit gates);
- iscz_fused:   one fused iSCZ per SWAP plus the phase layer (m gates);
- iscz_unfused: iSWAP and CZ emitted separately (2m gates).

Each trial draws a uniform permutation (Fisher-Yates), routes it on the line
with odd-even transposition (round 0 compares even pairs (0,1), (2,3), ...),
and runs a Haar-random single-qubit product input through the compiled
circuit twice: once pure (fidelity against the ideal permutation of the
input, which should be 1 up to roundoff) and once as a density matrix with a
two-qubit depolarizing channel after every two-qubit gate (fidelity against
the circuit's own noiseless output).

Per-trial randomness is seeded from (master seed, n, trial), so records do
not depend on execution order and a parallel run reproduces a serial one.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Iterable, TextIO

import numpy as np

from .circuit import Circuit, metrics
from .compiler import (
    SwapPath,
    apply_reference_permutation,
    compile_cnot_baseline,
    compile_iscz,
    unfuse_iscz,
)
from .sim import DENSITY_WIRE_CAP, NoiseModel, apply_circuit, fidelity, random_product_state

MODES = ("cnot", "iscz_fused", "iscz_unfused")


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...]
    trials: int = 100
    p: float = 0.02
    seed: int = 0
    modes: tuple[str, ...] = MODES

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.sizes or any(not 2 <= n <= DENSITY_WIRE_CAP for n in self.sizes):
            raise ValueError(f"sizes must be a nonempty list of 2 <= n <= {DENSITY_WIRE_CAP}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing strength {self.p} outside [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}; choose from {MODES}")


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


def _run_trial(task: tuple[int, int, BenchConfig]) -> list[TrialRecord]:
    n, trial, config = task
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, n, trial]))
    perm = random_permutation(n, rng)
    path = route_linear(perm)
    state = random_product_state(n, rng)
    ideal = apply_reference_permutation(path, state.vec)
    noise = NoiseModel(config.p)
    out = []
    for mode in config.modes:
        circuit = compile_mode(path, mode)
        pure = apply_circuit(state, circuit)
        fid_clean = float(abs(np.vdot(ideal, pure.vec)) ** 2)
        noisy = apply_circuit(state.to_density(), circuit, noise)
        fid_noisy = fidelity(pure, noisy)
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


def run_benchmark(config: BenchConfig, jobs: int = 1) -> list[TrialRecord]:
    tasks = [(n, t, config) for n in config.sizes for t in range(config.trials)]
    if jobs <= 1:
        chunks = map(_run_trial, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        with pool:
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
        w.writerow(
            [
                r.n,
                r.trial,
                r.mode,
                r.m_swaps,
                r.two_qubit_gates,
                r.depth,
                r.two_qubit_depth,
                repr(r.fidelity_noiseless),
                repr(r.fidelity_noisy),
                repr(r.p),
                r.seed,
                "-".join(map(str, r.permutation)),
            ]
        )


def write_json(records: Iterable[TrialRecord], out: TextIO) -> None:
    docs = []
    for r in records:
        d: dict[str, Any] = asdict(r)
        d["permutation"] = list(r.permutation)
        docs.append(d)
    json.dump(docs, out, indent=1)
    out.write("\n")


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
