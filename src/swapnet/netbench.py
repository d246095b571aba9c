"""Depth and fidelity benchmark: SWAP networks on {CZ, iSWAP} vs a CNOT baseline.

Three compilation modes per trial, all realizing the same routed permutation:

- cnot:         three CNOTs per SWAP (baseline, 3m two-qubit gates);
- iscz_fused:   one fused iSCZ per SWAP plus the phase layer (m gates);
- iscz_unfused: iSWAP and CZ emitted separately (2m gates).

Each trial draws a uniform permutation (Fisher-Yates), routes it on the line
with odd-even transposition (round 0 compares even pairs (0,1), (2,3), ...),
and checks each compiled circuit against the routed permutation with
`verify_equivalence`.  That check is exact, so the noiseless fidelity is
exactly 1 on every input, and a circuit that fails it is a compiler bug,
raised as a RuntimeError.  The noisy fidelity, against the circuit's own
noiseless output with a two-qubit depolarizing channel of strength p after
every two-qubit gate, is counted, not simulated.  Every mode compiles each
swap to a Clifford block on its pair (SWAP times single-qubit Cliffords),
so a Pauli string acts on the pair at all k noisy gates of the block or at
none (Aaronson and Gottesman, arXiv:quant-ph/0406196), as it acts on either
of the two values the swap exchanges or not.  With k = 3 (cnot), 1
(iscz_fused) or 2 (iscz_unfused), and e(A) the number of swaps whose two
values meet the value set A:

    F = 2**-n sum over value sets A of (1-p)**(k e(A)).

F does not depend on the input: on each wire of a pure product state the
squared Pauli weights of X, Y and Z sum to 1/2, as does that of I, so the
strings acting on exactly the values in A weigh 2**-n together.  The tests
check `noisy_fidelity` against a density matrix run through every gate and
channel (`noisy_density` in tests/oracles.py).  A trial holds the 2**n
subset counts and the exact check's n rows of 2**n bits, which
sim.check_basis_cap bounds, so sizes stop at BENCH_WIRE_CAP.

Per-trial randomness is seeded from (master seed, n, trial), so records do
not depend on execution order and a parallel run reproduces a serial one.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterable, TextIO

import numpy as np

from .circuit import Circuit, integral, metrics
from .compiler import SwapPath, compile_cnot_baseline, compile_iscz, unfuse_iscz, verify_equivalence
from .sim import check_strength

MODES = ("cnot", "iscz_fused", "iscz_unfused")
NOISY_GATES = dict(zip(MODES, (3, 1, 2)))  # two-qubit gates per swap
BENCH_WIRE_CAP = 19  # the largest n whose exact check sim.check_basis_cap(n, 2**n) accepts


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
        if not self.sizes or any(not 2 <= n <= BENCH_WIRE_CAP for n in self.sizes):
            raise ValueError(f"sizes must be a nonempty list of 2 <= n <= {BENCH_WIRE_CAP}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"sizes {self.sizes} repeat a size")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_strength(self.p)
        object.__setattr__(self, "p", float(self.p) + 0.0)  # -0.0 + 0.0 is +0.0
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


def noisy_fidelity(path: SwapPath, mode: str, p: float) -> float:
    """The fidelity of `compile_mode(path, mode)`'s noisy output with its
    noiseless one, on any pure product input: F of the module docstring.
    The sets per hit count sum to 2**n exactly, so F is exactly 1 at p = 0
    or with no swaps, and never above 1."""
    check_strength(p)
    if mode not in NOISY_GATES:
        raise ValueError(f"unknown mode {mode!r}")
    n = path.n_wires
    if n > BENCH_WIRE_CAP:
        raise ValueError(f"refusing noisy fidelity on {n} wires (cap {BENCH_WIRE_CAP})")
    return _priced(_hit_counts(path), NOISY_GATES[mode], p)


def _hit_counts(path: SwapPath) -> np.ndarray:
    """How many value sets A have each e(A) = 0, 1, ...; the same for every mode."""
    n = path.n_wires
    sets = np.arange(2**n, dtype=np.uint32)
    hits = np.zeros(2**n, dtype=np.uint32)  # uint16 would wrap at 65,536 swaps
    held = list(range(n))
    for a, b in path.pairs:
        hits += (sets & ((1 << held[a]) | (1 << held[b]))) != 0
        held[a], held[b] = held[b], held[a]
    return np.bincount(hits)


def _priced(count: np.ndarray, k: int, p: float) -> float:
    """F at k noisy gates per swap, from the _hit_counts."""
    return float(count @ (1.0 - p) ** (k * np.arange(len(count))) / count.sum())


def _run_trial(task: tuple[int, int, BenchConfig]) -> list[TrialRecord]:
    n, trial, config = task
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, n, trial]))
    perm = random_permutation(n, rng)
    path = route_linear(perm)
    count = _hit_counts(path)
    fused = compile_iscz(path).circuit
    out = []
    for mode, circuit in zip(MODES, (compile_cnot_baseline(path), fused, unfuse_iscz(fused))):
        dev = verify_equivalence(path, circuit)
        if dev != 0.0:
            raise RuntimeError(f"bench n={n} trial={trial} mode={mode}: the compiled circuit "
                               f"deviates from its routed permutation by {dev}")
        fid_noisy = _priced(count, NOISY_GATES[mode], config.p)
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
                fidelity_noiseless=1.0,
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
