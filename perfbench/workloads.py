"""Seeded input pools, timed ops and untimed output checks for each workload.

A workload turns a seed and a pass number into a pool of ops.  Every pass
draws fresh inputs, and position i of every pass draws from the same stratum
(same kind, size and swap-count rank), so the pools of all passes carry the
same mix while no input repeats.  ``execute`` is the timed part of an op and
calls swapnet only through module attributes looked up at call time, so the
tracer's substitutions take effect.  ``check`` runs outside the timed region
and returns the problems it found, the (two-qubit gates, two-qubit depth) of
every circuit the op emitted, and what the workload's summary needs to keep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from swapnet import circuit, compiler, gates, netbench, qram
from swapnet.qram import verify as qram_verify

TOL_PATH = 1e-10  # compiled circuit vs reference permutation
TOL_QRAM = 1e-9  # QRAM fetch and noiseless benchmark fidelity
NOISE_P = 0.02
OVERSAMPLE = 8  # candidates drawn per pool input (at least 64), see _stratified
QRAM_FLAGS = ((False, False), (False, True), (True, False), (True, True))
COUNT_FIELDS = (
    "internal_swap_pairs",
    "root_swaps",
    "setting_routing_pairs",
    "fetch_routing_ops",
    "fetch_unidirectional_pairs",
    "fetch_bidirectional_pairs",
    "ext1_saved_pairs",
    "ext2_saved_pairs",
    "cz_on_qpu",
    "parity_correction_events",
    "extra_memory_cells",
)


@dataclass(frozen=True)
class Op:
    kind: str
    n: int
    args: tuple


@dataclass
class Outcome:
    problems: list[str]
    quality: list[tuple[int, int]] = field(default_factory=list)
    keep: Any = None  # passed to the workload's summary


def _rng(seed: int, stream: int, pass_no: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, pass_no]))


def _inversions(perm) -> int:
    """Swaps that odd-even transposition routing makes for this permutation."""
    p = np.asarray(perm)
    return int(np.count_nonzero(np.triu(p[:, None] > p[None, :])))


def _candidates(count: int) -> int:
    return max(count * OVERSAMPLE, 64)


def _stratified(candidates: list, key, count: int) -> list:
    """`count` candidates spread evenly over their ranking by `key`.

    Op cost grows with the swap count m, so pools drawn this way carry nearly
    the same mix of m for every seed, and the spread between seeds reflects
    the code rather than the draw.  Each pick is still a random input."""
    ranked = sorted(candidates, key=key)
    step = len(ranked) / count
    return [ranked[int((i + 0.5) * step)] for i in range(count)]


def _routed(n: int, count: int, rng: np.random.Generator) -> list[compiler.SwapPath]:
    perms = [tuple(int(v) for v in rng.permutation(n)) for _ in range(_candidates(count))]
    return [netbench.route_linear(p) for p in _stratified(perms, _inversions, count)]


def _known_zero(n: int, rng: np.random.Generator) -> frozenset[int]:
    size = int(rng.integers(1, max(2, n // 3) + 1))
    return frozenset(int(w) for w in rng.choice(n, size=size, replace=False))


def _memory(n: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, 2**k, size=2**n))


def _flip_bit(spec: qram.QramSpec, rng: np.random.Generator) -> qram.QramSpec:
    cell, bit = int(rng.integers(0, 2**spec.n)), int(rng.integers(0, spec.k))
    memory = list(spec.memory)
    memory[cell] ^= 1 << (spec.k - 1 - bit)
    return qram.QramSpec(spec.n, spec.k, tuple(memory), spec.extensions, spec.pipeline)


def _quality(c: circuit.Circuit) -> tuple[int, int]:
    met = circuit.metrics(c)
    return met.two_qubit_gates, met.two_qubit_depth


def _twoq(c: circuit.Circuit) -> int:
    return sum(1 for g in c.gates if len(g.wires) == 2)


def _phase_layer(c: circuit.Circuit) -> list[circuit.Gate]:
    return [g for g in c.gates if len(g.wires) == 1]


def _tally_problems(spec: qram.QramSpec, record, report) -> list[str]:
    """An ext+pipeline build's record must tally with `count_gates(n, k)`."""
    if not (spec.extensions and spec.pipeline):
        return []
    return [
        f"qram n={spec.n} k={spec.k}: record {name} differs from count_gates"
        for name in COUNT_FIELDS
        if getattr(record, name) != getattr(report, name)
    ]


def _firsts(pool: list[Op], key=lambda op: op.kind) -> list[Op]:
    """Untimed warm-up: the first (and, by pool order, smallest) op of each kind,
    taken from pass 0, whose inputs no timed pass uses."""
    return list({key(op): op for op in reversed(pool)}.values())


class Noise:
    """The paper's headline experiment: one benchmark trial per op."""

    name = "noise"

    def pool(self, seed: int, pass_no: int, small: bool = False) -> list[Op]:
        rng = _rng(seed, 0, pass_no)
        sizes, per_size = ((4, 5), 2) if small else ((6, 7, 8), 16)

        def swaps(n: int, s: int) -> int:  # the permutation run_benchmark draws for trial 0
            trial_rng = np.random.default_rng(np.random.SeedSequence([s, n, 0]))
            return _inversions(netbench.random_permutation(n, trial_rng))

        seeds = {
            n: _stratified(
                [int(v) for v in rng.integers(0, 2**31, size=_candidates(per_size))],
                lambda s, n=n: swaps(n, s),
                per_size,
            )
            for n in sizes
        }
        return [Op("trial", n, (seeds[n][i],)) for i in range(per_size) for n in sizes]

    def warmup(self, pool: list[Op]) -> list[Op]:
        return _firsts(pool, lambda op: op.n)

    def execute(self, op: Op) -> Any:
        config = netbench.BenchConfig(sizes=(op.n,), trials=1, p=NOISE_P, seed=op.args[0])
        return netbench.run_benchmark(config, jobs=1)

    def check(self, op: Op, records: Any) -> Outcome:
        problems = []
        m = records[0].m_swaps
        expect = {"iscz_fused": m, "iscz_unfused": 2 * m, "cnot": 3 * m}
        for r in records:
            if abs(r.fidelity_noiseless - 1.0) > TOL_QRAM:
                problems.append(f"n={op.n} {r.mode}: noiseless fidelity {r.fidelity_noiseless!r}")
            if r.two_qubit_gates != expect.pop(r.mode, None):
                problems.append(f"n={op.n} {r.mode}: {r.two_qubit_gates} two-qubit gates for m={m}")
        if expect:
            problems.append(f"n={op.n}: modes missing {sorted(expect)}")
        quality = [(r.two_qubit_gates, r.two_qubit_depth) for r in records]
        return Outcome(problems, quality, records)

    def summary(self, outputs: list[Any]) -> tuple[list[str], dict[str, Any]]:
        records = [r for recs in outputs for r in recs]
        problems = []
        for n in sorted({r.n for r in records}):
            mean = {
                mode: float(np.mean([r.fidelity_noisy for r in records if r.n == n and r.mode == mode]))
                for mode in netbench.MODES
            }
            for mode in ("iscz_fused", "iscz_unfused"):
                if not mean[mode] > mean["cnot"]:
                    problems.append(f"n={n}: mean {mode} fidelity {mean[mode]:.6f} <= cnot {mean['cnot']:.6f}")
        fused = [r.fidelity_noisy for r in records if r.mode == "iscz_fused"]
        digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
        extra = {
            "out_fidelity_noisy": {"value": float(np.mean(fused)), "unit": "fidelity"},
            "records_sha256": digest,
        }
        return problems, extra


class Verify:
    """Exact verdicts: compiled SWAP paths and exhaustive QRAM fetches."""

    name = "verify"
    warmup = staticmethod(_firsts)
    PATH_MODES = ("iscz", "ext1", "ext2", "cnot")

    def pool(self, seed: int, pass_no: int, small: bool = False) -> list[Op]:
        rng = _rng(seed, 1, pass_no)
        sizes, reps = ((4, 5), 1) if small else ((6, 7, 8, 9), 3)
        qram_sizes = ((2, 2),) if small else ((2, 2), (2, 3), (2, 4))
        ops = []
        for n in sizes:
            line = circuit.CouplingMap.line(n)
            paths = _routed(n, reps * len(self.PATH_MODES), rng)
            for i, path in enumerate(paths):
                mode = self.PATH_MODES[i % len(self.PATH_MODES)]
                extra = {
                    "ext1": _known_zero(n, rng),
                    "ext2": ("earliest", "latest")[int(rng.integers(0, 2))],
                }.get(mode)
                ops.append(Op("path", n, (mode, path, extra, line)))
        for n in sizes:
            for mutation in ("drop_phase", "iscz_to_iswap"):
                # the median of 64 draws, so m >= 1 (the identity would need 32 of them)
                (path,) = _routed(n, 1, rng)
                ops.append(Op("path_bad", n, (mutation, path, int(rng.integers(0, 2**31)))))
        for n, k in qram_sizes:
            for ext, pipe in QRAM_FLAGS:
                ops.append(Op("qram", n, (qram.QramSpec(n, k, _memory(n, k, rng), ext, pipe),)))
        for n, k in qram_sizes:
            for mutation in ("spec", "circuit"):
                ext, pipe = QRAM_FLAGS[int(rng.integers(0, 4))]
                spec = qram.QramSpec(n, k, _memory(n, k, rng), ext, pipe)
                ops.append(Op("qram_bad", n, (mutation, spec, _flip_bit(spec, rng))))
        return ops

    def execute(self, op: Op) -> Any:
        if op.kind == "path":
            mode, path, extra, line = op.args
            constraints = frozenset()
            if mode == "iscz":
                c = compiler.compile_iscz(path).circuit
            elif mode == "ext1":
                c, constraints = compiler.compile_ext1(path, extra).circuit, extra
            elif mode == "ext2":
                c = compiler.compile_ext2(path, line, extra).circuit
            else:
                c = compiler.compile_cnot_baseline(path)
            return c, compiler.verify_equivalence(path, c, constraints)
        if op.kind == "path_bad":
            mutation, path, pick = op.args
            c = compiler.compile_iscz(path).circuit
            body, m = list(c.gates), len(path)
            if mutation == "drop_phase" and len(body) > m:
                del body[m + pick % (len(body) - m)]
            else:  # one fused iSCZ loses its CZ half
                j = pick % m
                body[j] = circuit.Gate(gates.ISWAP, body[j].wires)
            bad = circuit.Circuit(c.n_wires, tuple(body))
            return bad, compiler.verify_equivalence(path, bad)
        if op.kind == "qram":
            (spec,) = op.args
            build = qram.build_qram_circuit(spec)
            return build.circuit, qram.verify_qram(spec, build), build.record, qram.count_gates(spec.n, spec.k)
        mutation, spec, flipped = op.args
        if mutation == "spec":  # the build of spec, checked against the flipped memory
            build = qram.build_qram_circuit(spec)
            return build.circuit, qram.verify_qram(flipped, build)
        build = qram.build_qram_circuit(flipped)  # a flipped build, checked against spec
        return build.circuit, qram_verify.verify_circuit_matches(spec, build.circuit)

    def check(self, op: Op, out: Any) -> Outcome:
        c, dev = out[:2]
        tol = TOL_PATH if op.kind.startswith("path") else TOL_QRAM
        if op.kind.endswith("_bad"):
            problems = [] if dev > tol else [f"{op.kind} {op.args[0]} n={op.n}: accepted, deviation {dev!r}"]
            return Outcome(problems, [], dev > tol)
        problems = [] if dev <= tol else [f"{op.kind} n={op.n}: deviation {dev!r} > {tol}"]
        if op.kind == "qram":
            problems += _tally_problems(op.args[0], *out[2:])
        return Outcome(problems, [_quality(c)])

    def summary(self, outputs: list[Any]) -> tuple[list[str], dict[str, Any]]:
        return [], {"known_bad_rejected": sum(outputs)}


class Compile:
    """Compilers and the QRAM builder alone; nothing is simulated."""

    name = "compile"
    warmup = staticmethod(_firsts)
    PATHS = {24: 6, 32: 6, 48: 2, 64: 2}

    def pool(self, seed: int, pass_no: int, small: bool = False) -> list[Op]:
        rng = _rng(seed, 2, pass_no)
        paths = {8: 2, 12: 2} if small else self.PATHS
        qram_sizes, memories = ((2, 3), 1) if small else ((4, 5, 6, 7), 2)
        ops = []
        for n, count in paths.items():
            line = circuit.CouplingMap.line(n)
            for path in _routed(n, count, rng):
                ops.append(Op("paths", n, (path, _known_zero(n, rng), line)))
        for n in qram_sizes:
            for flags in (False, True):
                for _ in range(memories):
                    ops.append(Op("qram_build", n, (qram.QramSpec(n, 4, _memory(n, 4, rng), flags, flags),)))
        return ops

    def execute(self, op: Op) -> Any:
        if op.kind == "paths":
            path, known_zero, line = op.args
            iscz = compiler.compile_iscz(path)
            results = (
                iscz,
                compiler.unfuse_iscz(iscz.circuit),
                compiler.compile_cnot_baseline(path),
                compiler.compile_ext1(path, known_zero),
                compiler.compile_ext2(path, line, "earliest"),
                compiler.compile_ext2(path, line, "latest"),
            )
            circuits = tuple(getattr(r, "circuit", r) for r in results)
            return results, circuits, tuple(circuit.metrics(c) for c in circuits)
        (spec,) = op.args
        build = qram.build_qram_circuit(spec)
        report = qram.count_gates(spec.n, spec.k)
        schedule = qram.pipeline_schedule(spec.n, spec.k)
        return build, report, schedule, circuit.metrics(build.circuit)

    def check(self, op: Op, out: Any) -> Outcome:
        problems = []
        if op.kind == "paths":
            path, _, line = op.args
            results, circuits, mets = out
            iscz, _, _, ext1, ext2e, ext2l = results
            m = len(path)
            reference = compiler.ledger_by_conjugation(path)
            for label, r in (("iscz", iscz), ("ext2 earliest", ext2e), ("ext2 latest", ext2l)):
                if r.ledger.counts != reference:
                    problems.append(f"n={op.n} {label}: ledger differs from conjugation")
            for c in circuits:
                if circuit.validate(c, line):
                    problems.append(f"n={op.n}: circuit violates the line coupling")
            for r in (ext2e, ext2l):
                if _phase_layer(r.circuit) != _phase_layer(iscz.circuit):
                    problems.append(f"n={op.n}: ext2 phase layer differs from iscz")
            expect = (m, 2 * m, 3 * m, None, 2 * m, 2 * m)
            for c, met, want in zip(circuits, mets, expect):
                got = _twoq(c)
                if met.two_qubit_gates != got or (want is not None and got != want) or got > 3 * m:
                    problems.append(f"n={op.n}: {got} two-qubit gates, metrics says {met.two_qubit_gates}")
            if _twoq(ext1.circuit) > m:
                problems.append(f"n={op.n}: ext1 emitted more than m two-qubit gates")
            quality = [(met.two_qubit_gates, met.two_qubit_depth) for met in mets]
            return Outcome(problems, quality)
        build, report, _, met = out
        spec = op.args[0]
        problems += _tally_problems(spec, build.record, report)
        if met.two_qubit_gates != _twoq(build.circuit):
            problems.append(f"qram n={spec.n}: metrics two-qubit count is off")
        return Outcome(problems, [(met.two_qubit_gates, met.two_qubit_depth)])

    def summary(self, outputs: list[Any]) -> tuple[list[str], dict[str, Any]]:
        return [], {}


WORKLOADS = {w.name: w for w in (Noise(), Verify(), Compile())}
