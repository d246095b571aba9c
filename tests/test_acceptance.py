"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL line.

Tolerances are pinned here: 1e-12 for gate algebra and Pauli reconstructions,
1e-10 for compiled-circuit equivalence against the reference permutation,
1e-9 for QRAM verification and benchmark noiseless fidelities.  Runtime caps
are asserted where the claim includes one: the 200-path property sweep must
finish under 60 s and the 1,800-record benchmark, its noise priced by
counting value subsets, under 600 s.  Run with -s to see the per-criterion
lines; the -v test names carry the same verdicts.
"""

from __future__ import annotations

import time

import numpy as np

from swapnet.circuit import Circuit, CouplingMap, metrics
from swapnet.compiler import (
    SwapPath,
    compile_cnot_baseline,
    compile_ext1,
    compile_ext2,
    compile_iscz,
    ledger_by_conjugation,
    verify_equivalence,
)
from swapnet.gates import (
    CZ,
    ISCZ,
    ISWAP,
    SDAG,
    SWAP,
    Z,
    gate_matrix,
)
from swapnet.netbench import BenchConfig, random_permutation, route_linear, run_benchmark
from swapnet.qram.build import QramSpec, build_qram_circuit
from swapnet.qram.counts import count_gates, merged_pair_count
from swapnet.qram.schedule import pipeline_schedule
from swapnet.qram.verify import verify_qram

from oracles import PAULI_1Q, pauli_expansion, ring

TOL_ALGEBRA = 1e-12
TOL_EQUIV = 1e-10
TOL_QRAM = 1e-9
CAP_PROPERTY_S = 60.0
CAP_BENCH_S = 600.0

BENCH_SIZES = (3, 4, 5, 6, 7, 8)
BENCH_TRIALS = 100
BENCH_SEED = 0

WORKED_PATH = SwapPath(5, ((0, 1), (2, 3), (1, 2), (3, 4)))


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {verdict} - {detail}"
    print(line)
    assert ok, line


def _benchmark_paths():
    """The exact routed paths the benchmark run visits at the pinned seed."""
    for n in BENCH_SIZES:
        for trial in range(BENCH_TRIALS):
            rng = np.random.default_rng(
                np.random.SeedSequence([BENCH_SEED, n, trial])
            )
            yield route_linear(random_permutation(n, rng))


def test_criterion_1_gate_algebra():
    iswap = gate_matrix(ISWAP)
    cz = gate_matrix(CZ)
    iscz = gate_matrix(ISCZ)
    swap = gate_matrix(SWAP)
    sdag = gate_matrix(SDAG)
    eye = np.eye(2)
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(iswap @ cz - iscz))))
    worst = max(worst, float(np.max(np.abs(cz @ iswap - iscz))))
    both_sdag = np.kron(sdag, sdag)
    worst = max(worst, float(np.max(np.abs(iscz @ both_sdag - swap))))
    worst = max(worst, float(np.max(np.abs(both_sdag @ iscz - swap))))
    # commutation: pushing one S-dag through iSCZ moves it to the other wire
    lhs = iscz @ np.kron(eye, sdag)
    rhs = np.kron(sdag, eye) @ iscz
    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _report(
        1,
        worst <= TOL_ALGEBRA,
        f"iSCZ products, SWAP factorization, S-dag commutation; worst {worst:.2e}",
    )


def test_criterion_2_worked_example():
    result = compile_iscz(WORKED_PATH)
    counts = list(result.ledger.counts)
    layer = result.circuit.gates[len(WORKED_PATH) :]
    kinds = [g.kind for g in layer]
    wires = [g.wires[0] for g in layer]
    ok = (
        counts == [1, 2, 2, 1, 2]
        and kinds == [SDAG, Z, Z, SDAG, Z]
        and wires == [0, 1, 2, 3, 4]
    )
    _report(2, ok, f"counters {counts}, layer {[k.name for k in kinds]}")


def test_criterion_3_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240823)
    checked = 0
    worst = 0.0
    problems = []
    while checked < 200:
        n = int(rng.integers(2, 7))
        maps = [CouplingMap.line(n)]
        if n >= 3:
            maps.append(ring(n))
        if n in (4, 6):
            maps.append(CouplingMap.grid(2, n // 2))
        cmap = maps[int(rng.integers(len(maps)))]
        edges = sorted(cmap.edges)
        m = int(rng.integers(1, 21))
        pairs = tuple(edges[int(i)] for i in rng.integers(0, len(edges), size=m))
        path = SwapPath(n, pairs)
        label = f"n={n} m={m} pairs={pairs}"

        dev = verify_equivalence(path, compile_iscz(path).circuit)
        worst = max(worst, dev)
        if dev > TOL_EQUIV:
            problems.append(f"iscz {dev:.2e} on {label}")

        zeros = frozenset(w for w in range(n) if rng.random() < 0.3)
        dev = verify_equivalence(
            path, compile_ext1(path, zeros).circuit, constraints=zeros
        )
        worst = max(worst, dev)
        if dev > TOL_EQUIV:
            problems.append(f"ext1 {dev:.2e} zeros={sorted(zeros)} on {label}")

        for policy in ("earliest", "latest"):
            dev = verify_equivalence(
                path, compile_ext2(path, cmap, policy=policy).circuit
            )
            worst = max(worst, dev)
            if dev > TOL_EQUIV:
                problems.append(f"ext2/{policy} {dev:.2e} on {label}")
        checked += 1
    elapsed = time.perf_counter() - start
    if elapsed >= CAP_PROPERTY_S:
        problems.append(f"runtime {elapsed:.1f}s over the {CAP_PROPERTY_S:.0f}s cap")
    _report(
        3,
        not problems,
        f"200 paths x 4 compilations, worst deviation {worst:.2e}, "
        f"{elapsed:.1f}s" + (f"; {problems[:3]}" if problems else ""),
    )


def test_criterion_4_gate_counts_and_depth():
    problems = []
    n_paths = 0
    n_absorbed = 0
    for path in _benchmark_paths():
        n_paths += 1
        m = len(path)
        result = compile_iscz(path)
        met = metrics(result.circuit)
        base = metrics(compile_cnot_baseline(path))
        if met.two_qubit_gates != m or base.two_qubit_gates != 3 * m:
            problems.append(f"count {met.two_qubit_gates}/{base.two_qubit_gates} vs m={m}")
            continue
        corrections = result.circuit.gates[m:]
        body_depth = metrics(Circuit(path.n_wires, result.circuit.gates[:m])).depth
        delta = met.depth - body_depth
        if corrections:
            wires = [g.wires[0] for g in corrections]
            if any(g.kind.arity != 1 for g in corrections) or len(set(wires)) != len(wires):
                problems.append(f"correction stage not a single 1q layer on {path.pairs}")
            if delta not in (0, 1):
                problems.append(f"depth delta {delta} on {path.pairs}")
            n_absorbed += delta == 0
        elif delta != 0:
            problems.append(f"spurious depth delta {delta} on {path.pairs}")

    # strict +1 where every corrected wire is forced onto the critical path:
    # the worked example and per-swap-sequential paths (consecutive swaps
    # share a wire, so the final swap's operands end at full body depth)
    worked = compile_iscz(WORKED_PATH).circuit
    if metrics(worked).depth != 3:
        problems.append("worked example depth != 3")
    chains = [
        SwapPath(n, tuple((i, i + 1) for i in range(n - 1))) for n in range(3, 9)
    ]
    # a zigzag where every counter ends at 4: no corrections, no extra layer
    chains.append(SwapPath(3, ((0, 1), (1, 2)) * 3))
    for path in chains:
        m = len(path)
        result = compile_iscz(path)
        met = metrics(result.circuit)
        base = metrics(compile_cnot_baseline(path))
        # a simple chain always corrects the last swap's low wire (counter 1)
        extra = 1 if result.ledger.n_corrections() else 0
        if len(set(path.pairs)) == m and not result.ledger.n_corrections():
            problems.append(f"chain n={path.n_wires}: expected corrections")
        if met.two_qubit_depth != m or met.depth != m + extra:
            problems.append(
                f"chain n={path.n_wires}: 2q depth {met.two_qubit_depth}, "
                f"depth {met.depth}, want {m}/{m + extra}"
            )
        if base.two_qubit_depth != 3 * m or base.two_qubit_depth != 3 * met.two_qubit_depth:
            problems.append(f"chain n={path.n_wires}: baseline 2q depth {base.two_qubit_depth}")
    _report(
        4,
        not problems,
        f"m vs 3m on {n_paths} benchmark paths, correction stage one layer "
        f"(absorbed into body layers on {n_absorbed}), strict +1 on sequential chains"
        + (f"; {problems[:3]}" if problems else ""),
    )


def test_criterion_5_benchmark_trends():
    start = time.perf_counter()
    config = BenchConfig(
        sizes=BENCH_SIZES, trials=BENCH_TRIALS, p=0.02, seed=BENCH_SEED
    )
    records = run_benchmark(config)
    elapsed = time.perf_counter() - start
    problems = []

    worst_clean = max(abs(r.fidelity_noiseless - 1.0) for r in records)
    if worst_clean > TOL_QRAM:
        problems.append(f"noiseless fidelity off by {worst_clean:.2e}")

    noisy: dict[tuple[int, str], list[float]] = {}
    twoq: dict[tuple[int, str], int] = {}
    for r in records:
        noisy.setdefault((r.n, r.mode), []).append(r.fidelity_noisy)
        twoq[(r.n, r.mode)] = twoq.get((r.n, r.mode), 0) + r.two_qubit_gates
    margins = []
    for n in config.sizes:
        cnot = float(np.mean(noisy[(n, "cnot")]))
        for mode in ("iscz_fused", "iscz_unfused"):
            mean = float(np.mean(noisy[(n, mode)]))
            if mean <= cnot:
                problems.append(f"n={n}: mean {mode} {mean:.4f} <= cnot {cnot:.4f}")
        margins.append(float(np.mean(noisy[(n, "iscz_fused")])) - cnot)
        # gate totals share the per-trial swap count, so ratios are exact
        if 3 * twoq[(n, "iscz_fused")] != twoq[(n, "cnot")]:
            problems.append(f"n={n}: fused total not exactly 1/3 of cnot")
        if 3 * twoq[(n, "iscz_unfused")] != 2 * twoq[(n, "cnot")]:
            problems.append(f"n={n}: unfused total not exactly 2/3 of cnot")
    if elapsed >= CAP_BENCH_S:
        problems.append(f"runtime {elapsed:.0f}s over the {CAP_BENCH_S:.0f}s cap")
    _report(
        5,
        not problems,
        f"{len(records)} records, fused beats cnot by {min(margins):.3f}.."
        f"{max(margins):.3f} mean fidelity, exact 1/3 and 2/3 gate ratios, "
        f"{elapsed:.0f}s" + (f"; {problems[:3]}" if problems else ""),
    )


def test_criterion_6_qram_semantics():
    rng = np.random.default_rng(6)
    problems = []
    worst = 0.0
    for n, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for _ in range(4):
            memory = tuple(int(v) for v in rng.integers(0, 2**k, size=2**n))
            for extensions in (False, True):
                for pipeline in (False, True):
                    spec = QramSpec(
                        n, k, memory, extensions=extensions, pipeline=pipeline
                    )
                    dev = verify_qram(spec)
                    worst = max(worst, dev)
                    if dev > TOL_QRAM:
                        problems.append(
                            f"n={n} k={k} memory={memory} ext={extensions} "
                            f"pipe={pipeline}: {dev:.2e}"
                        )
    # the check compares full basis vectors with ancilla bits at zero, so it
    # covers residual phases and ancilla restoration; all flag settings
    # verified against the same ideal fetch means extensions on/off agree
    _report(
        6,
        not problems,
        f"4 sizes x 4 memories x 4 flag settings exhaustive, worst {worst:.2e}"
        + (f"; {problems[:3]}" if problems else ""),
    )


def test_criterion_7_qram_counting():
    fields = (
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
    problems = []
    for n in range(1, 5):
        for k in range(1, 5):
            memory = tuple(i % 2**k for i in range(2**n))
            spec = QramSpec(n, k, memory, extensions=True, pipeline=True)
            record = build_qram_circuit(spec).record
            report = count_gates(n, k)
            for field in fields:
                built = getattr(record, field)
                closed = getattr(report, field)
                if built != closed:
                    problems.append(f"n={n} k={k} {field}: built {built} != {closed}")
            if record.merged_routings != merged_pair_count(n, k):
                problems.append(f"n={n} k={k} merged_routings mismatch")
            if report.parity_correction_events != k - 1:
                problems.append(f"n={n} k={k} parity events != k-1")
    _report(
        7,
        not problems,
        f"{len(fields)} closed forms match builder tallies on the 4x4 grid"
        + (f"; {problems[:3]}" if problems else ""),
    )


def _footprint(op, n: int) -> set:
    if op.kind in ("D", "Ddag"):
        return {("bus", op.words[0]), ("dlayer", 0)}
    if op.kind == "M":
        return {("alayer", n - 1), ("dlayer", n - 1)}
    a = op.layers[0]
    return {("alayer", a), ("dlayer", a), ("dlayer", a + 1)}


def test_criterion_8_pipeline():
    problems = []
    for n in range(1, 7):
        if pipeline_schedule(n, 1).n_steps != 2 * n + 1:
            problems.append(f"n={n} k=1: steps != 2n+1")
    for n in range(2, 7):
        if pipeline_schedule(n, 2).n_steps != 2 * n + 3:
            problems.append(f"n={n} k=2: steps != 2n+3")
    # n=1 has no routing layer, every op of both words needs the root data
    # register, so two words serialize to 3k steps instead of 2n+3
    if pipeline_schedule(1, 2).n_steps != 6:
        problems.append("n=1 k=2: degenerate sequential case broke")
    for n in range(1, 7):
        for k in range(1, 7):
            sched = pipeline_schedule(n, k)
            if sched.merged_routings != merged_pair_count(n, k):
                problems.append(f"n={n} k={k}: merged count mismatch")
            for t, step in enumerate(sched.steps):
                seen: set = set()
                for op in step:
                    fp = _footprint(op, n)
                    if seen & fp:
                        problems.append(f"n={n} k={k} step {t}: wire conflict")
                    seen |= fp
    _report(
        8,
        not problems,
        "2n+1 and 2n+3 step counts, merged pairs, conflict-free steps on n,k <= 6"
        + (f"; {problems[:3]}" if problems else ""),
    )


def test_criterion_9_pauli_and_conjugation():
    problems = []
    worst = 0.0
    for kind in (SWAP, CZ, ISWAP):
        dev = float(
            np.max(np.abs(pauli_expansion(kind).reconstruct() - gate_matrix(kind)))
        )
        worst = max(worst, dev)
        if dev > TOL_ALGEBRA:
            problems.append(f"{kind.name}: reconstruction off by {dev:.2e}")
    # independent re-derivation of the coefficients straight from the traces
    for kind in (SWAP, CZ, ISWAP):
        m = gate_matrix(kind)
        rebuilt = np.zeros((4, 4), dtype=complex)
        for a in "IXYZ":
            for b in "IXYZ":
                p = np.kron(PAULI_1Q[a], PAULI_1Q[b])
                rebuilt += (np.trace(p.conj().T @ m) / 4) * p
        worst = max(worst, float(np.max(np.abs(rebuilt - m))))

    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 31))
        pairs = []
        for _ in range(m):
            a, b = rng.choice(n, size=2, replace=False)
            pairs.append((int(a), int(b)))
        path = SwapPath(n, tuple(pairs))
        if ledger_by_conjugation(path) != list(compile_iscz(path).ledger.counts):
            mismatches += 1
            problems.append(f"conjugation mismatch on n={n} pairs={tuple(pairs)}")
    _report(
        9,
        not problems and worst <= TOL_ALGEBRA,
        f"Pauli reconstructions worst {worst:.2e}, conjugation rule matched "
        f"ledger on {100 - mismatches}/100 instances"
        + (f"; {problems[:3]}" if problems else ""),
    )
