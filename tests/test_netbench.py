"""Benchmark harness: routing, per-trial determinism, output formats."""

import csv
import hashlib
import io
import json
import os

import numpy as np
import pytest

from swapnet import netbench
from swapnet.circuit import metrics
from swapnet.compiler import apply_reference_permutation
from swapnet.sim import DENSITY_WIRE_CAP
from swapnet.netbench import (
    MODES,
    BenchConfig,
    TrialRecord,
    compile_mode,
    random_permutation,
    route_linear,
    run_benchmark,
    summarize,
    summary_text,
    write_csv,
    write_json,
)

SMALL = BenchConfig(sizes=(3, 4), trials=6, p=0.05, seed=42)


def test_random_permutation_is_uniform_ish_and_seeded():
    rng = np.random.default_rng(0)
    perms = {random_permutation(4, rng) for _ in range(200)}
    assert len(perms) == 24  # all of S4 reached
    a = random_permutation(6, np.random.default_rng(123))
    b = random_permutation(6, np.random.default_rng(123))
    assert a == b and sorted(a) == list(range(6))


def test_route_linear_realizes_the_permutation():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 7):
        for _ in range(20):
            perm = random_permutation(n, rng)
            path = route_linear(perm)
            assert all(abs(a - b) == 1 for a, b in path.pairs)
            assert len(path) <= n * (n - 1) // 2
            # value v must end on wire perm[v]
            held = path.value_at()
            assert all(perm[held[w]] == w for w in range(n))


def test_route_linear_identity_needs_no_swaps():
    assert len(route_linear((0, 1, 2, 3))) == 0


def test_route_linear_rejects_non_permutation():
    with pytest.raises(ValueError):
        route_linear((0, 0, 1))


def test_compile_mode_gate_counts():
    path = route_linear((2, 0, 1, 3))
    m = len(path)
    assert metrics(compile_mode(path, "cnot")).two_qubit_gates == 3 * m
    assert metrics(compile_mode(path, "iscz_fused")).two_qubit_gates == m
    assert metrics(compile_mode(path, "iscz_unfused")).two_qubit_gates == 2 * m
    with pytest.raises(ValueError):
        compile_mode(path, "nosuch")


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(sizes=())
    with pytest.raises(ValueError):
        BenchConfig(sizes=(1,))
    with pytest.raises(ValueError):
        BenchConfig(sizes=(3, DENSITY_WIRE_CAP + 1))  # refused before any trial runs
    with pytest.raises(ValueError):
        BenchConfig(sizes=(3,), trials=0)
    with pytest.raises(ValueError):
        BenchConfig(sizes=(3,), p=1.5)
    with pytest.raises(ValueError, match="^sizes"):
        BenchConfig(sizes=(3, 4, 3))  # each (n, trial, mode) record once


def test_run_benchmark_shape_and_determinism():
    a = run_benchmark(SMALL)
    b = run_benchmark(SMALL)
    assert a == b
    assert len(a) == 2 * 6 * len(MODES)
    by_key = {(r.n, r.trial, r.mode) for r in a}
    assert len(by_key) == len(a)


def test_run_benchmark_parallel_matches_serial():
    serial = run_benchmark(SMALL, jobs=1)
    parallel = run_benchmark(SMALL, jobs=2)
    assert serial == parallel


def test_bench_jobs_is_bounded_by_tasks_and_cores(monkeypatch):
    # a pool starts all of its workers at once, so --jobs 5000 must not ask
    # for 5000; the fake pool records the request and runs tasks in process
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(netbench, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    three = BenchConfig(sizes=(3,), trials=3, p=0.05, seed=42)
    assert run_benchmark(three, jobs=5000) == run_benchmark(three, jobs=1)
    assert asked == [3]  # three tasks
    assert run_benchmark(SMALL, jobs=5000) == run_benchmark(SMALL, jobs=1)
    assert asked == [3, 4]  # twelve tasks, four cores
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_benchmark(SMALL, jobs=5000) == run_benchmark(SMALL, jobs=1)
    assert asked == [3, 4]  # core count unknown: run in this process


def test_noiseless_fidelity_is_one_noisy_below():
    records = run_benchmark(SMALL)
    for r in records:
        assert abs(r.fidelity_noiseless - 1.0) <= 1e-9
        assert r.fidelity_noisy <= 1.0 + 1e-12


def test_modes_share_the_same_path_per_trial():
    records = run_benchmark(SMALL)
    by_trial = {}
    for r in records:
        by_trial.setdefault((r.n, r.trial), []).append(r)
    for group in by_trial.values():
        assert len({r.permutation for r in group}) == 1
        assert len({r.m_swaps for r in group}) == 1


def test_fused_mode_beats_cnot_on_average():
    cfg = BenchConfig(sizes=(4,), trials=20, p=0.05, seed=7)
    records = run_benchmark(cfg)
    mean = {
        m: np.mean([r.fidelity_noisy for r in records if r.mode == m]) for m in MODES
    }
    assert mean["iscz_fused"] > mean["iscz_unfused"] > mean["cnot"]


def test_csv_round_trips_floats_exactly():
    records = run_benchmark(SMALL)
    buf = io.StringIO()
    write_csv(records, buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert int(row["n"]) == rec.n
        assert row["mode"] == rec.mode
        assert float(row["fidelity_noisy"]) == rec.fidelity_noisy  # repr round-trip
        assert float(row["p"]) == SMALL.p
        assert int(row["seed"]) == SMALL.seed
        assert row["permutation"] == "-".join(map(str, rec.permutation))


def test_json_output_loads_back():
    records = run_benchmark(BenchConfig(sizes=(3,), trials=2, seed=1))
    buf = io.StringIO()
    write_json(records, buf)
    docs = json.loads(buf.getvalue())
    assert len(docs) == len(records)
    assert docs[0]["permutation"] == list(records[0].permutation)


def test_summarize_groups_by_size_then_mode():
    records = run_benchmark(SMALL)
    rows = summarize(records)
    assert [(s["n"], s["mode"]) for s in rows] == [
        (n, m) for n in (3, 4) for m in MODES
    ]
    for s in rows:
        assert s["trials"] == 6
        assert s["worst_noiseless_error"] <= 1e-9
    text = summary_text(records)
    assert "iscz_fused" in text and len(text.splitlines()) == 2 + len(rows)


def test_csv_bytes_for_a_fixed_seed_are_pinned():
    # sha256 of the CSV written before the simulator's kernels were rewritten;
    # any change to the records or their formatting changes it
    buf = io.StringIO()
    write_csv(run_benchmark(BenchConfig(sizes=(3, 4, 5, 6), trials=4, seed=0)), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "576f7a5cb13e23138c92a70d22ec24f2d0bbd1104b10262c8bdaca8d325ebc4e"
