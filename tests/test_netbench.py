"""Benchmark harness: routing, per-trial determinism, output formats, and
the counting noise engine against the density-matrix oracle."""

import csv
import hashlib
import io
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swapnet import gates, netbench
from swapnet.circuit import Circuit, metrics
from swapnet.compiler import SwapPath
from swapnet.sim import PureState, apply_circuit, check_basis_cap, depolarize_pair, fidelity
from swapnet.netbench import (
    BENCH_WIRE_CAP,
    MODES,
    BenchConfig,
    compile_mode,
    noisy_fidelity,
    random_permutation,
    route_linear,
    run_benchmark,
    summarize,
    summary_text,
    write_csv,
)

from oracles import noisy_density, random_product_state

ORACLE_TOL = 1e-12
STRENGTHS = (0.0, 0.02, 0.3, 1.0)

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
        BenchConfig(sizes=(3, BENCH_WIRE_CAP + 1))  # refused before any trial runs
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
        assert r.fidelity_noiseless == 1.0  # an exact check, not a simulation
        assert r.fidelity_noisy <= 1.0


def test_a_circuit_off_its_path_is_a_named_runtime_error(monkeypatch):
    # only a compiler bug can fail the exact check, so it is no input error
    unfuse = netbench.unfuse_iscz
    monkeypatch.setattr(netbench, "unfuse_iscz", lambda c: Circuit(c.n_wires, unfuse(c).gates[1:]))
    with pytest.raises(RuntimeError, match=r"^bench n=4 trial=0 mode=iscz_unfused: .* by 1\.0$"):
        run_benchmark(BenchConfig(sizes=(4,), trials=1, seed=0))  # 4 swaps


@pytest.mark.parametrize(
    "config",
    [
        BenchConfig(sizes=tuple(range(2, 11)), trials=20, p=0.0, seed=3),
        BenchConfig(sizes=(2, 3), trials=40, p=0.02, seed=3),
    ],
    ids=["p0", "small-n"],
)
def test_fidelity_noisy_is_exactly_one_without_noise_or_swaps(config):
    # the subset counts sum to 2**n exactly, so no roundoff is left over
    records = run_benchmark(config)
    clean = [r for r in records if r.p == 0.0 or r.m_swaps == 0]
    assert clean  # sizes 2 and 3 draw the identity permutation often
    assert all(r.fidelity_noisy == 1.0 for r in clean)


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


def test_summarize_groups_by_size_then_mode():
    records = run_benchmark(SMALL)
    rows = summarize(records)
    assert [(s["n"], s["mode"]) for s in rows] == [
        (n, m) for n in (3, 4) for m in MODES
    ]
    for s in rows:
        assert s["trials"] == 6
        assert "worst_noiseless_error" not in s  # exactly 0 since the column is an exact check
    assert all(r.fidelity_noiseless == 1.0 for r in records)
    text = summary_text(records)
    assert "iscz_fused" in text and len(text.splitlines()) == 2 + len(rows)


PINNED_CSV = BenchConfig(sizes=(3, 4, 5, 6), trials=4, seed=0)


def _pinned_csv() -> str:
    buf = io.StringIO()
    write_csv(run_benchmark(PINNED_CSV), buf)
    return buf.getvalue()


def _pinned_csv_without(column: str) -> str:
    rows = list(csv.reader(io.StringIO(_pinned_csv())))
    drop = rows[0].index(column)
    return "".join(",".join(r[:drop] + r[drop + 1 :]) + "\n" for r in rows)


def test_csv_bytes_for_a_fixed_seed_are_pinned():
    # sha256 of the CSV written once fidelity_noiseless came from the exact
    # check, 1.0 where the statevector had read 1 to within 2.7e-15; any
    # change to the records or their formatting changes it
    digest = hashlib.sha256(_pinned_csv().encode()).hexdigest()
    assert digest == "b45453d00818e3941e978e53e7484816b0d0b6c431daf8440810cd9b43436b27"


def test_csv_bytes_without_fidelity_noisy_are_pinned():
    # every column but the noise engine's own output, pinned again when
    # fidelity_noiseless became exactly 1.0: the noise engine must leave the
    # permutation and the compiled circuits as they were
    digest = hashlib.sha256(_pinned_csv_without("fidelity_noisy").encode()).hexdigest()
    assert digest == "d4683c887297b5975ccd067cacc49551d1ed5a073de4acd4df33ff5a1f6a130f"


def test_csv_bytes_without_fidelity_noiseless_are_pinned():
    # every column but the noiseless one, pinned while a statevector still
    # computed it: proving that column exactly moved no other byte
    digest = hashlib.sha256(_pinned_csv_without("fidelity_noiseless").encode()).hexdigest()
    assert digest == "1f4d489402c4a4e9b264dd11d2ed62d6aca6b57c3f400d4a20c0b28fe6516ce7"


def test_csv_bytes_at_the_widest_sizes_are_pinned():
    # the largest sizes the bench took when it priced noise with 4**n
    # Pauli weights, pinned again when fidelity_noiseless became exactly 1.0
    buf = io.StringIO()
    write_csv(run_benchmark(BenchConfig(sizes=(9, 10), trials=1, seed=0)), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "b7884d851f68446cac04b937e02cb4f802e81974fab35ad805af5b664a0c0411"


def _density_fidelity(circuit, state, p):
    """The dense reference: a density matrix through every gate and channel."""
    return fidelity(apply_circuit(state, circuit), noisy_density(state, circuit, p))


@pytest.mark.parametrize("p", STRENGTHS)
def test_every_bench_record_matches_the_density_oracle(p):
    # replays each trial's draws the way sim.random_product_state makes them
    config = BenchConfig(sizes=tuple(range(2, 9)), trials=1, p=p, seed=11)
    records = run_benchmark(config)
    assert len(records) == 7 * len(MODES)
    for r in records:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, r.n, r.trial]))
        path = route_linear(random_permutation(r.n, rng))
        state = random_product_state(r.n, rng)
        want = _density_fidelity(compile_mode(path, r.mode), state, p)
        assert abs(r.fidelity_noisy - want) <= ORACLE_TOL, (r.n, r.mode, p)


@st.composite
def swap_paths(draw):
    n = draw(st.integers(2, 6))
    # any order and any distance, so reversed, non-adjacent and repeated pairs occur
    pairs = draw(st.lists(st.permutations(range(n)).map(lambda w: tuple(w[:2])), max_size=8))
    return SwapPath(n, tuple(pairs))


@given(swap_paths(), st.sampled_from(MODES), st.sampled_from(STRENGTHS), st.integers(0, 2**32 - 1))
@example(SwapPath(2, ((1, 0), (0, 1))), "iscz_unfused", 0.3, 1)
@example(SwapPath(4, ((3, 0), (0, 2), (3, 0))), "cnot", 0.02, 2)
@example(SwapPath(5, ((4, 1), (0, 3), (2, 1))), "iscz_fused", 1.0, 3)
@settings(max_examples=120, deadline=None)
def test_noisy_fidelity_matches_the_density_oracle_on_any_input(path, mode, p, seed):
    # the count holds for every pure product input, so two different ones
    # must both give it
    circuit = compile_mode(path, mode)
    got = noisy_fidelity(path, mode, p)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        state = random_product_state(path.n_wires, rng)
        assert abs(got - _density_fidelity(circuit, state, p)) <= ORACLE_TOL


@pytest.mark.parametrize("mode", MODES)
def test_a_long_path_counts_every_swap(mode):
    # 70,000 swaps on one pair: every nonempty value set meets all of them,
    # a count that wraps past 65,535 would not
    m, p = 70_000, 1e-5
    k = netbench.NOISY_GATES[mode]
    want = (1 + 3 * (1 - p) ** (k * m)) / 4
    assert abs(noisy_fidelity(SwapPath(2, ((0, 1),) * m), mode, p) - want) <= ORACLE_TOL


def test_noisy_fidelity_refuses_bad_input():
    # each refusal comes before the 2**n count buffers exist
    wide = SwapPath(BENCH_WIRE_CAP + 1, ((0, 1),))
    widest = SwapPath(BENCH_WIRE_CAP, ((0, 1),))
    cases = [
        (lambda: noisy_fidelity(wide, "cnot", 0.02), f"refusing noisy fidelity on {BENCH_WIRE_CAP + 1} wires"),
        (lambda: noisy_fidelity(widest, "nosuch", 0.02), "unknown mode 'nosuch'"),
    ]
    cases += [(lambda p=p: noisy_fidelity(widest, "cnot", p), "depolarizing strength") for p in (-0.1, 1.5, float("nan"))]
    for call, named in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(named)):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**BENCH_WIRE_CAP  # a uint32 count buffer at 19 wires is 2 MiB


def test_bench_runs_past_the_density_matrix_cap():
    check_basis_cap(BENCH_WIRE_CAP, 2**BENCH_WIRE_CAP)  # the noiseless statevector fits
    with pytest.raises(ValueError):
        check_basis_cap(BENCH_WIRE_CAP + 1, 2 ** (BENCH_WIRE_CAP + 1))
    BenchConfig(sizes=(19,))
    with pytest.raises(ValueError, match="^sizes"):
        BenchConfig(sizes=(20,))
    records = run_benchmark(BenchConfig(sizes=(12,), trials=1, p=0.02, seed=0))
    assert records[0].m_swaps >= 1
    for r in records:
        assert r.fidelity_noiseless == 1.0
    f = {r.mode: r.fidelity_noisy for r in records}
    assert f["iscz_fused"] > f["iscz_unfused"] > f["cnot"]


WRONG_TYPED = {
    "bench-p-str": (lambda: BenchConfig(sizes=(3,), p="0.1"), "depolarizing strength '0.1'"),
    "bench-p-none": (lambda: BenchConfig(sizes=(3,), p=None), "depolarizing strength None"),
    "bench-p-bool": (lambda: BenchConfig(sizes=(3,), p=True), "depolarizing strength True"),
    "noisy-fidelity-p-str": (
        lambda: noisy_fidelity(SwapPath(2, ()), "cnot", "0.1"), "depolarizing strength '0.1'"),
    "depolarize-p-none": (
        lambda: depolarize_pair(PureState.basis(2).to_density(), (0, 1), None),
        "depolarizing strength None"),
    "params-str": (
        lambda: gates.GateKind("fsim", ("a", "b")), "gate 'fsim' needs finite numbers as params, got 'a'"),
    "params-bool": (
        lambda: gates.GateKind("fsim", (True, 2)), "gate 'fsim' needs finite numbers as params, got True"),
    "params-huge-int": (lambda: gates.GateKind("fsim", (0.5, 10**400)), "gate 'fsim' needs finite numbers"),
    "params-bare-number": (
        lambda: gates.GateKind("fsim", 0.5), "gate 'fsim' params must be a tuple or list, got 0.5"),
}


@pytest.mark.parametrize("make, named", WRONG_TYPED.values(), ids=WRONG_TYPED)
def test_wrong_typed_numbers_are_refused_by_name(make, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        make()
