"""Benchmark harness: routing, per-trial determinism, output formats, and
the Pauli-weight noise engine against the density-matrix oracle."""

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
from swapnet.circuit import Circuit, Gate, metrics
from swapnet.compiler import compile_iscz
from swapnet.sim import (
    DENSITY_WIRE_CAP,
    PureState,
    apply_circuit,
    depolarize_pair,
    fidelity,
    random_factors,
)
from swapnet.netbench import (
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


PINNED_CSV = BenchConfig(sizes=(3, 4, 5, 6), trials=4, seed=0)


def _pinned_csv() -> str:
    buf = io.StringIO()
    write_csv(run_benchmark(PINNED_CSV), buf)
    return buf.getvalue()


def test_csv_bytes_for_a_fixed_seed_are_pinned():
    # sha256 of the CSV written once fidelity_noisy came from Pauli weights
    # rather than a density matrix, which moved it by at most 9e-16; any
    # change to the records or their formatting changes it
    digest = hashlib.sha256(_pinned_csv().encode()).hexdigest()
    assert digest == "957728ddd06687ea88de5e3fee3d36b6bae612f51004737b316230417ac2550b"


def test_csv_bytes_without_fidelity_noisy_are_pinned():
    # every column but the noise engine's own output, pinned since the
    # simulator's kernels were rewritten: the noise engine must leave the
    # permutation, the pure state and the compiled circuits as they were
    rows = list(csv.reader(io.StringIO(_pinned_csv())))
    drop = rows[0].index("fidelity_noisy")
    text = "".join(",".join(r[:drop] + r[drop + 1 :]) + "\n" for r in rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "13f698aac5120af46480c3e285451fd405300dce0efd20839ab6b8c9ada4cf37"


def test_csv_bytes_at_the_widest_sizes_are_pinned():
    # n = 10 has the widest Pauli-weight buffers the bench allows
    buf = io.StringIO()
    write_csv(run_benchmark(BenchConfig(sizes=(9, 10), trials=1, seed=0)), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "2fb806ee8540dc3c9f8267d5e677b00c98dd952277d177275044e8999257cbec"


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


CLIFFORD_KINDS = (
    gates.CZ, gates.CNOT, gates.SWAP, gates.ISWAP, gates.ISCZ,
    gates.S, gates.SDAG, gates.X, gates.Y, gates.Z,
)


@st.composite
def clifford_circuits(draw):
    n = draw(st.integers(2, 6))
    body = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(CLIFFORD_KINDS))
        # any order and any distance, so reversed and non-adjacent pairs occur
        body.append(Gate(kind, tuple(draw(st.permutations(range(n)))[: kind.arity])))
    return Circuit(n, tuple(body))


@given(clifford_circuits(), st.sampled_from(STRENGTHS), st.integers(0, 2**32 - 1))
@example(Circuit(2, (Gate(gates.CNOT, (1, 0)), Gate(gates.S, (1,)))), 0.3, 1)
@example(Circuit(4, (Gate(gates.ISWAP, (3, 0)), Gate(gates.CNOT, (0, 2)), Gate(gates.Y, (1,)))), 0.02, 2)
@example(Circuit(5, (Gate(gates.CZ, (4, 1)), Gate(gates.SWAP, (0, 3)), Gate(gates.ISCZ, (2, 1)))), 1.0, 3)
@settings(max_examples=120, deadline=None)
def test_noisy_fidelity_matches_the_density_oracle_on_clifford_circuits(circuit, p, seed):
    factors = random_factors(circuit.n_wires, np.random.default_rng(seed))
    want = _density_fidelity(circuit, PureState.product(factors), p)
    assert abs(noisy_fidelity(circuit, factors, p) - want) <= ORACLE_TOL


def _fused_closed_form(path, p: float) -> float:
    """2**-n sum over value sets A of (1-p)**(swaps whose two values meet A):
    an iSCZ is a SWAP times single-qubit S gates, so a Pauli string keeps the
    set of values it acts on, and a pure input's weights over strings on a
    set A sum to 1 whatever the state."""
    held = list(range(path.n_wires))
    sets = np.arange(2**path.n_wires)
    hits = np.zeros_like(sets)
    for a, b in path.pairs:
        hits += (sets & ((1 << held[a]) | (1 << held[b]))) != 0
        held[a], held[b] = held[b], held[a]
    return float(np.mean((1.0 - p) ** hits))


@given(st.integers(2, 8).flatmap(lambda n: st.permutations(range(n))),
       st.sampled_from((0.02, 0.3)), st.integers(0, 2**32 - 1))
@example([3, 2, 1, 0], 0.02, 0)
@settings(max_examples=60, deadline=None)
def test_fused_mode_has_a_closed_form_independent_of_the_input(perm, p, seed):
    path = route_linear(tuple(perm))
    factors = random_factors(path.n_wires, np.random.default_rng(seed))
    got = noisy_fidelity(compile_iscz(path).circuit, factors, p)
    assert abs(got - _fused_closed_form(path, p)) <= ORACLE_TOL


@pytest.mark.parametrize("kind", [gates.CCX, gates.CSWAP, gates.fsim(0.3, 0.2)], ids=str)
def test_noisy_fidelity_refuses_a_non_clifford_gate_by_name(kind):
    g = Gate(kind, tuple(range(kind.arity)))
    circuit = Circuit(3, (Gate(gates.CZ, (0, 1)), g))
    with pytest.raises(ValueError, match=re.escape(f"gate 1 ({g}) is not Clifford")):
        noisy_fidelity(circuit, random_factors(3, np.random.default_rng(0)), 0.02)


def test_noisy_fidelity_checks_every_gate_before_any_weight_exists():
    # a non-adjacent gate's gather index spans 4**10 strings, and the refused
    # gate comes after it, so neither may be built
    n = DENSITY_WIRE_CAP
    circuit = Circuit(n, (Gate(gates.CZ, (0, n - 1)), Gate(gates.CNOT, (0, 1)), Gate(gates.CCX, (0, 1, 2))))
    factors = random_factors(n, np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"gate 2 \(ccx 0 1 2\)"):
            noisy_fidelity(circuit, factors, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4**n  # one 4**n float buffer is 8 MiB


def test_noisy_fidelity_refuses_bad_input():
    factors = random_factors(3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="2 factors for a circuit on 3 wires"):
        noisy_fidelity(Circuit(3), factors[:2], 0.02)
    with pytest.raises(ValueError, match="factor 1 is not a unit 2-vector"):
        noisy_fidelity(Circuit(3), [factors[0], 2 * factors[1], factors[2]], 0.02)
    with pytest.raises(ValueError, match="factor 2 is not a unit 2-vector"):
        noisy_fidelity(Circuit(3), [factors[0], factors[1], np.ones(3) / 3**0.5], 0.02)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="factor 0 is not a unit 2-vector"):
            noisy_fidelity(Circuit(3), [[bad, 0], [1, 0], [1, 0]], 0.02)
        with pytest.raises(ValueError, match="factor 2 is not a unit 2-vector"):
            noisy_fidelity(Circuit(3), [[1, 0], [0, 1], [0, bad]], 0.02)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="depolarizing strength"):
            noisy_fidelity(Circuit(3), factors, p)
    n = DENSITY_WIRE_CAP + 1
    with pytest.raises(ValueError, match=f"refusing Pauli weights on {n} wires"):
        noisy_fidelity(Circuit(n), random_factors(n, np.random.default_rng(0)), 0.02)


def test_noise_applies_only_after_multi_qubit_gates():
    plus = [np.array([1, 1]) / np.sqrt(2), np.array([1, 0])]  # |+0>
    assert abs(noisy_fidelity(Circuit(2, (Gate(gates.S, (0,)),)), plus, 0.5) - 1.0) <= ORACLE_TOL
    zero = [np.array([1, 0])] * 2
    cz = Circuit(2, (Gate(gates.CZ, (0, 1)),))  # the channel takes |00> to I/4
    assert abs(noisy_fidelity(cz, zero, 1.0) - 0.25) <= ORACLE_TOL


WRONG_TYPED = {
    "bench-p-str": (lambda: BenchConfig(sizes=(3,), p="0.1"), "depolarizing strength '0.1'"),
    "bench-p-none": (lambda: BenchConfig(sizes=(3,), p=None), "depolarizing strength None"),
    "bench-p-bool": (lambda: BenchConfig(sizes=(3,), p=True), "depolarizing strength True"),
    "noisy-fidelity-p-str": (
        lambda: noisy_fidelity(Circuit(2), [[1, 0], [1, 0]], "0.1"), "depolarizing strength '0.1'"),
    "depolarize-p-none": (
        lambda: depolarize_pair(PureState.basis(2).to_density(), (0, 1), None),
        "depolarizing strength None"),
    "params-str": (
        lambda: gates.GateKind("fsim", ("a", "b")), "gate 'fsim' needs finite numbers as params, got 'a'"),
    "params-bool": (
        lambda: gates.GateKind("fsim", (True, 2)), "gate 'fsim' needs finite numbers as params, got True"),
    "params-huge-int": (lambda: gates.GateKind("xyevol", (10**400,)), "gate 'xyevol' needs finite numbers"),
    "params-bare-number": (
        lambda: gates.GateKind("xyevol", 0.5), "gate 'xyevol' params must be a tuple or list, got 0.5"),
}


@pytest.mark.parametrize("make, named", WRONG_TYPED.values(), ids=WRONG_TYPED)
def test_wrong_typed_numbers_are_refused_by_name(make, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        make()
