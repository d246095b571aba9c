"""Self-test of the benchmark itself.

    python3 -m pytest -q perfbench/test_selftest.py

Tiny runs of each workload must emit every metric BENCHMARK.json declares,
with its unit; every pass must draw fresh inputs of the same strata; a
verifier stubbed to accept everything must raise ``fail_ratio``; and without
the program's sources the benchmark must exit non-zero without printing a
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import swapnet  # noqa: E402
from swapnet import compiler, qram, sim  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["noise", "verify", "compile"])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    report = run.run(workload, seed=3, seconds=1, trace=trace, small=True)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == declared
    for name, metric in report["metrics"].items():
        assert isinstance(metric["value"], float), name


@pytest.mark.parametrize("workload", ["noise", "verify", "compile"])
def test_passes_draw_fresh_inputs_of_the_same_strata(workload):
    from workloads import WORKLOADS

    first, second = (WORKLOADS[workload].pool(3, pass_no, small=True) for pass_no in (1, 2))
    assert [(op.kind, op.n) for op in first] == [(op.kind, op.n) for op in second]
    assert repr(first) != repr(second)
    assert repr(first) == repr(WORKLOADS[workload].pool(3, 1, small=True))


def test_trace_puts_every_original_back():
    originals = (sim.MixedState.apply_gate, sim.depolarize_pair, swapnet.qram.verify.build_qram_circuit)
    run.run("noise", seed=3, seconds=1, trace=True, small=True)
    assert (sim.MixedState.apply_gate, sim.depolarize_pair, swapnet.qram.verify.build_qram_circuit) == originals


@pytest.mark.parametrize("module, name", [(compiler, "verify_equivalence"), (qram, "verify_qram")])
def test_lenient_verifier_raises_fail_ratio(monkeypatch, module, name):
    monkeypatch.setattr(module, name, lambda *args, **kwargs: 0.0)
    report = run.run("verify", seed=3, seconds=1, trace=False, small=True)
    assert not report["correct"]
    assert report["extra"]["fail_ratio"] > 0
    assert any("accepted" in p for p in report["problems"])


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *DECLARED["command"][1:], "--workload", "noise", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
