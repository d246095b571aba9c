"""swapnet benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload noise --seed 1 --seconds 30 --trace 0

Workloads are ``noise``, ``verify`` and ``compile`` (see RATIONALE.md).  The
run makes a fixed number of passes in a single process, each over a pool of
fresh ops drawn from the seed and the pass number, and checks every output
outside the timed region.  The pass count follows from ``--seconds`` and the
workload's reference pass time, never from how fast the code runs.
Human-readable lines come first; the last line of stdout is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` it carries the end-to-end metrics.  With ``--trace 1`` the
run spends half the time untraced and then makes as many passes again, over
the next passes' fresh pools, with spans around swapnet's layer callables, and
it carries the per-layer metrics, given per pass over the pool.  The program
is imported from ``src/`` of the checkout holding this file; without it the
run exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many ops beyond it
# Op seconds of one pass over a full pool, measured at the commit that added
# the benchmark on a 2-core Intel Xeon VM; they fix each workload's pass count.
REF_PASS_S = {"noise": 8.1, "verify": 3.9, "compile": 5.4}


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "swapnet" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no swapnet sources under {src}")
    sys.path.insert(0, str(src))
    import swapnet

    if Path(swapnet.__file__).resolve().parent != (src / "swapnet").resolve():
        raise SystemExit(f"benchmark: imported swapnet from {swapnet.__file__}, not {src}")


def pass_count(workload: str, seconds: float) -> int:
    """Passes for about `seconds` of op time at the reference pass time."""
    return max(1, round(seconds / REF_PASS_S[workload]))


@dataclass
class Segment:
    """Whole passes; times count only the ops themselves.  `latencies[i]`
    holds pool position i of every pass."""

    pass_walls: list[float] = field(default_factory=list)
    cpu: float = 0.0
    latencies: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: list[tuple[int, int]] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_walls)

    @property
    def wall(self) -> float:
        return sum(self.pass_walls)


def measure(workload, seed: int, pass_numbers: range, small: bool, tracer=None) -> Segment:
    """One pass per pass number over that pass's pool, every output checked."""
    seg = Segment()
    for pass_no in pass_numbers:
        pool = workload.pool(seed, pass_no, small)
        if not seg.latencies:
            seg.latencies = [[] for _ in pool]
        pass_wall = 0.0
        for i, op in enumerate(pool):
            if tracer is not None:
                tracer.active = True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out, error = workload.execute(op), None
            except Exception as e:  # an op that raises is counted, not fatal
                out, error = None, e
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.active = False
            seg.latencies[i].append(dt)
            pass_wall += dt
            seg.cpu += dc
            seg.attempted += 1
            problems = _check(workload, op, out, error, seg)
            if problems:
                seg.failed += 1
                seg.problems.extend(problems)
        seg.pass_walls.append(pass_wall)
    return seg


def _check(workload, op, out, error, seg: Segment) -> list[str]:
    if error is not None:
        return [f"{op.kind} n={op.n}: {type(error).__name__}: {error}"]
    try:
        outcome = workload.check(op, out)
    except Exception as e:
        return [f"{op.kind} n={op.n}: output check raised {type(e).__name__}: {e}"]
    seg.quality.extend(outcome.quality)
    if outcome.keep is not None:
        seg.outputs.append(outcome.keep)
    return outcome.problems


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to first op (imports plus seeded inputs), from child runs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    argv += ["--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {proc.returncode} after {line!r}")
        times.append(t1 - t0)
    return times


def op_latencies(seg: Segment) -> list[float]:
    """Each pool position's latency: the median over the passes, each of which
    ran a fresh input of that position's stratum.

    Other tenants of a shared machine slow stretches of a run, by up to 2x;
    the median over passes leaves out such a stretch unless it covers half
    of them."""
    return sorted(statistics.median(ts) for ts in seg.latencies)


def latency_metrics(seg: Segment) -> tuple[float, float, str]:
    """p50 and tail over the pool positions."""
    per_op = op_latencies(seg)
    n = len(per_op)
    i = max(0, n - 1 - TAIL_BEYOND)
    rank = f"p{100.0 * (i + 1) / n:.1f}" if n > TAIL_BEYOND else "max"
    label = f"{rank} of {n} pool positions, each the median of {seg.passes} passes"
    return statistics.median(per_op) * 1e3, per_op[i] * 1e3, label


def end_to_end(seg: Segment, setup: list[float]) -> dict[str, dict[str, Any]]:
    p50, tail, _ = latency_metrics(seg)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(seg.latencies) / sum(op_latencies(seg)), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "out_2q_gates": (_mean(q[0] for q in seg.quality), "count"),
        "out_2q_depth": (_mean(q[1] for q in seg.quality), "layers"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0  # no circuit passed its checks


def per_layer(tracer, base: Segment, traced: Segment) -> dict[str, dict[str, Any]]:
    from spans import COUNTS

    per = traced.passes
    metrics: dict[str, tuple[float, str]] = {}
    own: dict[str, float] = {}
    for name, st in tracer.stats.items():
        metrics[f"{name}.calls"] = (st.calls / per, "count")
        metrics[f"{name}.s"] = (st.s / per, "s")
        metrics[f"{name}.self_s"] = (st.self_s / per, "s")
        metrics[f"{name}.errors"] = (st.errors / per, "count")
        module = name.split(".")[0]
        own[module] = own.get(module, 0.0) + st.self_s
    for name in COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / per, "count")
    for module, seconds in own.items():
        metrics[f"{module}.self_share"] = (seconds / traced.wall, "ratio")
    metrics["process.cpu_s"] = (traced.cpu / per, "s")
    metrics["process.cpu_per_wall"] = (traced.cpu / traced.wall, "ratio")
    metrics["trace.overhead_ratio"] = (traced.wall / base.wall, "ratio")
    metrics["trace.unattributed_share"] = (1.0 - tracer.top_s / traced.wall, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def environment(workload: str, seed: int) -> dict[str, Any]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
    }


def _blas_threads(numpy) -> Any:
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload_name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict[str, Any]:
    """One benchmark run; returns the full report (the result line is a subset)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    setup = [] if trace else setup_seconds(workload_name, seed)
    for op in workload.warmup(workload.pool(seed, 0, small)):
        try:
            workload.execute(op)
        except Exception:
            pass  # the timed passes run ops of this kind and count the error
    if trace:
        from spans import Tracer, install

        half = pass_count(workload_name, seconds / 2)
        base = measure(workload, seed, range(1, half + 1), small)
        tracer = Tracer()
        install(tracer)
        try:
            traced = measure(workload, seed, range(half + 1, 2 * half + 1), small, tracer)
        finally:
            tracer.uninstall()
        segments = [base, traced]
        metrics = per_layer(tracer, base, traced)
    else:
        passes = max(3, pass_count(workload_name, seconds))  # three, so that a median leaves one out
        base = measure(workload, seed, range(1, passes + 1), small)
        segments = [base]
        metrics = end_to_end(base, setup)
    summary_problems, extra = workload.summary([k for s in segments for k in s.outputs])
    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments) + len(summary_problems)
    _, _, tail_label = latency_metrics(base)
    extra.update(
        {
            "fail_ratio": failed / attempted,
            "passes": base.passes,
            "pass_s": base.pass_walls,
            "pool_ops": len(base.latencies),
            "op_time_s": base.wall,
            "ops_per_s_wall": base.attempted / base.wall,
            "op_tail": tail_label,
            "setup_probes_s": setup,
        }
    )
    return {
        "env": environment(workload_name, seed),
        "workload": workload_name,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for s in segments for p in s.problems] + summary_problems,
        "metrics": metrics,
        "extra": extra,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="swapnet benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=("noise", "verify", "compile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30, help="op time to measure, at the reference pass times")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    import_program()
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].pool(args.seed, 1)
        print("ready", flush=True)
        return 0

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(report["env"]))
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value in report["extra"].items():
        print(f"  {name:<34} {json.dumps(value)}")
    for name, m in report["metrics"].items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
