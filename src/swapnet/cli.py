"""Command line front end.

Result data goes to stdout or the requested output file; metrics, summaries
and progress go to stderr.  Exit codes: 0 success, 1 a verification check
failed, 2 malformed input or I/O trouble.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Any, Callable

from . import __version__
from .circuit import (
    CircuitFormatError,
    circuit_from_dict,
    coupling_from_dict,
    dump_json,
    load_json,
    metrics,
)
from .compiler import (
    compile_cnot_baseline,
    compile_ext,
    swap_path_from_dict,
    verify_equivalence,
)
from .gates import ARITY, GateKind, gate_matrix
from .netbench import BENCH_WIRE_CAP, BenchConfig, check_jobs, run_benchmark, summary_text, write_csv
from .qram import QramSpec, build_qram_circuit, count_gates, pipeline_schedule, verify_qram
from .qram.build import qram_spec_from_dict
from .qram.layout import TreeLayout


def _parse_list(text: str | None, what: str, convert: Callable[[str], Any] = int) -> tuple:
    """A comma list such as 0,2,5; empty when the flag is absent or empty."""
    if not text:
        return ()
    try:
        return tuple(convert(t) for t in text.split(","))
    except ValueError:
        raise CircuitFormatError(f"bad {what} {text!r}; expected a comma list") from None


def _parse_sizes(text: str) -> tuple[int, ...]:
    if ".." not in text:
        return _parse_list(text, "sizes")
    try:
        lo, hi = (int(t) for t in text.split(".."))
    except ValueError:
        raise CircuitFormatError(f"bad sizes {text!r}; expected e.g. 3..8 or 3,5,7") from None
    if lo < 2 or hi > BENCH_WIRE_CAP:  # BenchConfig's bounds, before the range exists
        raise CircuitFormatError(f"sizes {text!r} outside 2..{BENCH_WIRE_CAP}")
    return tuple(range(lo, hi + 1))


def _verdict(dev: float, good: str, bad: str) -> int:
    """Print the deviation; the engine's are exact, so only 0.0 passes."""
    print(f"max deviation: {dev:.6e}")
    print(good if dev == 0.0 else bad, file=sys.stderr)
    return 0 if dev == 0.0 else 1


def cmd_compile(args: argparse.Namespace) -> int:
    for flag, value, modes in (
        ("--known-zero", args.known_zero, ("ext1", "ext2")),
        ("--coupling", args.coupling, ("ext2",)),
        ("--policy", args.policy, ("ext2",)),
    ):
        if value is not None and args.mode not in modes:
            raise CircuitFormatError(f"{flag} needs --mode {' or '.join(modes)}, not {args.mode}")
    path = load_json(args.path, swap_path_from_dict)
    if args.mode == "cnot":
        circuit, corrections = compile_cnot_baseline(path), 0
    else:
        zeros = _parse_list(args.known_zero, "wire list")
        if len(set(zeros)) < len(zeros):
            raise CircuitFormatError(f"--known-zero {args.known_zero} repeats a wire")
        coupling = None
        if args.mode == "ext2":
            if not args.coupling:
                raise CircuitFormatError("--mode ext2 needs --coupling MAP.json")
            coupling = load_json(args.coupling, coupling_from_dict)
        res = compile_ext(path, coupling, zeros, args.policy or "earliest")
        circuit, corrections = res.circuit, res.ledger.n_corrections()
    dump_json(circuit, args.out)
    met = metrics(circuit)
    print(
        f"mode={args.mode} swaps={len(path)} {met.line()} corrections={corrections}",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    path = load_json(args.path, swap_path_from_dict)
    circuit = load_json(args.circuit, circuit_from_dict)
    dev = verify_equivalence(path, circuit, constraints=circuit.known_zero)
    n, zeros = path.n_wires, sorted(circuit.known_zero)
    held = f" (wires {', '.join(map(str, zeros))} held at 0, as the circuit declares)"
    checked = f"on {2 ** (n - len(zeros))} of {2**n} inputs{held}" if zeros else f"on all {2**n} inputs"
    return _verdict(dev, f"equivalent {checked}", f"NOT equivalent {checked}")


def cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(sizes=_parse_sizes(args.sizes), trials=args.trials, p=args.p, seed=args.seed)
    check_jobs(args.jobs)  # before the output is created, which is before any trial runs
    with open(args.csv, "w") if args.csv else contextlib.nullcontext(sys.stdout) as out:
        records = run_benchmark(config, jobs=args.jobs)
        write_csv(records, out)
    print(summary_text(records), file=sys.stderr)
    return 0


def _qram_spec_from_args(args: argparse.Namespace) -> QramSpec:
    if args.spec:
        for flag in ("n", "k", "memory", "extensions", "pipeline"):
            if vars(args)[flag] is not None and vars(args)[flag] is not False:
                raise CircuitFormatError(f"--spec excludes --{flag}")
        return load_json(args.spec, qram_spec_from_dict)
    if args.n is None or args.k is None or args.memory is None:
        raise CircuitFormatError("need --spec FILE or all of --n, --k, --memory")
    return qram_spec_from_dict(
        {
            "n": args.n,
            "k": args.k,
            "memory": list(_parse_list(args.memory, "memory list")),
            "extensions": args.extensions,
            "pipeline": args.pipeline,
        }
    )


def cmd_qram_build(args: argparse.Namespace) -> int:
    spec = _qram_spec_from_args(args)
    TreeLayout(spec.n, spec.k)  # an oversized tree is refused before --out is touched
    if args.out:
        open(args.out, "a").close()  # an unwritable --out is refused before building
    build = build_qram_circuit(spec)
    dump_json(build.circuit, args.out)
    met = metrics(build.circuit)
    rec = build.record
    print(
        f"n={spec.n} k={spec.k} extensions={spec.extensions} pipeline={spec.pipeline} "
        f"wires={build.circuit.n_wires} {met.line()} "
        f"cz_free_pairs={rec.ext1_saved_pairs} deferred_cz_pairs={rec.ext2_saved_pairs} "
        f"bus_cz={rec.cz_on_qpu} phase_gates={rec.phase_correction_gates}",
        file=sys.stderr,
    )
    return 0


def _tree_size(args: argparse.Namespace) -> tuple[int, int]:
    """--n and --k, refused by TreeLayout when the QRAM layout they describe
    is out of range; the wire count is arithmetic, so nothing is built first."""
    lay = TreeLayout(args.n, args.k)
    return lay.n, lay.k


def cmd_qram_count(args: argparse.Namespace) -> int:
    report = count_gates(*_tree_size(args))
    if args.json:
        print(report.to_json())
    else:
        print(report.table())
    return 0


def cmd_qram_verify(args: argparse.Namespace) -> int:
    dev = verify_qram(_qram_spec_from_args(args))
    return _verdict(dev, "qram circuit verified", "verification FAILED")


def cmd_schedule(args: argparse.Namespace) -> int:
    print(pipeline_schedule(*_tree_size(args)).text())
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    name = args.gate
    if name not in ARITY:
        raise CircuitFormatError(
            f"unknown gate {name!r}; choose from {', '.join(sorted(ARITY))}"
        )
    m = gate_matrix(GateKind(name, _parse_list(args.params, "params", float)))
    if args.json:
        doc: Any = [[[z.real, z.imag] for z in row] for row in m]
        print(json.dumps(doc))
    else:
        for row in m:
            print("  ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in row))
    return 0


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="qram spec JSON file")
    p.add_argument("--n", type=int, help="address bits (with --k, --memory)")
    p.add_argument("--k", type=int, help="data bits per word")
    p.add_argument("--memory", help="comma list of 2**n cell values")
    p.add_argument("--extensions", action="store_true")
    p.add_argument("--pipeline", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapnet",
        description="SWAP networks on {CZ, iSWAP}; QRAM circuits and counts.",
    )
    parser.add_argument("--version", action="version", version=f"swapnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a swap path JSON to a circuit")
    c.add_argument("--path", required=True, help="swap path JSON file")
    c.add_argument("--mode", choices=("iscz", "cnot", "ext1", "ext2"), default="iscz")
    c.add_argument("--known-zero", help="comma list of wires starting in |0> (ext1, ext2)")
    c.add_argument("--coupling", help="coupling map JSON file (ext2)")
    c.add_argument("--policy", choices=("earliest", "latest"), help="ext2 only; default earliest")
    c.add_argument("--out", help="write circuit JSON here instead of stdout")
    c.set_defaults(func=cmd_compile)

    v = sub.add_parser("verify", help="check a circuit realizes a swap path")
    v.add_argument("--path", required=True)
    v.add_argument("--circuit", required=True)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="depth/fidelity benchmark vs CNOT baseline")
    b.add_argument("--sizes", default="3..8", help="e.g. 3..8 or 3,5,7")
    b.add_argument("--trials", type=int, default=100)
    b.add_argument("--p", type=float, default=0.02, help="two-qubit depolarizing strength")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv", help="write records CSV here instead of stdout")
    b.add_argument("--jobs", type=int, default=1)
    b.set_defaults(func=cmd_bench)

    qb = sub.add_parser("qram-build", help="build a bucket-brigade QRAM circuit")
    _add_spec_arguments(qb)
    qb.add_argument("--out", help="write circuit JSON here instead of stdout")
    qb.set_defaults(func=cmd_qram_build)

    qc = sub.add_parser("qram-count", help="closed-form QRAM gate counts")
    qc.add_argument("--n", type=int, required=True)
    qc.add_argument("--k", type=int, required=True)
    qc.add_argument("--json", action="store_true")
    qc.set_defaults(func=cmd_qram_count)

    qv = sub.add_parser("qram-verify", help="check a QRAM spec against the ideal fetch, exactly")
    _add_spec_arguments(qv)
    qv.set_defaults(func=cmd_qram_verify)

    s = sub.add_parser("schedule", help="print the pipelined fetch schedule")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.set_defaults(func=cmd_schedule)

    m = sub.add_parser("matrix", help="print a gate unitary")
    m.add_argument("--gate", required=True)
    m.add_argument("--params", help="comma list of angles, e.g. 1.5708,3.1416")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_matrix)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitFormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
