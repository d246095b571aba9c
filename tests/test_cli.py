"""Command-line interface: exit codes, data on stdout, diagnostics on stderr."""

import argparse
import contextlib
import csv
import io
import json
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from swapnet.circuit import (
    CircuitFormatError,
    CouplingMap,
    circuit_from_dict,
    circuit_to_dict,
    coupling_from_dict,
)
from swapnet.cli import build_parser, main
from swapnet.compiler import (
    SwapPath,
    compile_iscz,
    swap_path_from_dict,
    swap_path_to_dict,
    verify_equivalence,
)
from swapnet.qram.build import qram_spec_from_dict

from oracles import coupling_to_dict


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps(swap_path_to_dict(SwapPath(3, ((0, 1), (1, 2))))))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compile_writes_circuit_json_to_stdout(capsys, path_file):
    rc, out, err = run(capsys, "compile", "--path", path_file)
    assert rc == 0
    circuit = circuit_from_dict(json.loads(out))
    assert [g.kind.name for g in circuit.gates if len(g.wires) == 2] == ["iscz", "iscz"]
    assert "corrections=" in err


def test_compile_then_verify_round_trip(capsys, tmp_path, path_file):
    out_file = str(tmp_path / "circ.json")
    rc, _, _ = run(capsys, "compile", "--path", path_file, "--out", out_file)
    assert rc == 0
    rc, out, err = run(capsys, "verify", "--path", path_file, "--circuit", out_file)
    assert rc == 0
    assert "max deviation" in out and "equivalent" in err


def test_verify_fails_on_wrong_circuit(capsys, tmp_path, path_file):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"n": 3, "gates": [{"kind": "cz", "wires": [0, 1]}]}))
    rc, out, err = run(capsys, "verify", "--path", path_file, "--circuit", str(wrong))
    assert rc == 1
    assert "NOT equivalent" in err


@pytest.mark.parametrize("mode, extra, line", [
    ("iscz", [], "mode=iscz swaps=4 gates=8 1q=4 2q=4 3q=0 depth=4 2q_depth=3 corrections=4"),
    ("ext2", ["--coupling", "line.json"],
     "mode=ext2 swaps=4 gates=12 1q=4 2q=8 3q=0 depth=7 2q_depth=6 corrections=4"),
    # the known zero drops the CZs of swaps 0 and 2, and swap 1's CZ moves to slot 0
    ("ext2", ["--coupling", "line.json", "--known-zero", "0"],
     "mode=ext2 swaps=4 gates=9 1q=3 2q=6 3q=0 depth=6 2q_depth=5 corrections=3"),
])
def test_compile_metrics_line_is_pinned(capsys, tmp_path, monkeypatch, mode, extra, line):
    # the same documents and lines as the console-script step in CI
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text('{"n": 4, "path": [[0, 1], [2, 3], [1, 2], [0, 1]]}')
    (tmp_path / "line.json").write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
    rc, out, err = run(capsys, "compile", "--path", "p.json", "--mode", mode, *extra, "--out", "c.json")
    assert (rc, out, err) == (0, "", line + "\n")
    rc, out, _ = run(capsys, "verify", "--path", "p.json", "--circuit", "c.json")
    assert (rc, out) == (0, "max deviation: 0.000000e+00\n")


def test_compile_ext1_and_ext2(capsys, tmp_path, path_file):
    rc, out, _ = run(
        capsys, "compile", "--path", path_file, "--mode", "ext1", "--known-zero", "2"
    )
    assert rc == 0
    coupling = tmp_path / "line.json"
    coupling.write_text(json.dumps(coupling_to_dict(CouplingMap.line(3))))
    rc, out, _ = run(
        capsys, "compile", "--path", path_file, "--mode", "ext2",
        "--coupling", str(coupling), "--policy", "latest",
    )
    assert rc == 0
    circuit = circuit_from_dict(json.loads(out))
    kinds = [g.kind.name for g in circuit.gates]
    assert kinds.count("iswap") == 2 and kinds.count("cz") == 2


@pytest.mark.parametrize(
    "mode, extra, flag",
    [
        ("iscz", ["--known-zero", "0,2"], "--known-zero"),
        ("iscz", ["--coupling", "line.json"], "--coupling"),
        ("iscz", ["--policy", "latest"], "--policy"),
        ("cnot", ["--policy", "earliest"], "--policy"),
        ("ext1", ["--known-zero", "0", "--coupling", "line.json"], "--coupling"),
    ],
)
def test_compile_refuses_flags_its_mode_ignores(capsys, tmp_path, path_file, mode, extra, flag):
    (tmp_path / "line.json").write_text(json.dumps(coupling_to_dict(CouplingMap.line(3))))
    extra = [str(tmp_path / a) if a == "line.json" else a for a in extra]
    rc, out, err = run(capsys, "compile", "--path", path_file, "--mode", mode, *extra)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {flag} needs --mode ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["qram-build", "qram-verify"])
@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--n", "1", "--k", "1", "--memory", "0,1"], "--n"),
        (["--memory", "0,1"], "--memory"),
        (["--k", "1"], "--k"),
        (["--extensions"], "--extensions"),
        (["--pipeline"], "--pipeline"),
    ],
)
def test_qram_spec_file_refuses_inline_flags(capsys, tmp_path, command, extra, flag):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 1, "k": 1, "memory": [0, 1]}))
    rc, out, err = run(capsys, command, "--spec", str(spec), *extra)
    assert rc == 2 and out == ""
    assert err == f"error: --spec excludes {flag}\n"


@pytest.mark.parametrize("extra", [[], ["--policy", "latest"], ["--known-zero", "0,2"]])
def test_ext2_refuses_an_off_map_swap(capsys, tmp_path, monkeypatch, extra):
    # the same documents as the console-script step in CI: swap 0 skips wire 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gap.json").write_text('{"n": 3, "path": [[0, 2], [0, 1]]}')
    (tmp_path / "line3.json").write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    argv = ["compile", "--path", "gap.json", "--mode", "ext2", "--coupling", "line3.json", *extra]
    rc, out, err = run(capsys, *argv, "--out", "c.json")
    assert (rc, out) == (2, "")
    assert err == "error: swap 0 on wires (0, 2) is not an edge of the coupling map\n"
    assert not (tmp_path / "c.json").exists()


def test_ext2_without_coupling_is_usage_error(capsys, path_file):
    rc, _, err = run(capsys, "compile", "--path", path_file, "--mode", "ext2")
    assert rc == 2 and "error:" in err


def test_missing_file_is_exit_two(capsys):
    rc, _, err = run(capsys, "compile", "--path", "/nonexistent/p.json")
    assert rc == 2 and "error:" in err


def test_malformed_path_file_is_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}')
    rc, _, err = run(capsys, "compile", "--path", str(bad))
    assert rc == 2 and "error:" in err


def test_bench_csv_deterministic(capsys, tmp_path):
    args = ("bench", "--sizes", "3", "--trials", "3", "--seed", "9", "--p", "0.03")
    rc, out1, err1 = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc == rc2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.startswith("n,trial,mode")
    assert len(out1.splitlines()) == 1 + 3 * 3  # header + trials x modes
    assert "mode" in err1  # summary table on stderr


def test_bench_noiseless_fidelity_is_exactly_one_at_every_size(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "2..19", "--trials", "1")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 18 * 3 and {r["fidelity_noiseless"] for r in rows} == {"1.0"}


def test_bench_writes_negative_zero_strength_as_zero(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "2,3", "--trials", "2", "--p", "-0.0")
    assert rc == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    column = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    assert set(column["p"]) == {"0.0"}
    assert set(column["fidelity_noisy"]) == {"1.0"}


def test_bench_writes_files(capsys, tmp_path):
    csv_file = tmp_path / "r.csv"
    csv_file.write_text("old bytes\n")
    rc, out, _ = run(capsys, "bench", "--sizes", "3,4", "--trials", "2", "--csv", str(csv_file))
    assert rc == 0 and out == ""
    lines = csv_file.read_text().splitlines()
    assert lines[0].startswith("n,trial,mode")
    assert len(lines) == 1 + 2 * 2 * 3  # header + sizes x trials x modes, every mode always


@pytest.mark.parametrize("bad", ["--csv"])
def test_bench_opens_its_outputs_before_any_trial(capsys, tmp_path, monkeypatch, bad):
    def no_trials(*args, **kwargs):
        pytest.fail("run_benchmark called before the output was opened")

    monkeypatch.setattr("swapnet.cli.run_benchmark", no_trials)
    unwritable = tmp_path / "nonexistent" / "r.out"
    rc, out, err = run(capsys, "bench", "--sizes", "3", "--trials", "1", bad, str(unwritable))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not unwritable.exists()


def test_refused_jobs_create_no_csv(capsys, tmp_path):
    csv = tmp_path / "x.csv"
    argv = ["bench", "--sizes", "3", "--trials", "1", "--jobs", "-4", "--csv", str(csv)]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith("error: jobs must be >= ")
    assert not csv.exists()


def test_bench_refuses_a_repeated_size(capsys):
    rc, out, err = run(capsys, "bench", "--sizes", "3,3", "--trials", "1")
    assert rc == 2 and out == ""
    assert err.startswith("error: sizes") and len(err.splitlines()) == 1


def test_qram_build_and_verify(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"n": 2, "k": 1, "memory": [0, 1, 1, 0], "extensions": True, "pipeline": True}
    ))
    out_file = str(tmp_path / "qram.json")
    rc, _, err = run(capsys, "qram-build", "--spec", str(spec), "--out", out_file)
    assert rc == 0 and "wires=" in err
    assert circuit_from_dict(json.loads(open(out_file).read())).n_wires == 9
    rc, out, err = run(capsys, "qram-verify", "--spec", str(spec))
    assert rc == 0 and "verified" in err


def test_qram_build_inline_args(capsys):
    rc, out, err = run(
        capsys, "qram-build", "--n", "1", "--k", "2", "--memory", "2,1", "--extensions"
    )
    assert rc == 0
    assert circuit_from_dict(json.loads(out)).n_wires == 5


def test_qram_build_needs_spec_or_inline(capsys):
    rc, _, err = run(capsys, "qram-build", "--n", "1")
    assert rc == 2 and "error:" in err


def test_qram_verify_is_exhaustive_and_exact(capsys):
    rc, out, _ = run(
        capsys, "qram-verify", "--n", "2", "--k", "2", "--memory", "0,1,2,3",
        "--extensions", "--pipeline",
    )
    assert rc == 0 and out == "max deviation: 0.000000e+00\n"


def test_qram_verify_fails_on_any_nonzero_deviation(capsys, monkeypatch):
    monkeypatch.setattr("swapnet.cli.verify_qram", lambda spec: 1e-12)
    rc, out, err = run(capsys, "qram-verify", "--n", "1", "--k", "1", "--memory", "0,1")
    assert rc == 1 and out == "max deviation: 1.000000e-12\n"
    assert "verification FAILED" in err


def test_qram_verify_checks_the_cap_before_building(capsys):
    # 73 wires x 2**71 inputs: the engine's bound must refuse before the
    # circuit or any input exists
    start = time.perf_counter()
    rc, out, err = run(capsys, "qram-verify", "--n", "1", "--k", "70", "--memory", "0,1")
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err.startswith("error: refusing exact check: 73 wires x 2**71 basis inputs")
    assert len(err.splitlines()) == 1


def test_qram_verify_past_twenty_wires(capsys):
    # n=6, k=4 is 140 wires, 1,024 inputs
    memory = ",".join(str(i % 16) for i in range(64))
    rc, out, err = run(
        capsys, "qram-verify", "--n", "6", "--k", "4", "--memory", memory,
        "--extensions", "--pipeline",
    )
    assert rc == 0 and out == "max deviation: 0.000000e+00\n"
    assert err == "qram circuit verified\n"


def test_qram_build_refuses_an_unwritable_out_before_building(capsys, tmp_path):
    # n=13 builds for seconds; the missing directory is found first
    memory = ",".join(["0"] * 2**13)
    out_file = tmp_path / "nonexistent" / "q.json"
    start = time.perf_counter()
    rc, out, err = run(
        capsys, "qram-build", "--n", "13", "--k", "2", "--memory", memory, "--out", str(out_file)
    )
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == "" and not out_file.exists()
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # a refused command leaves an existing --out as it was
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"kept\n")
    argv = ["--n", "15", "--k", "1", "--memory", ",".join(["0"] * 2**15), "--out", str(kept)]
    rc, out, _ = run(capsys, "qram-build", *argv)
    assert rc == 2 and out == "" and kept.read_bytes() == b"kept\n"


def test_qram_build_refuses_a_tree_its_reader_would_refuse(capsys, tmp_path):
    # n = 15, k = 1 is 65,563 wires, over the 65,536 a circuit file may hold
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 15, "k": 1, "memory": [0] * 2**15}))
    out_file = tmp_path / "qram.json"
    start = time.perf_counter()
    rc, out, err = run(capsys, "qram-build", "--spec", str(spec), "--out", str(out_file))
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == "" and not out_file.exists()
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["qram-count", "--n", "100000", "--k", "2"],
        ["schedule", "--n", "3000", "--k", "3000"],
        ["qram-count", "--n", "15", "--k", "1"],
        ["schedule", "--n", "2147483648", "--k", "1"],
        ["qram-count", "--n", "0", "--k", "1"],
        ["schedule", "--n", "2", "--k", "-1"],
    ],
)
def test_tree_size_flags_are_refused_before_building(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_largest_tree_under_the_wire_limit_is_counted(capsys):
    # n = 14 needs 32,793 wires with k = 1; n = 15 (65,564) is refused above
    rc, out, _ = run(capsys, "qram-count", "--n", "14", "--k", "1", "--json")
    assert rc == 0 and json.loads(out)["internal_swap_pairs"] == 2**14 - 2


@pytest.mark.parametrize("sizes", ["3..2147483648", "-2147483648..3"])
def test_bench_size_range_is_refused_before_it_is_built(capsys, sizes):
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "bench", f"--sizes={sizes}", "--trials", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert rc == 2 and out == "" and err.startswith("error: sizes")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "--sizes", "3", "--trials", "1", "--jobs", "-4"], "jobs"),
    ],
)
def test_negative_counts_are_refused(capsys, argv, flag):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {flag} must be >= ") and len(err.splitlines()) == 1


def test_qram_count_table_and_json(capsys):
    rc, out, _ = run(capsys, "qram-count", "--n", "3", "--k", "2")
    assert rc == 0 and "Internal-SWAP pairs" in out
    rc, out, _ = run(capsys, "qram-count", "--n", "3", "--k", "2", "--json")
    doc = json.loads(out)
    assert doc["internal_swap_pairs"] == 6 and doc["fetch_routing_ops"] == 7


def test_schedule_prints_steps(capsys):
    rc, out, _ = run(capsys, "schedule", "--n", "2", "--k", "2")
    assert rc == 0
    assert out.splitlines()[0].startswith("pipeline schedule n=2 k=2")
    assert len(out.splitlines()) == 1 + 7  # 2n+3 steps


def test_matrix_json_is_exact(capsys):
    rc, out, _ = run(capsys, "matrix", "--gate", "iscz", "--json")
    assert rc == 0
    m = json.loads(out)
    assert m[1][2] == [0.0, 1.0] and m[3][3] == [-1.0, 0.0]
    rc, out, _ = run(capsys, "matrix", "--gate", "fsim", "--params", "0,0")
    assert rc == 0 and "+1.000000" in out


def test_matrix_unknown_gate_is_exit_two(capsys):
    # syc, xyevol and zzevol were kinds once; no compiler emitted them
    for name in ("nosuch", "syc", "xyevol", "zzevol"):
        rc, _, err = run(capsys, "matrix", "--gate", name)
        assert rc == 2 and err.startswith(f"error: unknown gate {name!r}; choose from ")
    rc, _, err = run(capsys, "matrix", "--gate", "fsim", "--params", "1.0")
    assert rc == 2


def test_compiled_cli_circuit_verifies_in_process(capsys, tmp_path, path_file):
    out_file = str(tmp_path / "c.json")
    run(capsys, "compile", "--path", path_file, "--mode", "cnot", "--out", out_file)
    circuit = circuit_from_dict(json.loads(open(out_file).read()))
    path = SwapPath(3, ((0, 1), (1, 2)))
    assert verify_equivalence(path, circuit) <= 1e-12


def test_verify_over_the_bit_matrix_bound_is_usage_error(capsys, tmp_path):
    path = tmp_path / "p40.json"
    path.write_text(json.dumps({"n": 40, "path": [[0, 1]]}))
    circ = tmp_path / "c40.json"
    circ.write_text(json.dumps({"n": 40, "gates": [{"kind": "iscz", "wires": [0, 1]}]}))
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify", "--path", str(path), "--circuit", str(circ))
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err.startswith("error: refusing exact check: 40 wires x 2**40 basis inputs")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "extra, named",
    [
        ([{"kind": "fsim", "wires": [0, 1], "params": [0.3, 0.2]}], "gate 5 (fsim(0.3, 0.2) 0 1)"),
        ([{"kind": "h", "wires": [1]}], "gate 5 (h 1)"),
        ([{"kind": "h", "wires": [0]}, {"kind": "cz", "wires": [1, 2]},
          {"kind": "h", "wires": [0]}], "gate 5 (h 0)"),
        ([{"kind": "h", "wires": [2]}, {"kind": "ccz", "wires": [0, 1, 2]},
          {"kind": "h", "wires": [2]}], "gate 5 (h 2)"),
    ],
    ids=["fsim", "lone-h", "h-pair-off-wire", "h-ccz-h"],
)
def test_verify_refuses_a_circuit_outside_the_engine(capsys, tmp_path, path_file, extra, named):
    # the compiled circuit of the 3-wire path (two iSCZs, three phase gates),
    # then gates no SWAP network emits
    doc = circuit_to_dict(compile_iscz(SwapPath(3, ((0, 1), (1, 2)))).circuit)
    assert len(doc["gates"]) == 5
    doc["gates"] += extra
    circ = tmp_path / "odd.json"
    circ.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "--path", path_file, "--circuit", str(circ))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: not a SWAP-network circuit: {named} ")
    assert len(err.splitlines()) == 1


# schema -> (reader, argv reading the document from DOC next to a valid 2-wire path)
SCHEMAS = {
    "circuit": (circuit_from_dict, ["verify", "--path", "PATH", "--circuit", "DOC"]),
    "coupling": (
        coupling_from_dict, ["compile", "--path", "PATH", "--mode", "ext2", "--coupling", "DOC"]
    ),
    "path": (swap_path_from_dict, ["compile", "--path", "DOC"]),
    "qram": (qram_spec_from_dict, ["qram-build", "--spec", "DOC"]),
}


@pytest.mark.parametrize("schema, text, field", [
    ("circuit", '{"n": 2, "gates": [{"kind": "cz", "wires": "01"}]}', "gates[0].wires"),
    ("circuit", '{"n": 2, "gates": [{"kind": "cz", "wires": [0, true]}]}', "gates[0].wires[1]"),
    ("circuit", '{"n": 2.7}', "n"),
    ("circuit", '{"n": true}', "n"),
    ("circuit", '{"n": 1e400}', "n"),
    ("circuit", '{"n": 100000}', "n"),
    ("circuit", '{"n": 2, "gates": [{"kind": "fsim", "wires": [0, 1], "params": [1e400, 0]}]}',
     "gates[0].params[0]"),
    ("circuit", '{"n": 2, "known_zero": [0.0]}', "known_zero[0]"),
    ("circuit", '{"n": 2, "known_zero": [0, 0]}', "known_zero"),
    ("coupling", '{"n": 2, "edges": {"01": 1}}', "edges"),
    ("coupling", '{"n": 2, "edges": ["01"]}', "edges[0]"),
    ("coupling", '{"n": 2, "edges": [[0, 1, 1]]}', "edges[0]"),
    ("coupling", '{"n": "2", "edges": [[0, 1]]}', "n"),
    ("coupling", '{"n": 2, "edges": [[0, 1], [1, 0], [0, 1]]}', "edges"),
    ("path", '{"n": 2, "path": ["01"]}', "path[0]"),
    ("path", '{"n": 2, "path": [[0, 1.0]]}', "path[0][1]"),
    ("path", '{"n": 1e400, "path": [[0, 1]]}', "n"),
    ("path", '{"n": 2147483648, "path": [[0, 1]]}', "n"),
    ("path", '{"n": 2}', "path"),
    ("qram", '{"n": 1, "k": 1, "memory": [1, 0], "extensions": "no"}', "extensions"),
    ("qram", '{"n": 1, "k": 1, "memory": [1, 0], "pipeline": 1}', "pipeline"),
    ("qram", '{"n": 1, "k": 1, "memory": [1.5, 0]}', "memory[0]"),
    ("qram", '{"n": true, "k": 1, "memory": [1, 0]}', "n"),
    ("qram", '{"n": 1, "k": 2147483648, "memory": [1, 0]}', "k"),
])
def test_lenient_fields_are_refused(capsys, tmp_path, schema, text, field):
    reader, argv = SCHEMAS[schema]
    with pytest.raises(CircuitFormatError, match=f"field {re.escape(field)} must be"):
        reader(json.loads(text))
    doc, path = tmp_path / "doc.json", tmp_path / "path.json"
    doc.write_text(text)
    path.write_text('{"n": 2, "path": [[0, 1]]}')
    files = {"DOC": str(doc), "PATH": str(path)}
    rc, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"field {field} must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "schema, text, message",
    [
        ("path", '{"n": 0, "path": []}', "bad swap path document: swap path"),
        ("coupling", '{"n": 0, "edges": []}', "bad coupling document: coupling map"),
    ],
)
def test_documents_without_wires_are_refused(capsys, tmp_path, schema, text, message):
    reader, argv = SCHEMAS[schema]
    message += " needs at least one wire, got n=0"
    with pytest.raises(CircuitFormatError, match=f"^{message}$"):
        reader(json.loads(text))
    doc, path = tmp_path / "doc.json", tmp_path / "path.json"
    doc.write_text(text)
    path.write_text('{"n": 2, "path": [[0, 1]]}')
    files = {"DOC": str(doc), "PATH": str(path)}
    rc, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert rc == 2 and out == "" and err == f"error: {message}\n"


def test_repeated_known_zero_wire_is_refused(capsys, path_file):
    argv = ["compile", "--path", path_file, "--mode", "ext1", "--known-zero", "0,0"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == "error: --known-zero 0,0 repeats a wire\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "x"])
def test_bad_tolerance_is_usage_error_before_simulating(capsys, monkeypatch, path_file, tol):
    # verify has no --tol (its verdict passes only at exactly 0.0), so any
    # value is an argparse usage error, before anything is checked
    def refuse(*args, **kwargs):
        raise AssertionError("checked despite --tol")

    monkeypatch.setattr("swapnet.cli.verify_equivalence", refuse)
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--path", path_file, "--circuit", path_file, "--tol", tol])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --tol" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["qram-verify", "--n", "1", "--k", "1", "--memory", "0,1", "--tol", "1e-9"],
        ["bench", "--sizes", "3", "--trials", "1", "--modes", "cnot"],
        ["bench", "--sizes", "3", "--trials", "1", "--json", "r.json"],
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


FLAGS = {
    "bench": ["--csv", "--jobs", "--p", "--seed", "--sizes", "--trials"],
    "compile": ["--coupling", "--known-zero", "--mode", "--out", "--path", "--policy"],
    "matrix": ["--gate", "--json", "--params"],
    "qram-build": ["--extensions", "--k", "--memory", "--n", "--out", "--pipeline", "--spec"],
    "qram-count": ["--json", "--k", "--n"],
    "qram-verify": ["--extensions", "--k", "--memory", "--n", "--pipeline", "--spec"],
    "schedule": ["--k", "--n"],
    "verify": ["--circuit", "--path"],
}


def test_flag_inventory():
    """Every option of every subcommand; a new or removed knob is a diff here."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert found == FLAGS


# -- fuzz: every subcommand, in process ------------------------------------------

BAD_VALUES = ["01", 2.7, True, None, -1, [], {}, [[0]], [1.5], float("inf"), 10**400]
OVERSIZED = [13, 40, 2**31]
ANY_EXIT = (0, 1, 2)
# gates no SWAP network emits: verify must refuse them, exit 2
OUTSIDE_THE_ENGINE = [
    {"kind": "fsim", "wires": [0, 1], "params": [0.3, 0.2]},
    {"kind": "h", "wires": [1]},
]


@st.composite
def mutated(draw, doc):
    """doc as it is, with one field at any depth replaced or dropped, or with
    an oversized "n"."""
    how = draw(st.sampled_from(["keep", "field", "oversize"]))
    if how == "oversize":
        return {**doc, "n": draw(st.sampled_from(OVERSIZED))}
    return _mutate_field(draw, doc) if how == "field" else doc


def _mutate_field(draw, value):
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(sorted(copy) if isinstance(copy, dict) else range(len(copy))))
        if isinstance(copy, dict) and draw(st.booleans()):
            del copy[key]
        else:
            copy[key] = _mutate_field(draw, copy[key])
        return copy
    return draw(st.sampled_from(BAD_VALUES))


@st.composite
def swap_paths(draw):
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 2)).map(lambda t: (t[0], t[0] + 1))
    return SwapPath(n, tuple(draw(st.lists(pair, max_size=6))))


@st.composite
def compile_argv(draw):
    path = draw(swap_paths())
    files = {"path.json": draw(mutated(swap_path_to_dict(path)))}
    argv = ["compile", "--path", "path.json"]
    mode = draw(st.sampled_from(["iscz", "cnot", "ext1", "ext2"]))
    argv += ["--mode", mode]
    if mode == "ext1" or (mode == "ext2" and draw(st.booleans())):
        argv += ["--known-zero", draw(st.sampled_from(["0", "0,1", "0,0", "", "x", "99", "-1"]))]
    if mode == "ext2":
        argv += ["--policy", draw(st.sampled_from(["earliest", "latest"]))]
    if mode == "ext2" and draw(st.booleans()):
        line = {"n": path.n_wires, "edges": [[i, i + 1] for i in range(path.n_wires - 1)]}
        files["map.json"] = draw(mutated(line))
        argv += ["--coupling", "map.json"]
    return argv, files, ANY_EXIT


@st.composite
def verify_argv(draw):
    path = draw(swap_paths())
    circuit = circuit_to_dict(compile_iscz(path).circuit)
    files = {"path.json": draw(mutated(swap_path_to_dict(path)))}
    argv = ["verify", "--path", "path.json", "--circuit", "circuit.json"]
    if draw(st.booleans()):  # an intact circuit with an odd gate appended
        circuit["gates"].append(draw(st.sampled_from(OUTSIDE_THE_ENGINE)))
        return argv, {**files, "circuit.json": circuit}, (2,)
    return argv, {**files, "circuit.json": draw(mutated(circuit))}, ANY_EXIT


@st.composite
def qram_argv(draw):
    n, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    memory = draw(st.lists(st.integers(0, 2**k - 1), min_size=2**n, max_size=2**n))
    spec = {"n": n, "k": k, "memory": memory,
            "extensions": draw(st.booleans()), "pipeline": draw(st.booleans())}
    command = draw(st.sampled_from(["qram-build", "qram-verify"]))
    files = {}
    if draw(st.booleans()):
        files["spec.json"] = draw(mutated(spec))
        argv = [command, "--spec", "spec.json"]
    else:
        argv = [command, "--n", str(n), "--k", str(k),
                "--memory", draw(st.sampled_from([",".join(map(str, memory)), "1.5,0", "x", ""]))]
        argv += ["--extensions"] * spec["extensions"] + ["--pipeline"] * spec["pipeline"]
    return argv, files, ANY_EXIT


@st.composite
def other_argv(draw):
    command = draw(st.sampled_from(["bench", "qram-count", "schedule", "matrix"]))
    if command == "bench":
        sizes = draw(st.sampled_from(["3", "2,3", "2..3", "13", "40", str(2**31), "x", "", "3..2"]))
        p = draw(st.sampled_from(["0.02", "0", "nan", "-1", "2"]))
        return ["bench", "--sizes", sizes, "--trials", "1", "--p", p], {}, ANY_EXIT
    if command == "matrix":
        gate = draw(st.sampled_from(["iscz", "fsim", "xyevol", "h", "nosuch"]))
        params = draw(st.sampled_from(["", "0", "0,0", "nan", "1e400", "x"]))
        json_flag = ["--json"] * draw(st.booleans())
        return ["matrix", "--gate", gate, "--params", params] + json_flag, {}, ANY_EXIT
    # n = 13 fits under the wire limit of the tree layout; 40 is refused by it
    small = st.sampled_from(["0", "1", "2", "3", "13", "40", "-1", "x"])
    return [command, "--n", draw(small), "--k", draw(small)], {}, ANY_EXIT


@pytest.mark.parametrize("argv_strategy", [compile_argv, verify_argv, qram_argv, other_argv])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_exit_codes(tmp_path_factory, argv_strategy, data):
    """Well-formed documents (n <= 6), field-level mutations and oversized n,
    driven through main: the exit code is 0, 1 or 2 (only 2 for a circuit
    with a gate outside the exact engine's set), no exception escapes, and 1
    only follows a completed check."""
    argv, files, exits = data.draw(argv_strategy())
    where = tmp_path_factory.getbasetemp() / "fuzz"
    where.mkdir(exist_ok=True)
    for name, doc in files.items():
        (where / name).write_text(json.dumps(doc))
    argv = [str(where / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
    assert rc in exits, argv
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert "max deviation:" in out.getvalue()
