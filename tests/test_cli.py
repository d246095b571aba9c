"""Command-line interface: exit codes, data on stdout, diagnostics on stderr."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from swapnet.circuit import (
    CircuitFormatError,
    CouplingMap,
    circuit_from_dict,
    circuit_to_dict,
    coupling_from_dict,
    dump_json,
)
from swapnet.cli import main
from swapnet.compiler import (
    SwapPath,
    compile_iscz,
    swap_path_from_dict,
    swap_path_to_dict,
    verify_equivalence,
)
from swapnet.qram.build import qram_spec_from_dict


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


def test_compile_ext1_and_ext2(capsys, tmp_path, path_file):
    rc, out, _ = run(
        capsys, "compile", "--path", path_file, "--mode", "ext1", "--known-zero", "2"
    )
    assert rc == 0
    coupling = tmp_path / "line.json"
    dump_json(CouplingMap.line(3), str(coupling))
    rc, out, _ = run(
        capsys, "compile", "--path", path_file, "--mode", "ext2",
        "--coupling", str(coupling), "--policy", "latest",
    )
    assert rc == 0
    circuit = circuit_from_dict(json.loads(out))
    kinds = [g.kind.name for g in circuit.gates]
    assert kinds.count("iswap") == 2 and kinds.count("cz") == 2


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


def test_bench_writes_files(capsys, tmp_path):
    csv_file = tmp_path / "r.csv"
    json_file = tmp_path / "r.json"
    rc, out, _ = run(
        capsys, "bench", "--sizes", "3,4", "--trials", "2",
        "--csv", str(csv_file), "--json", str(json_file), "--modes", "cnot,iscz_fused",
    )
    assert rc == 0 and out == ""
    assert csv_file.read_text().startswith("n,trial,mode")
    docs = json.loads(json_file.read_text())
    assert len(docs) == 2 * 2 * 2


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


def test_qram_verify_sampled_inputs(capsys):
    rc, out, _ = run(
        capsys, "qram-verify", "--n", "2", "--k", "2", "--memory", "0,1,2,3",
        "--extensions", "--pipeline", "--max-inputs", "5", "--seed", "3",
    )
    assert rc == 0 and "max deviation" in out


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
    rc, _, err = run(capsys, "matrix", "--gate", "nosuch")
    assert rc == 2
    rc, _, err = run(capsys, "matrix", "--gate", "fsim", "--params", "1.0")
    assert rc == 2


def test_compiled_cli_circuit_verifies_in_process(capsys, tmp_path, path_file):
    out_file = str(tmp_path / "c.json")
    run(capsys, "compile", "--path", path_file, "--mode", "cnot", "--out", out_file)
    circuit = circuit_from_dict(json.loads(open(out_file).read()))
    path = SwapPath(3, ((0, 1), (1, 2)))
    assert verify_equivalence(path, circuit) <= 1e-12


def test_verify_over_the_unitary_cap_is_usage_error(capsys, tmp_path):
    path = tmp_path / "p40.json"
    path.write_text(json.dumps({"n": 40, "path": [[0, 1]]}))
    circ = tmp_path / "c40.json"
    circ.write_text(json.dumps({"n": 40, "gates": [{"kind": "iscz", "wires": [0, 1]}]}))
    rc, out, err = run(capsys, "verify", "--path", str(path), "--circuit", str(circ))
    assert rc == 2
    assert err.startswith("error: refusing unitary on 40 wires")
    assert "Traceback" not in err and out == ""


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
    ("coupling", '{"n": 2, "edges": {"01": 1}}', "edges"),
    ("coupling", '{"n": 2, "edges": ["01"]}', "edges[0]"),
    ("coupling", '{"n": 2, "edges": [[0, 1, 1]]}', "edges[0]"),
    ("coupling", '{"n": "2", "edges": [[0, 1]]}', "n"),
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


@pytest.mark.parametrize("tol", ["nan", "-1", "x"])
def test_bad_tolerance_is_usage_error_before_simulating(capsys, monkeypatch, path_file, tol):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated despite a bad --tol")

    monkeypatch.setattr("swapnet.cli.verify_equivalence", refuse)
    monkeypatch.setattr("swapnet.cli.verify_qram", refuse)
    for argv in (
        ["verify", "--path", path_file, "--circuit", path_file, "--tol", tol],
        ["qram-verify", "--n", "1", "--k", "1", "--memory", "0,1", "--tol", tol],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "Traceback" not in err


# -- fuzz: every subcommand, in process ------------------------------------------

BAD_VALUES = ["01", 2.7, True, None, -1, [], {}, [[0]], [1.5], float("inf"), 10**400]
OVERSIZED = [13, 40, 2**31]


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
    argv += ["--mode", mode, "--policy", draw(st.sampled_from(["earliest", "latest"]))]
    if mode == "ext1":
        argv += ["--known-zero", draw(st.sampled_from(["0", "0,1", "", "x", "99", "-1"]))]
    if mode == "ext2" and draw(st.booleans()):
        line = {"n": path.n_wires, "edges": [[i, i + 1] for i in range(path.n_wires - 1)]}
        files["map.json"] = draw(mutated(line))
        argv += ["--coupling", "map.json"]
    return argv, files


@st.composite
def verify_argv(draw):
    path = draw(swap_paths())
    files = {
        "path.json": draw(mutated(swap_path_to_dict(path))),
        "circuit.json": draw(mutated(circuit_to_dict(compile_iscz(path).circuit))),
    }
    argv = ["verify", "--path", "path.json", "--circuit", "circuit.json"]
    return argv + ["--tol", draw(st.sampled_from(["1e-10", "0", "2", "nan", "-1"]))], files


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
    if command == "qram-verify":
        # two sampled inputs keep a spec with k = 13, which fits under the
        # full-state cap when n = 1, cheap to simulate
        argv += ["--max-inputs", "2", "--tol", draw(st.sampled_from(["1e-9", "nan", "-1"]))]
    return argv, files


@st.composite
def other_argv(draw):
    command = draw(st.sampled_from(["bench", "qram-count", "schedule", "matrix"]))
    if command == "bench":
        sizes = draw(st.sampled_from(["3", "2,3", "2..3", "13", "40", str(2**31), "x", "", "3..2"]))
        p = draw(st.sampled_from(["0.02", "0", "nan", "-1", "2"]))
        return ["bench", "--sizes", sizes, "--trials", "1", "--p", p], {}
    if command == "matrix":
        gate = draw(st.sampled_from(["iscz", "fsim", "xyevol", "h", "nosuch"]))
        params = draw(st.sampled_from(["", "0", "0,0", "nan", "1e400", "x"]))
        json_flag = ["--json"] * draw(st.booleans())
        return ["matrix", "--gate", gate, "--params", params] + json_flag, {}
    # closed forms and the schedule are cheap up to n = 40 but not at 2**31
    small = st.sampled_from(["0", "1", "2", "3", "13", "40", "-1", "x"])
    return [command, "--n", draw(small), "--k", draw(small)], {}


@pytest.mark.parametrize("argv_strategy", [compile_argv, verify_argv, qram_argv, other_argv])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_exit_codes(tmp_path_factory, argv_strategy, data):
    """Well-formed documents (n <= 6), field-level mutations and oversized n,
    driven through main: the exit code is 0, 1 or 2, no exception escapes,
    and 1 only follows a completed check."""
    argv, files = data.draw(argv_strategy())
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
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert "max deviation:" in out.getvalue()
