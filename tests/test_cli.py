"""Command-line interface: exit codes, data on stdout, diagnostics on stderr."""

import json

import pytest

from swapnet.circuit import circuit_from_dict, dump_json, CouplingMap
from swapnet.cli import main
from swapnet.compiler import SwapPath, swap_path_to_dict, verify_equivalence


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
