import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leavitt
from leavitt import examples
from leavitt.cli import main
from leavitt.graph import Edge, Graph, graph_from_json, graph_to_json


@pytest.fixture
def graph_file(tmp_path):
    def write(graph, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(graph_to_json(graph)))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "u: regular" in out and "v: sink" in out
    code, out, _ = run(capsys, "validate", path, "--json")
    data = json.loads(out)
    assert data["kinds"] == {"u": "regular", "v": "sink"}


def test_analyze(graph_file, capsys):
    path = graph_file(examples.chained_loops())
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["condition_L"] is True
    assert len(data["cycles"]) == 2


def test_hs_closure(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(capsys, "hs-closure", path, "--seed", "u", "--json")
    assert code == 0
    assert json.loads(out)["closure"] == ["u", "v"]


def test_quotient_roundtrips(graph_file, capsys):
    path = graph_file(examples.double_emitter())
    code, out, _ = run(capsys, "quotient", path, "--H", "u", "--S", "v")
    assert code == 0
    q = graph_from_json(json.loads(out))
    assert set(q.vertices) == {"v", "w", "w'"}


def test_normalize(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(capsys, "normalize", path, "u - e*e^* - f*f^*")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "normalize", path, "1", "--json")
    assert json.loads(out)["normal_form"] == "u + v"


def test_dash_led_expressions_are_arguments(graph_file, capsys):
    """A word with one leading dash that names no option is a value, so an
    expression may start with a minus sign and hold no space."""
    path = graph_file(examples.toeplitz())
    expected = "-6*e + 6*e*e*e^*\n"
    for argv in (
        [path, "-2*e*(3)*f*f^*"],
        [path, "--", "-2*e*(3)*f*f^*"],
        ["--json", path, "-2*e*(3)*f*f^*"],
        [path, "-2*e*(3)*f*f^*", "--json"],
    ):
        code, out, err = run(capsys, "normalize", *argv)
        assert (code, err) == (0, "")
        text = json.loads(out)["normal_form"] + "\n" if "--json" in argv else out
        assert text == expected
    pair = ("--b", "1+2*f", "--max-len", "3", "--mode", "algebra", "--json")
    code, out, err = run(capsys, "verify-free", path, "--a", "-2*f^*+1", *pair)
    assert (code, err) == (0, "")
    assert run(capsys, "verify-free", path, "--a=-2*f^*+1", *pair) == (code, out, err)
    data = json.loads(out)
    assert data["word_count"] == 52 and data["all_nontrivial"]
    # -2*f^* is read as the generator, which is no unit: a domain error, not usage
    code, out, err = run(capsys, "verify-free", path, "--a", "-2*f^*", "--b", "1+2*f")
    assert (code, out) == (1, "") and "is not zero" in err
    loops = graph_file(examples.chained_loops(), "loops.json")
    code, out, _ = run(capsys, "classify", loops, "--H", "v", "--cycle", "e", "--poly", "-1-x-x^2")
    assert code == 0 and out.startswith("verdict: typeIII")
    with pytest.raises(SystemExit) as exc:
        main(["normalize", path, "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: leavitt normalize")


def test_classify(graph_file, capsys):
    path = graph_file(examples.double_emitter())
    code, out, _ = run(capsys, "classify", path, "--H", "u", "--S", "v", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "typeI" and data["witness"] == "w"

    g4 = graph_file(examples.chained_loops(), "g4.json")
    code, out, _ = run(
        capsys, "classify", g4, "--H", "v", "--cycle", "e", "--poly", "1+x+x^2", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "typeIII"


def test_enumerate_ideals(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(capsys, "enumerate-ideals", path, "--json")
    assert code == 0
    rows = json.loads(out)["pairs"]
    assert [(r["H"], r["S"], r["verdict"]) for r in rows] == [
        ([], [], "typeII"),
        (["v"], [], "not_primitive"),
        (["u", "v"], [], "not_primitive"),
    ]


def test_free_gens(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(capsys, "free-gens", path, "--json", "--max-len", "3")
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert len(certs) == 1
    assert certs[0]["a"] == "u + v + 2*f^*"
    assert certs[0]["b"] == "u + v + 2*f"
    assert certs[0]["verified_to_length"] == 3
    assert certs[0]["verification"]["all_nontrivial"] is True


def test_verify_free(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(
        capsys,
        "verify-free",
        path,
        "--a",
        "1+2*f^*",
        "--b",
        "1+2*f",
        "--max-len",
        "4",
        "--mode",
        "both",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["word_count"] == 160 and data["all_nontrivial"]


def test_verify_free_full_depth(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(
        capsys, "verify-free", path, "--a", "1+2*f^*", "--b", "1+2*f",
        "--max-len", "8", "--mode", "both", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["word_count"] == 13120 and data["all_nontrivial"]


def test_verify_free_swapped_pair_in_default_mode(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(
        capsys, "verify-free", path, "--a", "1+2*f", "--b", "1+2*f^*", "--max-len", "3", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "both" and data["word_count"] == 52 and data["all_nontrivial"]


def test_verify_free_json_names_witness_and_pair(graph_file, capsys):
    path = graph_file(examples.cycle_with_side_loop())
    code, out, _ = run(
        capsys, "verify-free", path, "--a", "1 + 2*e1^*", "--b", "1 + 2*e1", "--max-len", "3", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == {
        "kind": "infinite_path_edge",
        "edge": "e1",
        "tail": {"source": "v2", "prefix": [], "cycle": ["e2", "e3", "e4", "e1"]},
    }
    assert data["pair"] == {"H": [], "S": []}
    assert data["all_nontrivial"] and data["word_count"] == 52

    # (f e*)^2 = 0 by (CK1), but no witness shape matches: algebra mode only
    path = graph_file(examples.toeplitz())
    code, out, _ = run(
        capsys, "verify-free", path, "--a", "1+2*e*f^*", "--b", "1+2*f*e^*",
        "--max-len", "3", "--mode", "algebra", "--json",
    )
    data = json.loads(out)
    assert data["witness"] == {"kind": "none"} and data["pair"] == {"H": [], "S": []}
    assert "witness" not in run(
        capsys, "verify-free", path, "--a", "1+2*e*f^*", "--b", "1+2*f*e^*",
        "--max-len", "3", "--mode", "algebra",
    )[1]


def test_exit_code_domain_error(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    # {u} is not hereditary: domain error, exit 1
    code, _, err = run(capsys, "classify", path, "--H", "u")
    assert code == 1
    assert "hereditary" in err


def test_exit_code_parse_errors(graph_file, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line" in err

    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": []}')
    code, _, err = run(capsys, "validate", str(empty))
    assert code == 2

    path = graph_file(examples.toeplitz())
    code, _, err = run(capsys, "normalize", path, "e^* *")
    assert code == 2

    code, _, err = run(capsys, "normalize", path, "zz")
    assert code == 1  # unknown symbol is a domain error

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", path])
    assert exc.value.code == 2

    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "validate", str(missing))
    assert code == 2


def test_name_that_cannot_parse_back_is_rejected(tmp_path, capsys):
    bad = tmp_path / "names.json"
    bad.write_text('{"vertices": ["1x", "u"], "edges": [{"name": "e", "src": "u", "dst": "1x"}]}')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert "'1x'" in err and "not an identifier" in err
    code, out, _ = run(capsys, "normalize", str(bad), "u", "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SchemaError"


def test_verify_free_reports_violation_with_exit_1(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, _ = run(
        capsys, "verify-free", path, "--a", "1-2*f", "--b", "1+2*f",
        "--max-len", "2", "--mode", "algebra", "--json",
    )
    assert code == 1
    assert not json.loads(out)["all_nontrivial"]


def test_dangling_graph_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "dangling.json"
    bad.write_text('{"vertices": ["u"], "edges": [{"name": "e", "src": "u", "dst": "zz"}]}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "unknown vertex" in err


def test_json_errors_on_stdout(graph_file, capsys, tmp_path):
    from leavitt.graph import Graph

    loops = graph_file(Graph(["u", "v"], [("e", "u", "u"), ("f", "v", "v")]))
    code, out, err = run(capsys, "free-gens", loops, "--json")
    assert code == 1 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "NoWitnessFoundError"
    assert "commutative" in error["message"]
    assert error["transcript"] == ["graph is a disjoint union of isolated vertices and single loops"]

    code, out, err = run(capsys, "free-gens", loops)
    assert code == 1 and out == ""
    assert err.startswith("error: the algebra is commutative")

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run(capsys, "validate", str(bad), "--json")
    assert code == 2 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "SchemaError" and error["transcript"] is None


def test_quotient_by_whole_vertex_set_is_improper(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    code, out, err = run(capsys, "quotient", path, "--H", "u,v")
    assert code == 1 and out == ""
    assert err == (
        "error: H is the whole vertex set: the quotient is the zero ring, "
        "which is not a unital path algebra\n"
    )
    code, out, err = run(capsys, "quotient", path, "--H", "u,v", "--json")
    assert code == 1 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "NotAdmissibleError"
    assert error["message"].startswith("H is the whole vertex set")


def test_max_len_below_one_is_usage_error(graph_file, capsys, monkeypatch):
    import leavitt.cli

    def refuse(g):
        raise AssertionError("discovery ran before --max-len was checked")

    monkeypatch.setattr(leavitt.cli, "find_free_generators", refuse)
    path = graph_file(examples.toeplitz())
    commands = (["free-gens", path], ["verify-free", path, "--a", "1+2*f^*", "--b", "1+2*f"])
    for argv in commands:
        for bound in ("0", "-3"):
            code, out, err = run(capsys, *argv, "--max-len", bound)
            assert (code, out, err) == (2, "", "error: --max-len must be at least 1\n")
            code, out, err = run(capsys, *argv, "--max-len", bound, "--json")
            assert code == 2 and err == ""
            error = json.loads(out)["error"]
            assert error == {
                "type": "UsageError",
                "message": "--max-len must be at least 1",
                "transcript": None,
            }


def test_classify_cycle_without_edges_is_usage_error(graph_file, capsys):
    path = graph_file(examples.chained_loops())
    code, out, err = run(capsys, "classify", path, "--H", "v", "--cycle", ",", "--poly", "1+x")
    assert (code, out, err) == (2, "", "error: --cycle names no edge\n")
    code, out, _ = run(capsys, "classify", path, "--H", "v", "--cycle", ",", "--poly", "1+x", "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UsageError"


def test_zero_denominator_is_a_parse_error(graph_file, capsys):
    path = graph_file(examples.toeplitz())
    cases = [
        (["normalize", path, "2/0*e"], "zero denominator in '2/0' at position 0"),
        (
            ["verify-free", path, "--a", "1+2/0*f^*", "--b", "1+2*f"],
            "zero denominator in '2/0' at position 2",
        ),
        (["classify", path, "--cycle", "e", "--poly", "1/0 + x"], "zero denominator in '1/0' at position 0"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2 and err == ""
        error = json.loads(out)["error"]
        assert error == {"type": "ParseError", "message": message, "transcript": None}


def test_deep_nesting_is_a_parse_error(graph_file, capsys, tmp_path):
    # nesting past the recursion limit is bad input, not a crash
    path = graph_file(examples.toeplitz())
    parens = "(" * 400 + "u" + ")" * 400
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    cases = [
        (["normalize", path, parens], "ParseError", "expression nests too deeply"),
        (["verify-free", path, "--a", parens, "--b", "1+2*f"], "ParseError", "expression nests too deeply"),
        (["validate", str(deep)], "SchemaError", "invalid JSON: arrays or objects nest too deeply"),
    ]
    for argv, kind, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, argv[0], "--json", *argv[1:])
        assert code == 2 and err == ""
        assert json.loads(out)["error"] == {"type": kind, "message": message, "transcript": None}
    # a run of prefix minus signs is read in a loop: an even run cancels
    for signs, form in [(3000, "u"), (3001, "-u")]:
        assert run(capsys, "normalize", path, "--", "-" * signs + "u") == (0, form + "\n", "")
        code, out, err = run(capsys, "normalize", "--json", path, "--", "-" * signs + "u")
        assert code == 0 and err == "" and json.loads(out)["normal_form"] == form


# 300 parallel edges give 300 certificates; a rose beside 150 isolated
# vertices gives a NoWitnessFoundError whose scan transcript lists 151 pairs,
# each naming about 150 vertices of H.  Either JSON is far larger than a pipe
# buffer.
CLOSED_STDOUT_GRAPHS = {
    "certificates": Graph(["u", "v"], [Edge(f"f{i}", "u", "v") for i in range(300)]),
    "error_report": Graph(
        ["v"] + [f"z{i}" for i in range(150)], [("l0", "v", "v"), ("l1", "v", "v")]
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_STDOUT_GRAPHS))
def test_closed_stdout_exits_141_quietly(graph_file, name):
    """A reader that stops after one line (``| head -1``) gets no traceback.

    The child is still blocked writing when the pipe closes."""
    path = graph_file(CLOSED_STDOUT_GRAPHS[name])
    src = str(Path(leavitt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "leavitt.cli", "free-gens", path, "--max-len", "1", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
