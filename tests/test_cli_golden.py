"""Byte-for-byte replay of recorded CLI output on every example graph.

For each graph in ``examples.ALL``: validate, analyze, enumerate-ideals and
free-gens --max-len 3, then quotient and classify for every admissible pair
that enumerate-ideals lists; each run plain and with --json.  Exit code,
stdout and stderr are compared exactly, with the graph file's path replaced
by ``<graph>``.

The run list is read from the golden file, so a replay does not depend on
the enumeration it checks.  Re-record (only for an intended output change)
with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from leavitt import examples
from leavitt.cli import main
from leavitt.graph import graph_to_json

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
GRAPH = "<graph>"


def run_cli(path: str, argv: list[str]) -> dict:
    """Run one command in-process on the graph file at ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([path if a == GRAPH else a for a in argv])
    return {
        "exit": code,
        "stdout": out.getvalue().replace(path, GRAPH),
        "stderr": err.getvalue().replace(path, GRAPH),
    }


def write_graph(directory: Path, name: str) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(graph_to_json(examples.ALL[name]())))
    return str(path)


def record(directory: Path) -> list[dict]:
    runs = []

    def both(name, path, argv):
        for extra in ([], ["--json"]):
            full = argv + extra
            runs.append({"graph": name, "argv": full, **run_cli(path, full)})

    for name in examples.ALL:
        path = write_graph(directory, name)
        for cmd in (["validate"], ["analyze"], ["enumerate-ideals"], ["free-gens", "--max-len", "3"]):
            both(name, path, [cmd[0], GRAPH, *cmd[1:]])
        pairs = json.loads(run_cli(path, ["enumerate-ideals", GRAPH, "--json"])["stdout"])["pairs"]
        for pair in pairs:
            for cmd in ("quotient", "classify"):
                both(name, path, [cmd, GRAPH, "--H", ",".join(pair["H"]), "--S", ",".join(pair["S"])])
    return runs


@pytest.mark.parametrize("name", list(examples.ALL))
def test_cli_output_matches_golden(name, tmp_path):
    path = write_graph(tmp_path, name)
    runs = [r for r in json.loads(GOLDEN.read_text())["runs"] if r["graph"] == name]
    assert runs
    for expected in runs:
        got = {"graph": name, "argv": expected["argv"], **run_cli(path, expected["argv"])}
        assert got == expected, " ".join(expected["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    # one run per line, so a diff shows which runs changed
    lines = ",\n".join(json.dumps(run, sort_keys=True) for run in recorded)
    GOLDEN.write_text('{"runs": [\n' + lines + "\n]}\n")
    print(f"recorded {len(recorded)} runs to {GOLDEN}", file=sys.stderr)
