"""Golden CLI output: stdout and exit code of every subcommand over the desk
graphs, plus the verify reports for injected faults, must stay
byte-identical to ``golden_cli.json``."""
import contextlib
import io
import json
from pathlib import Path

import pytest

from brauergraph.cli import run
from brauergraph.graph import to_dict
from brauergraph.presentation import present
from conftest import desk_graphs

GOLDEN = Path(__file__).with_name("golden_cli.json")


def graph_cases(g) -> list[list[str]]:
    """Argument lists for one graph; the input file is appended."""
    cases = [
        ["quiver"],
        ["quiver", "--format", "dot"],
        ["relations"],
        ["relations", "--minimal"],
        ["relations", "--format", "text"],
        ["relations", "--minimal", "--format", "text"],
        ["classify", "--explain"],
    ]
    for e in g.edge_ids:
        cases += [
            ["syzygy", "--edge", e],
            ["syzygy", "--edge", e, "--max", "4", "--format", "text"],
            ["resolve", "--graded", "--edge", e, "--max", "4"],
            ["walk", "--edge", e],
        ]
        for t in g.edge_ids:
            cases.append(["ext", "--from", e, "--to", t, "--max", "5"])
    cases += [
        ["verify", "--max", "3", "--field", "q"],
        ["verify", "--max", "3", "--field", "fp:3"],
    ]
    return cases


def fault_cases(name: str, g) -> list[list[str]]:
    """Injected faults: sign flips on graphs of both resolution regimes, and
    every dropped relation on the triangle and the pendant triangle."""
    cases = []
    if name in ("triangle", "square", "triangle_m2"):
        for flip in ("e1:2:0:0", "e1:3:0:0"):
            cases.append(["verify", "--max", "3", "--inject-flip", flip])
    if name in ("triangle", "pendant_triangle"):
        for k in range(len(present(g).all_relations)):
            cases.append(["verify", "--max", "3", "--inject-drop", str(k)])
    return cases


def record(name: str, g, directory: Path) -> dict[str, dict]:
    path = directory / f"{name}.bg.json"
    path.write_text(json.dumps(to_dict(g)))
    out = {}
    for argv in graph_cases(g) + fault_cases(name, g):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + ["--input", str(path)])
        out[" ".join(argv)] = {"exit": code, "stdout": stdout.getvalue()}
    return out


@pytest.mark.parametrize("name", [name for name, _ in desk_graphs()])
def test_golden_cli(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    g = dict(desk_graphs())[name]
    got = record(name, g, tmp_path)
    assert list(got) == list(golden)
    for key, want in golden.items():
        assert got[key] == want, key
