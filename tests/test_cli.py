import contextlib
import io
import json
import os

import pytest

from brauergraph.cli import run
from brauergraph.graph import path_graph, to_dict, triangle_graph


@pytest.fixture
def graph_files(tmp_path):
    paths = {}
    for name, g in [("triangle", triangle_graph()), ("a4", path_graph(4))]:
        p = tmp_path / f"{name}.bg.json"
        p.write_text(json.dumps(to_dict(g)))
        paths[name] = str(p)
    return paths


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_classify(graph_files):
    code, out, _ = invoke(["classify", "--input", graph_files["triangle"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["quadratic"] is True and doc["koszul"] is True
    assert doc["ext_generated_in_degrees_012"] is True


def test_classify_explain(graph_files):
    code, out, _ = invoke(["classify", "--explain", "--input", graph_files["a4"]])
    doc = json.loads(out)
    assert code == 0 and "explanations" in doc and "witnesses" in doc
    assert doc["koszul"] is False


def test_walk(graph_files):
    code, out, _ = invoke(["walk", "--edge", "e1", "--input", graph_files["a4"]])
    assert code == 0
    assert json.loads(out) == ["e1", "e2", "e3"]


def test_walk_hypothesis_failure(graph_files):
    code, _, err = invoke(["walk", "--edge", "e1", "--input", graph_files["triangle"]])
    assert code == 2 and err


def test_quiver_dot(graph_files):
    code, out, _ = invoke(["quiver", "--format", "dot",
                           "--input", graph_files["triangle"]])
    assert code == 0 and out.startswith("digraph") and out.count("->") == 6


def test_relations_minimal(graph_files):
    code, out, _ = invoke(["relations", "--minimal", "--input", graph_files["a4"]])
    doc = json.loads(out)
    assert code == 0
    assert all(r["kind"] != "two" for r in doc)


def test_resolve_and_syzygy(graph_files):
    code, out, _ = invoke(["resolve", "--edge", "e1", "--max", "3",
                           "--input", graph_files["triangle"]])
    doc = json.loads(out)
    assert code == 0 and doc[3]["summands"][0] == [-3, "e1"]
    code, out, _ = invoke(["syzygy", "--edge", "e1", "--max", "6",
                           "--input", graph_files["a4"]])
    doc = json.loads(out)
    assert code == 0 and doc["period"] == 6
    assert doc["trace"][3]["string"] == [["e3", "+"]]


def test_ext(graph_files):
    code, out, _ = invoke(["ext", "--from", "e1", "--to", "e3", "--max", "3",
                           "--input", graph_files["a4"]])
    doc = json.loads(out)
    assert code == 0 and doc["dims"] == [0, 0, 0, 1]


def test_verify_ok_and_exit_codes(graph_files):
    code, out, _ = invoke(["verify", "--max", "3", "--input", graph_files["a4"]])
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = invoke(["verify", "--max", "3", "--inject-flip", "e1:2:0:0",
                           "--input", graph_files["triangle"]])
    assert code == 3 and json.loads(out)["ok"] is False
    code, out, _ = invoke(["verify", "--max", "2", "--inject-drop", "4",
                           "--input", graph_files["triangle"]])
    assert code == 3


def test_validation_exit(tmp_path):
    doc = to_dict(triangle_graph())
    doc["rotation"]["alpha"] = doc["rotation"]["alpha"][:1]
    p = tmp_path / "bad.bg.json"
    p.write_text(json.dumps(doc))
    code, _, err = invoke(["classify", "--input", str(p)])
    assert code == 1 and "rotation/incidence mismatch" in err


def test_malformed_json(tmp_path):
    p = tmp_path / "junk.bg.json"
    p.write_text("{not json")
    code, _, err = invoke(["classify", "--input", str(p)])
    assert code == 1 and err


def test_deterministic_output(graph_files):
    a = invoke(["classify", "--input", graph_files["triangle"]])
    b = invoke(["classify", "--input", graph_files["triangle"]])
    assert a == b
    a = invoke(["resolve", "--edge", "e1", "--max", "4", "--graded",
                "--input", graph_files["triangle"]])
    b = invoke(["resolve", "--edge", "e1", "--max", "4", "--graded",
                "--input", graph_files["triangle"]])
    assert a == b


def test_batch_verify(graph_files, tmp_path):
    code, out, _ = invoke(["verify", "--max", "2",
                           "--input-dir", os.path.dirname(graph_files["a4"])])
    assert code == 0
    results = json.loads(out)
    assert len(results) == 2 and all(r["exit"] == 0 for r in results)


def test_text_format(graph_files):
    code, out, _ = invoke(["syzygy", "--edge", "e1", "--max", "3",
                           "--format", "text", "--input", graph_files["a4"]])
    assert code == 0 and "Omega^3: e3+" in out


SUBCOMMANDS = {
    "quiver": [],
    "relations": [],
    "classify": [],
    "resolve": ["--edge", "e1"],
    "syzygy": ["--edge", "e1"],
    "walk": ["--edge", "e1"],
    "ext": ["--from", "e1", "--to", "e2"],
}


@pytest.mark.parametrize("argv, message", [
    *[([cmd, *req, "--field", "q"], "unrecognized arguments")
      for cmd, req in SUBCOMMANDS.items()],
    *[([cmd, *req, "--format", "dot"], "invalid choice")
      for cmd, req in SUBCOMMANDS.items() if cmd != "quiver"],
])
def test_unread_options_rejected(graph_files, argv, message):
    """Only verify reads --field and only quiver renders dot."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run(argv + ["--input", graph_files["triangle"]])
    assert exc.value.code == 2 and message in err.getvalue()
