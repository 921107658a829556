import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import brauergraph
from brauergraph import cli, presentation
from brauergraph.cli import run
from brauergraph.graph import path_graph, star_graph, to_dict, triangle_graph
from brauergraph.oracle import algebra
from brauergraph.oracle.algebra import build_algebra
from brauergraph.oracle.ext import ProjResolution
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.presentation import present
from conftest import pendant_triangle


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


def test_quiver_does_not_depend_on_the_multiplicity(tmp_path, graph_files, monkeypatch):
    """``quiver`` builds no relation: the triangle with multiplicity 200,000
    at alpha prints the quiver of the triangle."""
    monkeypatch.setattr(presentation, "relations_all", None)  # any call raises
    doc = to_dict(triangle_graph())
    doc["vertices"][0]["multiplicity"] = 200_000
    path = tmp_path / "heavy.bg.json"
    path.write_text(json.dumps(doc))
    for fmt in ("json", "dot"):
        assert (invoke(["quiver", "--format", fmt, "--input", str(path)])
                == invoke(["quiver", "--format", fmt, "--input", graph_files["triangle"]]))


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
    # on A4, Omega^2 S_e1 is the uniserial e3/e2 and Omega^3 S_e1 is S_e3
    assert code == 0 and doc["dims"] == [0, 0, 1, 1]
    # dim Ext^n(S_e1, S_e3) is the multiplicity of e3 in the top of the n-th
    # syzygy, read here off the oracle's exact resolution
    walk = ProjResolution.from_oracle(build_algebra(present(path_graph(4))), "e1", 3)
    assert doc["dims"] == [walk.syzygies[n].top()["e3"] for n in range(4)]


def _unknown_edge_cases():
    """Each command that names an edge, on a graph inside its regime and on
    one outside it, with and without ``--max 0`` where it takes ``--max``."""
    for name, argv, graphs in [
        ("resolve", ["resolve", "--edge", "zz"], ("triangle", "a4")),
        ("syzygy", ["syzygy", "--edge", "zz"], ("a4", "triangle_m2")),
        ("walk", ["walk", "--edge", "zz"], ("a4", "triangle_m2")),
        ("ext-from", ["ext", "--from", "zz", "--to", "e1"], ("a4", "triangle_m2")),
        ("ext-to", ["ext", "--from", "e1", "--to", "zz"], ("a4", "triangle_m2")),
    ]:
        for graph in graphs:
            yield pytest.param(argv, graph, id=f"{name}-{graph}")
            if name != "walk":
                yield pytest.param(argv + ["--max", "0"], graph, id=f"{name}-{graph}-max0")


@pytest.mark.parametrize("argv, graph", _unknown_edge_cases())
def test_unknown_edge(tmp_path, argv, graph):
    """An unknown edge is an input error, whether or not the graph is in the
    command's regime, also at --max 0, where nothing is resolved."""
    g = {"triangle": triangle_graph(), "a4": path_graph(4), "triangle_m2": triangle_graph(2)}
    path = tmp_path / f"{graph}.bg.json"
    path.write_text(json.dumps(to_dict(g[graph])))
    assert invoke(argv + ["--input", str(path)]) == (1, "", "unknown edge 'zz'\n")


def usage_exit(argv):
    """Exit code and standard error of a run that argparse may stop."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        run(argv)
    return exc.value.code, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["ext", "--from", "e1", "--to", "e3"],
    ["syzygy", "--edge", "e1"],
    ["resolve", "--edge", "e1"],
    ["verify"],
], ids=lambda argv: argv[0])
def test_negative_max_rejected(graph_files, argv):
    code, err = usage_exit(argv + ["--max", "-1", "--input", graph_files["a4"]])
    assert code == 2 and "argument --max: must be at least 0" in err


@pytest.mark.parametrize("g, fault", [
    (triangle_graph(), ["--inject-drop", "99"]),
    (triangle_graph(), ["--inject-drop", "-1"]),
    (triangle_graph(), ["--inject-flip", "e9:2:0:0"]),
    (triangle_graph(), ["--inject-flip", "e1:2:7:7"]),
    (triangle_graph(), ["--inject-flip", "e1:2:0:0", "--field", "fp:2"]),
    (triangle_graph(), ["--inject-flip", "e1:4:0:0"]),
    (star_graph(3), ["--inject-flip", "e1:2:0:0"]),
    (pendant_triangle(), ["--inject-drop", "3"]),
], ids=["drop 99", "drop -1", "unknown edge", "missing entry", "flip in char 2",
        "flip above max", "no explicit resolution", "redundant relation"])
def test_fault_that_corrupts_nothing_rejected(tmp_path, g, fault):
    """A fault hook that corrupts nothing must not report success."""
    path = tmp_path / "g.bg.json"
    path.write_text(json.dumps(to_dict(g)))
    code, out, err = invoke(["verify", "--max", "3", *fault, "--input", str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "corrupts nothing" in err


@pytest.mark.parametrize("args, code", [
    (["verify", "--field", "fp:4"], 2),
    (["verify", "--field", "xx"], 2),
    (["verify", "--inject-flip", "bad"], 2),
    (["verify", "--input", "missing.bg.json"], 1),
    (["classify", "--input", "missing.bg.json"], 1),
    (["verify", "--input-dir", "missing"], 1),
])
def test_bad_input_exits_without_traceback(graph_files, tmp_path, args, code):
    """A bad option value is a usage error (2), unreadable input is invalid
    input (1); neither escapes as a Python traceback."""
    if "--input" not in args and "--input-dir" not in args:
        args = args + ["--input", graph_files["triangle"]]
    src = str(Path(brauergraph.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "brauergraph.cli", *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("inputs", [[], ["--input", "JUNK", "--input-dir", "DIR"]],
                         ids=["neither", "both"])
def test_verify_takes_exactly_one_input(graph_files, tmp_path, capsys, inputs):
    """``verify`` reads one --input or one --input-dir: neither, and both (a
    non-JSON --input beside a clean directory), are usage errors (2)."""
    junk = tmp_path / "junk.txt"
    junk.write_text("{not json")
    names = {"JUNK": str(junk), "DIR": str(tmp_path)}
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--max", "2", *(names.get(a, a) for a in inputs)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--input" in captured.err


def test_verify_ok_and_exit_codes(graph_files):
    code, out, _ = invoke(["verify", "--max", "3", "--input", graph_files["a4"]])
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = invoke(["verify", "--max", "3", "--inject-flip", "e1:2:0:0",
                           "--input", graph_files["triangle"]])
    assert code == 3 and json.loads(out)["ok"] is False
    code, out, _ = invoke(["verify", "--max", "2", "--inject-drop", "4",
                           "--input", graph_files["triangle"]])
    assert code == 3


def test_parser_is_built_once_per_process(graph_files, monkeypatch):
    """A faulted verify and then a plain verify of the same file, in one
    process: the second call parses into a fresh namespace, so the fault
    does not carry over, and the parser is built once over both calls."""
    built = [0]
    build = cli.build_parser

    def counted_build():
        built[0] += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    monkeypatch.setattr(cli, "_parser", None)
    code, out, _ = invoke(["verify", "--max", "2", "--inject-drop", "0",
                           "--input", graph_files["triangle"]])
    assert code == 3 and json.loads(out)["ok"] is False
    code, out, _ = invoke(["verify", "--max", "2", "--input", graph_files["triangle"]])
    assert code == 0 and json.loads(out) == {"ok": True, "diffs": []}
    assert built == [1]


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


def test_batch_verify_reports_unloadable_file(graph_files, tmp_path):
    """A malformed file gets its own entry, naming it, and the other graphs
    are still verified; alone, it is reported on stderr with its path."""
    junk = tmp_path / "junk.bg.json"
    junk.write_text("{not json")
    code, out, _ = invoke(["verify", "--max", "2", "--input-dir", str(tmp_path)])
    assert code == 1
    results = {os.path.basename(r["input"]): r for r in json.loads(out)}
    assert {name: r["exit"] for name, r in results.items()} == {
        "a4.bg.json": 0, "junk.bg.json": 1, "triangle.bg.json": 0}
    report = results["junk.bg.json"]["report"]
    assert report["ok"] is False
    (message,) = report["diffs"]
    assert "not valid JSON" in message and str(junk) in message
    code, out, err = invoke(["verify", "--input", str(junk)])
    assert (code, out) == (1, "") and str(junk) in err


def _set_quantizer(doc, value):
    doc["quantizer"] = [{"edge": "e1", "vertex": "alpha", "value": value}]


@pytest.mark.parametrize("corrupt, names", [
    (lambda doc: doc.update(rotation=[]), ["rotation"]),
    (lambda doc: _set_quantizer(doc, "1/0"), ["quantizer", "'1/0'", "'e1'", "'alpha'"]),
    (lambda doc: doc["vertices"][0].update(multiplicity=1.5),
     ["multiplicity", "1.5", "'alpha'"]),
    (lambda doc: doc["vertices"][0].update(multiplicity=True),
     ["multiplicity", "True", "'alpha'"]),
    (lambda doc: doc.update(quantizer={"e1": 1}), ["quantizer", "list"]),
    (lambda doc: doc.update(vertices={"alpha": 1}), ["vertices", "list"]),
    (lambda doc: doc["edges"][0].update(ends=["alpha"]), ["ends", "'e1'"]),
    (lambda doc: doc["rotation"]["alpha"].__setitem__(0, ["e1"]),
     ["half-edge", "'alpha'", "['e1']"]),
    (lambda doc: doc["vertices"][0].__delitem__("id"), ["vertex #1", "'id'"]),
    (lambda doc: doc.update(quantizer=[{"edge": "e1", "vertex": "alpha"}]),
     ["quantizer", "'value'", "'e1'", "'alpha'"]),
    (lambda doc: doc.update(edges=5), ["edges", "list"]),
    (lambda doc: [doc], ["document", "object"]),
    (lambda doc: doc["vertices"][0].update(id={"x": 1}),
     ["id of vertex #1", "string", "{'x': 1}"]),
    (lambda doc: doc["vertices"][0].update(id=1), ["id of vertex #1", "string", "1"]),
    (lambda doc: doc["edges"][1].update(id=2), ["id of edge #2", "string", "2"]),
    (lambda doc: doc["edges"][0].update(ends=["alpha", 2]), ["end of edge 'e1'", "string"]),
    (lambda doc: doc["rotation"]["alpha"].__setitem__(0, [1, 0]),
     ["half-edge edge", "'alpha'", "string"]),
    (lambda doc: doc.update(quantizer=[{"edge": 1, "vertex": "alpha", "value": 2}]),
     ["edge of quantizer entry #1", "string"]),
    (lambda doc: doc.update(quantizer=[{"edge": "e1", "vertex": ["alpha"], "value": 2}]),
     ["vertex of quantizer entry #1", "string", "['alpha']"]),
], ids=["rotation-list", "quantizer-zero-denominator", "multiplicity-float",
        "multiplicity-bool", "quantizer-object", "vertices-object", "edge-one-end",
        "half-edge-one-entry", "vertex-without-id", "quantizer-without-value",
        "edges-number", "document-list", "vertex-id-object", "vertex-id-number",
        "edge-id-number", "edge-end-number", "half-edge-edge-number",
        "quantizer-edge-number", "quantizer-vertex-list"])
def test_malformed_graph_document(graph_files, tmp_path, corrupt, names):
    """A document that is JSON but not a graph exits 1 with one stderr line
    naming the field, and the vertex or edge where there is one, and no
    traceback; in a batch it gets its own exit-1 entry and the other graphs
    are still verified.  A float or boolean multiplicity is refused, not
    read as another number."""
    doc = to_dict(triangle_graph())
    doc = corrupt(doc) or doc
    bad = tmp_path / "bad.bg.json"
    bad.write_text(json.dumps(doc))
    code, out, err = invoke(["verify", "--max", "2", "--input", str(bad)])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("malformed graph document: ")
    assert all(name in err for name in names), err
    code, out, _ = invoke(["verify", "--max", "2", "--input-dir", str(tmp_path)])
    assert code == 1
    results = {os.path.basename(r["input"]): r for r in json.loads(out)}
    assert {name: r["exit"] for name, r in results.items()} == {
        "a4.bg.json": 0, "bad.bg.json": 1, "triangle.bg.json": 0}
    assert results["bad.bg.json"]["report"] == {"ok": False, "diffs": [err.strip()]}


def test_batch_verify_reports_refused_fault(tmp_path):
    """A graph whose injected fault is refused gets its own exit-2 entry and
    the other graphs are still verified: the triangle's relation 3 is a real
    fault, the pendant triangle's is redundant."""
    for name, g in [("triangle", triangle_graph()), ("pendant", pendant_triangle())]:
        (tmp_path / f"{name}.bg.json").write_text(json.dumps(to_dict(g)))
    code, out, _ = invoke(["verify", "--max", "2", "--inject-drop", "3",
                           "--input-dir", str(tmp_path)])
    assert code == 3
    results = {os.path.basename(r["input"]): r for r in json.loads(out)}
    assert {name: r["exit"] for name, r in results.items()} == {
        "pendant.bg.json": 2, "triangle.bg.json": 3}
    report = results["pendant.bg.json"]["report"]
    assert report["ok"] is False
    (message,) = report["diffs"]
    assert "corrupts nothing" in message


def test_oversized_algebra_exits_without_traceback(monkeypatch, graph_files):
    """An algebra above the oracle's size cap is refused with exit 2 and one
    stderr line, alone and as a batch entry.  The triangle's words have
    length at most 3, so a cap of 3 admits one word."""
    monkeypatch.setattr(algebra, "SIZE_CAP", 3)
    code, out, err = invoke(["verify", "--input", graph_files["triangle"], "--max", "2"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 1 words" in err and "Traceback" not in err
    entry = cli._verify_entry(graph_files["triangle"], 2, QQ, None)
    assert entry["exit"] == 2
    assert entry["report"]["ok"] is False
    (message,) = entry["report"]["diffs"]
    assert "more than 1 words" in message


@pytest.mark.parametrize("m", [800, 200_000])
def test_high_multiplicity_refused_quickly(tmp_path, m):
    """The triangle with multiplicity m at alpha: the reduction's work grows
    with its words times their length bound, far above the oracle's cap,
    so ``verify`` refuses it before building the algebra: exit 2, one stderr
    line, within seconds."""
    doc = to_dict(triangle_graph())
    doc["vertices"][0]["multiplicity"] = m
    path = tmp_path / "triangle.bg.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = invoke(["verify", "--input", str(path)])
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"cap of {algebra.SIZE_CAP}" in err


@pytest.mark.parametrize("value", ["5", "1/5"], ids=["zero", "no inverse"])
def test_quantizer_degenerate_over_field_refused(tmp_path, value):
    """A quantizer value that is zero over F5 (5) or has no inverse there
    (1/5) is refused when the algebra is built: exit 2 with one stderr line
    naming the (edge, vertex) pair, alone and as a batch entry.  Over Q the
    same graph verifies."""
    doc = to_dict(triangle_graph())
    doc["quantizer"] = [{"edge": "e1", "vertex": "alpha", "value": value}]
    path = tmp_path / "quantized.bg.json"
    path.write_text(json.dumps(doc))
    src = str(Path(brauergraph.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "brauergraph.cli", "verify", "--input",
                           str(path), "--field", "fp:5", "--max", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert f"quantizer value {value} at (e1, alpha)" in proc.stderr
    entry = cli._verify_entry(str(path), 2, PrimeField(5), None)
    assert entry["exit"] == 2 and entry["report"]["ok"] is False
    (message,) = entry["report"]["diffs"]
    assert "(e1, alpha)" in message
    code, out, err = invoke(["verify", "--input", str(path), "--max", "2"])
    assert (code, err) == (0, "") and json.loads(out)["ok"] is True
