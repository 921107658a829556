import pytest

from brauergraph.graph import cycle_graph, triangle_graph
from brauergraph.oracle import ext, modules
from brauergraph.oracle.verify import Fault, verify_graph
from conftest import desk_graphs, pendant_triangle


def test_desk_graphs_verify_clean():
    for name, g in desk_graphs():
        rep = verify_graph(g, max_degree=3)
        assert rep.ok, (name, rep.entries)


def test_flip_fault_detected(triangle):
    rep = verify_graph(triangle, max_degree=3,
                       fault=Fault(flip_sign=("e1", 2, 0, 0)))
    assert not rep.ok
    assert any(e["check"] in ("complex", "exactness") for e in rep.entries)


def test_flip_fault_in_top_degree_detected(triangle):
    # the corner entry of the last requested differential still participates
    # in a composite because verification resolves one degree further
    rep = verify_graph(triangle, max_degree=3,
                       fault=Fault(flip_sign=("e1", 3, 0, 0)))
    assert not rep.ok


def test_drop_fault_detected(triangle):
    pres_len = 9  # three commutation relations, six forbidden pairs
    for k in range(pres_len):
        rep = verify_graph(triangle, max_degree=2, fault=Fault(drop_relation=k))
        assert not rep.ok, k


def test_report_json(triangle):
    rep = verify_graph(triangle, max_degree=2)
    doc = rep.to_json()
    assert doc == {"ok": True, "diffs": []}


@pytest.mark.parametrize("g, max_degree, covers, complexes", [
    (triangle_graph(), 8, 27, 3),
    (cycle_graph(6), 8, 54, 6),
    (pendant_triangle(), 6, 24, 0),
], ids=["triangle@8", "cycle6@8", "pendant_triangle@6"])
def test_each_simple_resolved_once(monkeypatch, g, max_degree, covers, complexes):
    """One oracle cover per (edge, degree) and one complex per edge."""
    calls = {"cover": 0, "from_steps": 0}
    cover, from_steps = modules.projective_cover, ext.ProjResolution.from_steps.__func__

    def counted_cover(mod):
        calls["cover"] += 1
        return cover(mod)

    def counted_from_steps(cls, la, source, steps):
        calls["from_steps"] += 1
        return from_steps(cls, la, source, steps)

    for namespace in (modules, ext):
        monkeypatch.setattr(namespace, "projective_cover", counted_cover)
    monkeypatch.setattr(ext.ProjResolution, "from_steps", classmethod(counted_from_steps))
    assert verify_graph(g, max_degree=max_degree).ok
    assert calls == {"cover": covers, "from_steps": complexes}
