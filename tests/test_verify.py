import sys
from collections import Counter

import pytest

from brauergraph import presentation
from brauergraph.census import census
from brauergraph.graph import cycle_graph, triangle_graph
from brauergraph.oracle import ext, linalg, modules
from brauergraph.oracle.algebra import FiniteDimAlgebra
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.oracle.verify import Fault, verify_graph
from conftest import desk_graphs, pendant_triangle


def test_desk_graphs_verify_clean():
    for name, g in desk_graphs():
        rep = verify_graph(g, max_degree=3)
        assert rep.ok, (name, rep.entries)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["q", "f2", "f3"])
def test_census_3_2_verifies_clean(field):
    """The combinatorics and the oracle agree on every graph with at most
    three edges and multiplicities at most two."""
    graphs = list(census(3, 2))
    assert len(graphs) == 140
    diffs = {}
    for i, g in enumerate(graphs):
        rep = verify_graph(g, max_degree=3, field_obj=field)
        if not rep.ok:
            diffs[i] = rep.entries
    assert diffs == {}


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


def test_one_presentation_and_one_algebra_per_call(monkeypatch):
    """``verify_graph`` presents the graph once and builds one algebra,
    whose minimal-generator verdicts it reads; a drop fault adds the
    algebra of the full presentation, since the faulted one answers for
    other relations.  The single-edge trivial graph, which has no
    minimal-generator check, is left out."""
    calls = Counter()
    present, init = presentation.present, FiniteDimAlgebra.__init__

    def counted_present(g):
        calls["present"] += 1
        return present(g)

    def counted_init(self, *args, **kwargs):
        calls["algebra"] += 1
        init(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("brauergraph") and getattr(module, "present", None) is present:
            monkeypatch.setattr(module, "present", counted_present)
    monkeypatch.setattr(FiniteDimAlgebra, "__init__", counted_init)
    graphs = [g for g in census(3, 2) if not g.is_a2_trivial()]
    assert len(graphs) == 139
    for fault, algebras in [(None, 1), (Fault(drop_relation=0), 2)]:
        for g in graphs:
            calls.clear()
            assert verify_graph(g, max_degree=2, fault=fault).ok == (fault is None)
            assert calls == {"present": 1, "algebra": algebras}, (g, fault)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["q", "f2"])
@pytest.mark.parametrize("g", [triangle_graph(), cycle_graph(4), triangle_graph(2)],
                         ids=["triangle", "square", "triangle_m2"])
def test_certificates_verify_clean(g, field):
    """Every factored certificate up to degree 4 evaluates, by Yoneda
    products, to a nonzero multiple of its canonical class; degree 2 at
    positions +-2 is a product of two degree-one classes."""
    rep = verify_graph(g, 4, field)
    assert not [e for e in rep.entries if e["check"] == "certificate"], rep.entries


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


@pytest.mark.parametrize("g, max_degree, solves", [
    (triangle_graph(), 8, 108),
    (cycle_graph(6), 8, 216),
    (pendant_triangle(), 6, 733),
], ids=["triangle@8", "cycle6@8", "pendant_triangle@6"])
def test_solve_left_calls(monkeypatch, g, max_degree, solves):
    """Only lifting solves linear systems: ``kernel_module`` reads the
    syzygy action off the reduced kernel basis and solves none."""
    calls = {"all": 0, "in_kernel": 0}
    inside = [0]
    solve_left, kernel = linalg.solve_left, modules.kernel_module

    def counted_solve_left(*args):
        calls["all"] += 1
        calls["in_kernel"] += inside[0] > 0
        return solve_left(*args)

    def marked_kernel(phi):
        inside[0] += 1
        try:
            return kernel(phi)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(linalg, "solve_left", counted_solve_left)
    for namespace in (modules, ext):
        monkeypatch.setattr(namespace, "kernel_module", marked_kernel)
    assert verify_graph(g, max_degree=max_degree).ok
    assert calls == {"all": solves, "in_kernel": 0}


@pytest.mark.parametrize("g, max_degree, products", [
    (triangle_graph(), 8, 24),
    (cycle_graph(6), 8, 48),
    (pendant_triangle(), 6, 32),
], ids=["triangle@8", "cycle6@8", "pendant_triangle@6"])
def test_projective_rows_built_once(monkeypatch, g, max_degree, products):
    """The arrow rows of the projectives are multiplied out once per algebra:
    one ``word_to_vec`` per (basis word, arrow) pair, however many sums of
    projectives the resolutions build."""
    calls = []
    algebras = []
    inside = [0]
    word_to_vec, projective_action = (FiniteDimAlgebra.word_to_vec,
                                      FiniteDimAlgebra.projective_action)

    def counted_word_to_vec(self, source, arrows):
        if inside[0]:
            calls.append((self, source, arrows))
        return word_to_vec(self, source, arrows)

    def marked_projective_action(self, e):
        if self not in algebras:
            algebras.append(self)
        inside[0] += 1
        try:
            return projective_action(self, e)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(FiniteDimAlgebra, "word_to_vec", counted_word_to_vec)
    monkeypatch.setattr(FiniteDimAlgebra, "projective_action", marked_projective_action)
    assert verify_graph(g, max_degree=max_degree).ok
    assert len(calls) == len(set(calls)) == products
    pairs = sum(len(la.quiver.arrows_from[la.word_target(w)])
                for la in algebras for w in la.basis)
    assert len(calls) <= pairs
