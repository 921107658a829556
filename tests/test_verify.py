import contextlib
import dataclasses
import gc
import io
import json
import sys
from collections import Counter

import pytest

from brauergraph import cli, presentation, resolution
from brauergraph.census import census
from brauergraph.graph import (
    BrauerGraph,
    HalfEdge,
    cycle_graph,
    star_graph,
    to_dict,
    triangle_graph,
)
from brauergraph.oracle import ext, linalg, modules, verify
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


def _bouquet(multiplicity: int, n_loops: int) -> BrauerGraph:
    """One vertex with ``n_loops`` loops, each loop's two ends adjacent."""
    loops = [f"e{i + 1}" for i in range(n_loops)]
    return BrauerGraph([("v", multiplicity)], [(e, ("v", "v")) for e in loops],
                       {"v": [HalfEdge(e, end) for e in loops for end in (0, 1)]})


@pytest.mark.parametrize("g, max_degree, covers, kernels, complexes", [
    (triangle_graph(), 8, 27, 24, 3),
    (cycle_graph(6), 8, 54, 48, 6),
    (pendant_triangle(), 6, 24, 24, 0),
    (cycle_graph(8, 2), 5, 48, 40, 8),
    (_bouquet(2, 4), 3, 16, 12, 4),
], ids=["triangle@8", "cycle6@8", "pendant_triangle@6", "cycle8_m2@5", "bouquet4_m2@3"])
def test_each_simple_resolved_once(monkeypatch, g, max_degree, covers, kernels, complexes):
    """One oracle cover per (edge, degree) and one complex per edge.  A
    walk takes the syzygy under its deepest cover only when a check reads
    it: the resolution, Nakayama-degree and linearity checks read covers
    alone, so a walk they grow through degree n makes n + 1 covers and n
    kernels, while the strings check reads that syzygy (the pendant
    triangle)."""
    calls = {"cover": 0, "kernel": 0, "from_steps": 0}
    cover, kernel = modules.projective_cover, modules.kernel_module
    from_steps = ext.ProjResolution.from_steps.__func__

    def counted_cover(mod):
        calls["cover"] += 1
        return cover(mod)

    def counted_kernel(phi):
        calls["kernel"] += 1
        return kernel(phi)

    def counted_from_steps(cls, la, source, steps):
        calls["from_steps"] += 1
        return from_steps(cls, la, source, steps)

    for namespace in (modules, ext):
        monkeypatch.setattr(namespace, "projective_cover", counted_cover)
        monkeypatch.setattr(namespace, "kernel_module", counted_kernel)
    monkeypatch.setattr(ext.ProjResolution, "from_steps", classmethod(counted_from_steps))
    assert verify_graph(g, max_degree=max_degree).ok
    assert calls == {"cover": covers, "kernel": kernels, "from_steps": complexes}


@pytest.mark.parametrize("g, max_degree, solves", [
    (triangle_graph(), 8, 90),
    (cycle_graph(6), 8, 180),
    (pendant_triangle(), 6, 253),
], ids=["triangle@8", "cycle6@8", "pendant_triangle@6"])
def test_solve_left_calls(monkeypatch, g, max_degree, solves):
    """Only lifting solves linear systems: ``kernel_module`` reads the
    syzygy action off the reduced kernel basis and solves none, and each
    level of a basis class's lift is solved once."""
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
    one ``_times_arrow`` per (basis word, arrow) pair, however many sums of
    projectives the resolutions build."""
    calls = []
    algebras = []
    inside = [0]
    times_arrow, projective_action = (FiniteDimAlgebra._times_arrow,
                                      FiniteDimAlgebra.projective_action)

    def counted_times_arrow(self, i, ai):
        if inside[0]:
            calls.append((self, i, ai))
        return times_arrow(self, i, ai)

    def marked_projective_action(self, e):
        if self not in algebras:
            algebras.append(self)
        inside[0] += 1
        try:
            return projective_action(self, e)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(FiniteDimAlgebra, "_times_arrow", counted_times_arrow)
    monkeypatch.setattr(FiniteDimAlgebra, "projective_action", marked_projective_action)
    assert verify_graph(g, max_degree=max_degree).ok
    assert len(calls) == len(set(calls)) == products
    pairs = sum(len(la.quiver.arrows_from[la.word_target(w)])
                for la in algebras for w in la.basis)
    assert len(calls) <= pairs


@pytest.mark.parametrize("g, max_degree", [
    (triangle_graph(), 8),
    (cycle_graph(6), 8),
    (pendant_triangle(), 6),
], ids=["triangle@8", "cycle6@8", "pendant_triangle@6"])
def test_each_lift_level_solved_once(monkeypatch, g, max_degree):
    """Every (resolution, degree, generator, target) lift is kept on its
    resolution, so each of its levels is solved once per ``verify_graph``:
    by the certificates on the triangle and the cycle, by the closure on the
    pendant triangle."""
    solved = []
    lift_level = ext._lift_level

    def recorded(src, n, i, target_res, k, psi):
        solved.append((src, n, i, target_res, k))
        return lift_level(src, n, i, target_res, k, psi)

    monkeypatch.setattr(ext, "_lift_level", recorded)
    assert verify_graph(g, max_degree=max_degree).ok
    assert solved
    assert len(solved) == len(set(solved))


@pytest.mark.parametrize("g", [triangle_graph(), cycle_graph(6), cycle_graph(8, 2)],
                         ids=["triangle", "cycle6", "cycle8_m2"])
def test_one_chain_per_edge_for_certificates(monkeypatch, g):
    """``_check_certificates`` reads every certificate of an edge off one
    follows-chain."""
    chains = []
    inside = [0]
    chain_init, check = resolution._Chain.__init__, verify._check_certificates

    def counted_init(self, g, e, n):
        if inside[0]:
            chains.append(e)
        chain_init(self, g, e, n)

    def marked_check(*args):
        inside[0] += 1
        try:
            return check(*args)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(resolution._Chain, "__init__", counted_init)
    monkeypatch.setattr(verify, "_check_certificates", marked_check)
    assert verify_graph(g, max_degree=4).ok
    assert sorted(chains) == sorted(g.edge_ids)


def test_uncomposable_certificate_is_a_diff(monkeypatch, tmp_path):
    """A certificate whose factors do not compose is reported as a
    ``certificate`` diff, and ``verify`` exits with a mismatch, not a
    traceback."""
    edge_certificates = verify.edge_certificates

    def swapped(cert):
        if cert.is_leaf:
            return cert
        return resolution.GenerationCertificate(
            cert.element, tuple(swapped(f) for f in reversed(cert.factors)))

    def swapped_certificates(g, e, n_max):
        return [{i: swapped(c) for i, c in level.items()}
                for level in edge_certificates(g, e, n_max)]

    monkeypatch.setattr(verify, "edge_certificates", swapped_certificates)
    g = cycle_graph(4)
    rep = verify_graph(g, max_degree=3)
    assert rep.entries and {e["check"] for e in rep.entries} == {"certificate"}
    path = tmp_path / "square.bg.json"
    path.write_text(json.dumps(to_dict(g)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", "--max", "3", "--input", str(path)]) == cli.EXIT_MISMATCH


def test_d_homogeneous_graph_must_be_a_star(monkeypatch):
    """The classification check holds a d-homogeneous algebra to the star
    shape of ``d_homog_star_check``."""
    assert verify_graph(star_graph(3, 2), 3).ok
    monkeypatch.setattr(verify, "d_homog_star_check", lambda g, d: False)
    rep = verify_graph(star_graph(3, 2), 3)
    assert [e["check"] for e in rep.entries] == ["classification"]


def test_truncation_read_from_a_table(monkeypatch):
    """Each graph builds its truncation table once, on first use, and
    every truncation question of ``verify_graph`` reads it: the rule is
    evaluated at most twice per edge (once per end) and graph."""
    evaluated = Counter()
    table = BrauerGraph._truncation.func

    def counted(self):
        evaluated[id(self)] += 2 * len(self.edge_ids)
        return table(self)

    monkeypatch.setattr(BrauerGraph._truncation, "func", counted)
    graphs = [g for _, g in desk_graphs()] + list(census(3, 2))
    for g in graphs:
        assert verify_graph(g, max_degree=3).ok
        g.truncated_ends(g.edge_ids[0])
        assert evaluated[id(g)] == 2 * len(g.edge_ids), g.edge_ids


def test_verify_leaves_no_reference_cycles():
    """Kept lifts refer to their target resolutions weakly, so everything a
    ``verify_graph`` call builds is freed by reference counting when it
    returns, and a run of many calls does not wait on the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        for g, max_degree in [(triangle_graph(), 6), (cycle_graph(8, 2), 4),
                              (pendant_triangle(), 5)]:
            assert verify_graph(g, max_degree=max_degree).ok
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_lift_through_an_inexact_complex_is_a_diff(monkeypatch, tmp_path):
    """A complex that is not exact, here with one entry of every degree-1
    differential dropped, makes a certificate's lift fail: that class is
    reported as a ``certificate`` diff next to the ``exactness`` one, and
    ``verify`` exits with a mismatch, not a traceback."""
    explicit_resolver = verify.explicit_resolver

    def dropped(g):
        resolver = explicit_resolver(g)

        def drop_one(s):
            diff = dict(s.differential)
            del diff[min(diff)]
            return dataclasses.replace(s, differential=diff)

        def resolve(g, e, n):
            return [drop_one(s) if s.degree == 1 else s for s in resolver(g, e, n)]
        return None if resolver is None else resolve

    monkeypatch.setattr(verify, "explicit_resolver", dropped)
    for g in (cycle_graph(4), triangle_graph(), cycle_graph(3)):
        checks = {e["check"] for e in verify_graph(g, max_degree=3).entries}
        assert {"exactness", "certificate"} <= checks, checks
    path = tmp_path / "square.bg.json"
    path.write_text(json.dumps(to_dict(cycle_graph(4))))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", "--max", "3", "--input", str(path)]) == cli.EXIT_MISMATCH
