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
    loop_graph,
    path_graph,
    star_graph,
    to_dict,
    triangle_graph,
)
from brauergraph.oracle import ext, linalg, modules, verify
from brauergraph.oracle.algebra import FiniteDimAlgebra, build_algebra
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


@pytest.mark.parametrize("g, max_degree, solves, eliminations", [
    (triangle_graph(), 8, 90, 90),
    (cycle_graph(6), 8, 180, 324),
    (pendant_triangle(), 6, 0, 96),
], ids=["triangle@8", "cycle6@8", "pendant_triangle@6"])
def test_blocks_eliminated_once(monkeypatch, g, max_degree, solves, eliminations):
    """Each (map, vertex) block is eliminated at most once per call, however
    many kernels and lifts read it; only lifting solves: ``kernel_module``
    reads the syzygy action off the reduced kernel basis and solves
    nothing, and each level of a basis class's lift is solved once, with
    one solve per vertex of its generators.  The pendant triangle lifts
    nothing: its obstruction witness's slice holds no product."""
    blocks: list = []  # the rows of every elimination built, kept alive
    calls = {"solves": 0, "in_kernel": 0, "outside_lifts": 0}
    levels: list = []  # (source, degree, class, target, level) per level solved
    inside = {"kernel": 0, "lift": 0}
    elimination, solve = linalg.Elimination.__init__, linalg.Elimination.solve
    kernel, lift_level = modules.kernel_module, ext._lift_level

    def counted_elimination(self, rows, field):
        blocks.append(rows)
        elimination(self, rows, field)

    def counted_solve(self, bs):
        calls["solves"] += 1
        calls["in_kernel"] += inside["kernel"] > 0
        calls["outside_lifts"] += inside["lift"] == 0
        return solve(self, bs)

    def marked_kernel(phi):
        inside["kernel"] += 1
        try:
            return kernel(phi)
        finally:
            inside["kernel"] -= 1

    def marked_lift_level(src, n, i, target_res, k, psi):
        levels.append((src, n, i, target_res, k))
        before = calls["solves"]
        inside["lift"] += 1
        try:
            out = lift_level(src, n, i, target_res, k, psi)
        finally:
            inside["lift"] -= 1
        vertices = {gv for gv, _ in src.modules[n + k].generators}
        assert calls["solves"] - before == len(vertices)
        return out

    monkeypatch.setattr(linalg.Elimination, "__init__", counted_elimination)
    monkeypatch.setattr(linalg.Elimination, "solve", counted_solve)
    monkeypatch.setattr(ext, "_lift_level", marked_lift_level)
    for namespace in (modules, ext):
        monkeypatch.setattr(namespace, "kernel_module", marked_kernel)
    assert verify_graph(g, max_degree=max_degree).ok
    # the rows of one (map, vertex) block are one list object
    assert len({id(rows) for rows in blocks}) == len(blocks) == eliminations
    keys = [(id(src), n, i, id(t), k) for src, n, i, t, k in levels]
    assert len(set(keys)) == len(keys)
    assert calls == {"solves": solves, "in_kernel": 0, "outside_lifts": 0}


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


def _triangle_closure_in_degree_3() -> bool:
    """Whether every degree-3 class of the triangle lies in the subalgebra
    generated in degree 1, asked class by class over one set of walks."""
    g = triangle_graph()
    la = build_algebra(presentation.present(g))
    walks = {e: ext.ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
    return all(ext.element_in_span(walks, ext.ExtElement(res, 3, {i: la.field.one}), 1)
               for res in walks.values() for i in range(len(res.summands[3])))


@pytest.mark.parametrize("run", [
    lambda: verify_graph(triangle_graph(), max_degree=8).ok,
    lambda: verify_graph(cycle_graph(6), max_degree=8).ok,
    _triangle_closure_in_degree_3,
], ids=["triangle@8", "cycle6@8", "triangle_closure@3"])
def test_each_lift_level_solved_once(monkeypatch, run):
    """Every (resolution, degree, generator, target) lift is kept on its
    resolution, so each of its levels is solved once: per ``verify_graph``
    call by the certificates on the triangle and the cycle, and across the
    closure queries of all nine degree-3 classes of the triangle with
    generators of degree 1, which all lie in the span (the triangle is
    Koszul, so its Ext algebra is generated in degree 1)."""
    solved = []
    lift_level = ext._lift_level

    def recorded(src, n, i, target_res, k, psi):
        solved.append((src, n, i, target_res, k))
        return lift_level(src, n, i, target_res, k, psi)

    monkeypatch.setattr(ext, "_lift_level", recorded)
    assert run()
    assert solved
    assert len(solved) == len(set(solved))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("g, max_degree", [(triangle_graph(), 8), (cycle_graph(6), 8)],
                         ids=["triangle@8", "cycle6@8"])
def test_level_one_lifts_read_off_the_differential(monkeypatch, g, max_degree, field):
    """The right-hand side of each level-one lift is the differential's
    images cut to the lifted class's summand: it equals the differential
    composed with psi_0, built here as the identity of summand i onto the
    target's Q^0 and zero elsewhere, and the level solved from it closes
    the square psi_1 o f^1 = f^{n+1} o psi_0."""
    checked = []
    lift_level = ext._lift_level

    def checked_level(src, n, i, target_res, k, psi):
        out = lift_level(src, n, i, target_res, k, psi)
        if k == 1:
            assert psi is None
            q0 = target_res.modules[0]
            images = [{} for _ in src.modules[n].generators]
            images[i] = {q0.generators[0][1]: src.la.field.one}
            psi0 = modules.ModuleMap(src.modules[n], q0, images=images)
            rhs = src.maps[n + 1].compose(psi0).images
            assert ext._summand_part(src.maps[n + 1], i) == rhs
            assert out.compose(target_res.maps[1]).images == rhs
            checked.append(len(rhs))
        return out

    monkeypatch.setattr(ext, "_lift_level", checked_level)
    assert verify_graph(g, max_degree, field).ok
    assert checked and any(checked)


@pytest.mark.parametrize("g", [triangle_graph(), cycle_graph(6), cycle_graph(8, 2),
                               loop_graph(2)],
                         ids=["triangle", "cycle6", "cycle8_m2", "loop_m2"])
def test_one_chain_per_edge_per_call(monkeypatch, g):
    """The resolver and ``_check_certificates`` read every edge's
    resolution and certificates off one follows-chain per call."""
    chains = []
    chain_init = resolution._Chain.__init__

    def counted_init(self, g, e, n):
        chains.append(e)
        chain_init(self, g, e, n)

    monkeypatch.setattr(resolution._Chain, "__init__", counted_init)
    assert verify_graph(g, max_degree=4).ok
    assert sorted(chains) == sorted(g.edge_ids)


@pytest.mark.parametrize("g, max_degree, entries", [
    (cycle_graph(6), 8, 24),
    (loop_graph(2), 8, 4),
], ids=["cycle6@8", "loop_m2@8"])
def test_each_entry_built_once(monkeypatch, g, max_degree, entries):
    """Every differential entry is one arrow or one run at the vertex of a
    linking half-edge, so a call builds at most two entry paths per
    half-edge, one per direction, however many edges and degrees read them.
    Here every half-edge links in both directions."""
    calls = []
    arrow_run = resolution.arrow_run

    def counted(*args):
        calls.append(args[2:])
        return arrow_run(*args)

    monkeypatch.setattr(resolution, "arrow_run", counted)
    assert verify_graph(g, max_degree=max_degree).ok
    half_edges = sum(len(halves) for halves in g.rotation.values())
    assert len(calls) == entries == 2 * half_edges


@pytest.mark.parametrize("g, max_degree", [(cycle_graph(6), 8), (loop_graph(2), 8)],
                         ids=["cycle6@8", "loop_m2@8"])
def test_each_entry_normal_form_once(monkeypatch, g, max_degree):
    """``_path_images`` reads each entry path's normal form off the algebra
    of the call, which computes it once."""
    calls, entries = [], set()
    inside = [0]
    path_to_vec, path_images = FiniteDimAlgebra.path_to_vec, ext._path_images

    def counted(self, p):
        if inside[0]:
            calls.append(p)
        return path_to_vec(self, p)

    def marked(P, Q, differential):
        entries.update(path for _, path in differential.values())
        inside[0] += 1
        try:
            return path_images(P, Q, differential)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(FiniteDimAlgebra, "path_to_vec", counted)
    monkeypatch.setattr(ext, "_path_images", marked)
    assert verify_graph(g, max_degree=max_degree).ok
    assert calls
    assert len(calls) == len(set(calls)) == len(entries)


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

    def swapped_certificates(g, e, n_max, tables=None):
        return [{i: swapped(c) for i, c in level.items()}
                for level in edge_certificates(g, e, n_max, tables=tables)]

    monkeypatch.setattr(verify, "edge_certificates", swapped_certificates)
    g = cycle_graph(4)
    rep = verify_graph(g, max_degree=3)
    assert rep.entries and {e["check"] for e in rep.entries} == {"certificate"}
    path = tmp_path / "square.bg.json"
    path.write_text(json.dumps(to_dict(g)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", "--max", "3", "--input", str(path)]) == cli.EXIT_MISMATCH


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["q", "f2", "f3"])
def test_single_edge_minimal_generators_checked(monkeypatch, field):
    """The minimal-generator check runs on the single edge too: the square
    of its loop is essential, so a generating set that drops it is a
    ``minimal-generators`` diff (and, with no relation left, a
    ``classification`` one)."""
    assert verify_graph(path_graph(2), 3, field).ok
    minimal_relations = presentation.minimal_relations

    def dropped(g, rels):
        return [r for r in minimal_relations(g, rels) if r.kind != "two"]

    monkeypatch.setattr(presentation, "minimal_relations", dropped)
    rep = verify_graph(path_graph(2), 3, field)
    assert [e["check"] for e in rep.entries] == ["minimal-generators", "classification"]
    assert rep.entries[0]["detail"] == ("relation 0 at edge e1: combinatorics drops "
                                        "it but the oracle says essential")


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


def test_meeting_table_built_only_by_the_string_calculus(monkeypatch):
    """The graph's meeting table is built at most once per graph, and only
    by the string calculus: over census(3,2), ``verify_graph`` builds it on
    exactly the graphs whose simples' syzygies are strings, never outside
    ``Regimes.strings``."""
    built = Counter()
    build = BrauerGraph._meetings.func

    def counted(self):
        built[id(self)] += 1
        return build(self)

    monkeypatch.setattr(BrauerGraph._meetings, "func", counted)
    graphs = list(census(3, 2))
    for g in graphs:
        assert verify_graph(g, max_degree=3).ok
    assert len(built) == 4  # the reduced graphs but the single edge
    assert {id(g) for g in graphs if g.regimes.syzygies} == set(built)
    assert set(built.values()) == {1}


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

        def resolve(g, e, n, tables=None):
            return [drop_one(s) if s.degree == 1 else s
                    for s in resolver(g, e, n, tables=tables)]
        return None if resolver is None else resolve

    monkeypatch.setattr(verify, "explicit_resolver", dropped)
    for g in (cycle_graph(4), triangle_graph(), cycle_graph(3)):
        checks = {e["check"] for e in verify_graph(g, max_degree=3).entries}
        assert {"exactness", "certificate"} <= checks, checks
    path = tmp_path / "square.bg.json"
    path.write_text(json.dumps(to_dict(cycle_graph(4))))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", "--max", "3", "--input", str(path)]) == cli.EXIT_MISMATCH
