import json
from collections import Counter
from pathlib import Path

import pytest

from brauergraph.census import census
from brauergraph.graph import (
    BrauerGraphError,
    HypothesisError,
    cycle_graph,
    loop_graph,
    triangle_graph,
)
from brauergraph.oracle.algebra import build_algebra
from brauergraph.oracle.ext import ExtElement, ProjResolution, element_in_span
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.presentation import present
from brauergraph.resolution import (
    CanonicalExtElement,
    Tables,
    delta,
    edge_certificates,
    explicit_resolver,
    ext_dim,
    generation_certificate,
    generation_degrees,
    obstruction_element,
    resolve_simple,
    resolve_simple_2d,
)


def test_unknown_edge_refused(triangle):
    """The resolvers and the certificates refuse an edge the graph lacks,
    even where degree zero would need no walk."""
    for call in (lambda: resolve_simple(triangle, "zz", 0),
                 lambda: resolve_simple_2d(cycle_graph(3, 2), "zz", 0),
                 lambda: edge_certificates(triangle, "zz", 0)):
        with pytest.raises(BrauerGraphError, match="unknown edge 'zz'"):
            call()


def test_tables_of_another_graph_refused(triangle):
    """The resolvers and the certificates read the tables they are given
    only when those are the graph's own; another graph's are refused, not
    rebuilt."""
    g = cycle_graph(3, 2)
    for call in (lambda t: resolve_simple(triangle, "e1", 2, tables=t),
                 lambda t: resolve_simple_2d(g, "e1", 2, tables=t),
                 lambda t: edge_certificates(triangle, "e1", 2, tables=t)):
        with pytest.raises(ValueError, match="another graph"):
            call(Tables(triangle_graph()))


def test_resolve_triangle_first_steps(triangle):
    steps = resolve_simple(triangle, "e1", 3)
    q1 = steps[1]
    assert q1.summands == ((-1, "e3"), (1, "e2"))
    assert [a.name for a in q1.differential[(0, 0)][1].arrows] == ["a(e1,e3)"]
    assert [a.name for a in q1.differential[(0, 1)][1].arrows] == ["a(e1,e2)"]
    assert steps[2].summands == ((-2, "e2"), (0, "e1"), (2, "e3"))
    assert [e for _, e in steps[3].summands] == ["e1", "e3", "e2", "e1"]
    # diagonal signs alternate with the parity of the degree
    assert steps[2].differential[(0, 0)][0] == -1
    assert steps[3].differential[(0, 0)][0] == 1


def test_resolve_summand_count(triangle):
    steps = resolve_simple(triangle, "e1", 6)
    for n, s in enumerate(steps):
        assert len(s.summands) == n + 1


def test_resolve_rejections(a4, triangle, star3_m2):
    with pytest.raises(HypothesisError):
        resolve_simple(a4, "e2", 3)  # truncated edges present
    with pytest.raises(HypothesisError):
        resolve_simple(star3_m2, "e1", 3)  # not reduced
    with pytest.raises(HypothesisError):
        resolve_simple_2d(triangle, "e1", 3)  # degree would be quadratic
    with pytest.raises(HypothesisError):
        resolve_simple_2d(a4, "e1", 3)


def test_resolve_2d_entries(triangle_m2):
    steps = resolve_simple_2d(triangle_m2, "e1", 3)
    f1 = steps[1].differential
    assert all(p.length == 1 for _, p in f1.values())
    f2 = steps[2].differential
    lengths = sorted(p.length for _, p in f2.values())
    assert lengths == [1, 1, 3, 3]  # arrows and length-three runs
    # odd degree: middle row carries the two plain arrows of the start edge
    f3 = steps[3].differential
    assert [a.name for a in f3[(1, 1)][1].arrows] == ["a(e1,e3)"]
    assert [a.name for a in f3[(1, 2)][1].arrows] == ["a(e1,e2)"]


def test_ext_dim(triangle, a4):
    assert ext_dim(triangle, "e1", "e1", 3) == 2
    assert ext_dim(triangle, "e1", "e2", 3) == 1
    assert ext_dim(triangle, "e1", "e1", 0) == 1
    assert ext_dim(a4, "e1", "e3", 3) == 1
    for n in range(7):
        assert sum(ext_dim(triangle, "e1", t, n) for t in triangle.edge_ids) == n + 1
    for s, t in [("nope", "e1"), ("e1", "nope")]:
        for n in (0, 2):
            with pytest.raises(BrauerGraphError, match="unknown edge 'nope'"):
                ext_dim(triangle, s, t, n)


def test_delta():
    assert delta(0, 4) == 0 and delta(1, 4) == 1
    assert delta(2, 4) == 4 and delta(3, 4) == 5
    assert delta(2, 7) == 7 and delta(3, 7) == 8 and delta(4, 7) == 14


def test_generation_degrees(triangle, triangle_m2):
    assert generation_degrees(triangle, "e1", 3) == [3]  # quadratic: linear
    assert generation_degrees(triangle_m2, "e1", 3) == [3, 5]
    assert generation_degrees(triangle_m2, "e1", 4) == [4, 6, 8]
    assert max(generation_degrees(triangle_m2, "e1", 4)) == delta(4, 4)
    with pytest.raises(BrauerGraphError, match="unknown edge 'zz'"):
        generation_degrees(triangle, "zz", 3)


def test_certificates(triangle):
    cert = generation_certificate(
        triangle, CanonicalExtElement("e1", 2, 2, "e3")
    )
    left, right = cert.factors
    assert left.element.degree == 1 and left.element.position == 1
    assert right.element.degree == 1
    assert right.element.source == "e2" and right.element.target == "e3"

    leaf = generation_certificate(triangle, CanonicalExtElement("e1", 1, -1, "e3"))
    assert leaf.is_leaf

    chain = generation_certificate(triangle, CanonicalExtElement("e1", 4, 0, "e1"))
    assert [l.degree for l in chain.leaves()] == [2, 2]

    odd = generation_certificate(triangle, CanonicalExtElement("e1", 3, 1, "e2"))
    left, right = (f.element for f in odd.factors)
    assert (left.degree, left.position) == (2, 0)
    assert (right.degree, right.position) == (1, 1)
    assert left.source == right.source == "e1"
    assert all(l.degree <= 2 for l in odd.leaves())


def test_certificate_leaves_degree_bound(triangle, triangle_m2):
    from brauergraph.resolution import _Chain

    for g in (triangle, triangle_m2):
        for e in g.edge_ids:
            chain = _Chain(g, e, 5)
            for n in range(1, 6):
                for i in range(-n, n + 1, 2):
                    cert = generation_certificate(
                        g, CanonicalExtElement(e, n, i, chain.edge[i])
                    )
                    # only position zero is a genuine degree-two generator
                    assert all(l.degree == 1 or (l.degree == 2 and l.position == 0)
                               for l in cert.leaves())


def test_obstruction(triangle, a4, a3):
    assert obstruction_element(triangle) is None
    assert obstruction_element(a3) is None  # all edges truncated
    witness = obstruction_element(a4)
    assert witness is not None
    assert witness["chain"] == ["e1", "e2", "e3"]
    assert witness["ext_degree"] == 3
    from conftest import pendant_triangle

    w2 = obstruction_element(pendant_triangle())
    assert w2 is not None and w2["chain"][0] == "e4" and w2["chain"][-1] == "e4"


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_walks_end_at_the_first_simple_syzygy(field):
    """On every graph of census(4,2), multiplicities, loops and multiple
    edges included, the walk of L edges from a truncated edge s (the single
    edge aside) ends at the edge t with Omega^L(S_s) = S_t, and no earlier
    syzygy of S_s is simple: 82 such edges lie in census(3,2), 596 in all."""
    checked = Counter()
    for g in census(4, 2):
        if g.regimes.single_edge or not g.regimes.truncated:
            continue
        la = build_algebra(present(g), field)
        for s in g.edge_ids:
            if not g.edge_is_truncated(s):
                continue
            walk = g.brauer_walk(s)
            n = len(walk.edges)
            syzygies = ProjResolution.from_oracle(la, s, n - 1).syzygies
            assert [k for k in range(1, n + 1) if syzygies[k].total_dim == 1] == [n]
            assert dict(syzygies[n].top()) == {walk.edges[-1]: 1}, (g.edge_ends, s)
            checked[len(g.edge_ids) <= 3] += 1
    assert (checked[True], checked.total()) == (82, 596)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_witness_is_a_new_generator(field):
    """On every mixed graph of census(3,2), multiplicities, loops and
    multiple edges included, the obstruction witness names a walk of L >= 3
    edges from s to t, and the class of Ext^L(S_s, S_t) it names lies
    outside the subalgebra generated in degrees below L."""
    checked = 0
    for g in census(3, 2):
        witness = obstruction_element(g)
        if not g.regimes.mixed:
            assert witness is None
            continue
        n, s, t = witness["ext_degree"], witness["from"], witness["to"]
        assert witness["chain"] == list(g.brauer_walk(s).edges) and n >= 3
        la = build_algebra(present(g), field)
        walks = {e: ProjResolution.from_oracle(la, e, n) for e in g.edge_ids}
        (i,) = [i for i, (e, _, _) in enumerate(walks[s].summands[n]) if e == t]
        assert not element_in_span(walks, ExtElement(walks[s], n, {i: field.one}), n - 1)
        checked += 1
    assert checked == 56


def test_resolution_json_roundtrip(triangle):
    steps = resolve_simple(triangle, "e1", 2)
    doc = steps[2].to_json()
    assert doc["degree"] == 2
    assert [s[:2] for s in doc["summands"]] == [[-2, "e2"], [0, "e1"], [2, "e3"]]
    assert all(set(x) == {"row", "col", "sign", "path"} for x in doc["differential"])


def test_two_cycle_multiplicity_family():
    g = cycle_graph(2, 2)
    steps = resolve_simple_2d(g, "e1", 4)
    la = build_algebra(present(g))
    res = ProjResolution.from_steps(la, "e1", steps)
    assert res.complex_is_zero() == []
    assert res.exactness_defects(3) == []


DEEP = json.loads(Path(__file__).with_name("resolutions_deep.json").read_text())
DEEP_GRAPHS = {"triangle": triangle_graph, "cycle6": lambda: cycle_graph(6),
               "cycle8_m2": lambda: cycle_graph(8, 2), "loop_m2": lambda: loop_graph(2),
               "two_cycle_m2": lambda: cycle_graph(2, 2)}


@pytest.mark.parametrize("case", sorted(DEEP))
def test_deep_resolutions_pinned(case):
    """Every simple's resolution, well past the golden CLI's degree 4,
    equals the record in ``resolutions_deep.json``, step by step."""
    name, n = case.split("@")
    g = DEEP_GRAPHS[name]()
    resolver = explicit_resolver(g)
    assert sorted(DEEP[case]) == sorted(g.edge_ids)
    for e, want in DEEP[case].items():
        assert [s.to_json() for s in resolver(g, e, int(n))] == want, (case, e)
    # the same off one shared table, as ``verify_graph`` reads them
    tables = Tables(g, present(g).quiver)
    inside = {e: [s.to_json() for s in resolver(g, e, int(n), tables=tables)]
              for e in g.edge_ids}
    assert inside == DEEP[case]
