import time
from fractions import Fraction

from brauergraph.graph import (
    from_dict,
    loop_graph,
    path_graph,
    star_graph,
    to_dict,
    triangle_graph,
)
from brauergraph.oracle.algebra import expected_projective_dims
from brauergraph.presentation import (
    Path,
    _power,
    arrow_run,
    build_quiver,
    cycle_half,
    homogeneity,
    identity_path,
    present,
    quiver_to_dot,
    relation_to_dict,
    relations_all,
)


def test_quiver_a2_is_loop(a2):
    q = build_quiver(a2)
    assert a2.regimes.single_edge
    assert len(q.vertices) == 1 and len(q.arrows) == 1
    assert q.arrows[0].source == q.arrows[0].target == "e1"


def test_quiver_triangle(triangle):
    q = build_quiver(triangle)
    assert len(q.vertices) == 3 and len(q.arrows) == 6


def test_quiver_a4(a4):
    q = build_quiver(a4)
    assert len(q.vertices) == 3 and len(q.arrows) == 4
    assert not any(a.source == "e1" and a.vertex == "v1" for a in q.arrows)


def test_cycle_and_arrow_run(triangle):
    q = build_quiver(triangle)
    c = cycle_half(triangle, q, triangle.half_at("e1", "alpha"))
    assert c.length == 2 and c.source == c.target == "e1"
    assert [a.name for a in c.arrows] == ["a(e1,e3)", "a(e3,e1)"]
    st = star_graph(3)
    qs = build_quiver(st)
    _, pos = st.position(st.half_at("e1", "c"))
    p = arrow_run(st, qs, "c", pos, 2)
    assert p.source == "e1" and p.target == "e3"
    assert [a.name for a in p.arrows] == ["a(e1,e2)", "a(e2,e3)"]
    assert arrow_run(st, qs, "c", pos, 0) == Path("e1", "e1", ())


def test_relations_a3(a3):
    rels = relations_all(a3)
    kinds = sorted(r.kind for r in rels)
    assert kinds == ["two", "two"]
    assert all(r.lengths() == (3,) for r in rels)


def test_relations_triangle(triangle):
    rels = relations_all(triangle)
    ones = [r for r in rels if r.kind == "one"]
    threes = [r for r in rels if r.kind == "three"]
    assert len(ones) == 3 and len(threes) == 6
    assert all(r.lengths() == (2, 2) for r in ones)
    # orientation: the first term is the cycle at ends[0], coefficient +1
    r = next(r for r in ones if r.edge == "e1")
    assert r.terms[0][0] == Fraction(1) and r.terms[1][0] == Fraction(-1)
    assert r.vertices == ("alpha", "beta")


def test_relations_loop(triangle):
    rels = relations_all(loop_graph())
    ones = [r for r in rels if r.kind == "one"]
    threes = [r for r in rels if r.kind == "three"]
    assert len(ones) == 1 and len(threes) == 2
    words = {tuple(a.name for a in r.terms[0][1].arrows) for r in threes}
    assert all(w[0] == w[1] for w in words)  # the two squares


def test_minimal_relations(a3, a4, star3_m2):
    p3 = present(a3)
    assert [r.kind for r in p3.minimal_relations] == ["two", "two"]
    assert all(r.lengths() == (3,) for r in p3.minimal_relations)

    p4 = present(a4)
    assert all(r.kind != "two" for r in p4.minimal_relations)
    assert {r.kind for r in p4.minimal_relations} == {"one", "three"}

    ps = present(star3_m2)
    assert [r.kind for r in ps.minimal_relations] == ["two", "two", "two"]
    assert all(r.lengths() == (7,) for r in ps.minimal_relations)


def test_homogeneity_examples(triangle, a4, star3_m2, triangle_m2, a2):
    assert homogeneity(triangle).kind == "Quadratic"
    assert homogeneity(a4).kind == "Quadratic"
    assert homogeneity(a2).kind == "Quadratic"
    h = homogeneity(star3_m2)
    assert (h.kind, h.d) == ("DHomogeneous", 7)
    h2 = homogeneity(triangle_m2)
    assert (h2.kind, h2.d) == ("TwoDHomogeneous", 4)
    hin = homogeneity(path_graph(3, [1, 2, 1]))
    assert hin.kind == "DHomogeneous" and hin.d == 5


def test_inhomogeneous():
    from conftest import pendant_triangle

    assert homogeneity(pendant_triangle()).kind == "Inhomogeneous"


def test_a2_special_case(a2):
    pres = present(a2)
    assert a2.regimes.single_edge
    (rel,) = pres.all_relations
    assert rel.kind == "two" and rel.lengths() == (2,)
    assert pres.minimal_relations == pres.all_relations
    assert expected_projective_dims(a2) == {"e1": 2}


def test_dot_and_json(triangle):
    pres = present(triangle)
    dot = quiver_to_dot(pres.quiver)
    assert dot.startswith("digraph") and dot.count("->") == 6
    doc = relation_to_dict(pres.all_relations[0])
    assert doc["kind"] == "one"
    assert doc["coefficients"] == ["1", "-1"]
    assert all(isinstance(p, list) for p in doc["paths"])


def test_power_is_the_k_fold_product(triangle):
    q = build_quiver(triangle)
    c = cycle_half(triangle, q, triangle.half_at("e1", "alpha"))
    product = identity_path(c.source)
    for k in range(5):
        assert _power(c, k) == product
        product = product * c


def test_present_is_linear_in_the_multiplicity():
    """At multiplicity 200,000 the cycle power around alpha has 400,000
    arrows; it is built as one tuple, not one product per factor."""
    doc = to_dict(triangle_graph())
    assert doc["vertices"][0]["id"] == "alpha"
    doc["vertices"][0]["multiplicity"] = 200_000
    g = from_dict(doc)
    start = time.perf_counter()
    pres = present(g)
    assert time.perf_counter() - start < 5.0
    ones = {r.edge: r.lengths() for r in pres.all_relations if r.kind == "one"}
    assert ones == {"e1": (400_000, 2), "e2": (2, 2), "e3": (2, 400_000)}
