import copy
import functools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauergraph.census import census
from brauergraph.classify import koszul_report
from brauergraph.graph import (
    cycle_graph,
    loop_graph,
    path_graph,
    star_graph,
    triangle_graph,
)
from brauergraph.oracle import algebra, ext, linalg
from brauergraph.oracle.algebra import (
    OracleSizeError,
    build_algebra,
    build_algebra_naive,
    expected_projective_dims,
    is_redundant_relation,
)
from brauergraph.oracle.ext import (
    ExtElement,
    ProjResolution,
    canonical_element,
    element_in_span,
    full_ext_dims,
    generated_subalgebra_dims,
    lift_through,
    yoneda_multiply,
)
from brauergraph.oracle.fields import QQ, PrimeField, field_from_spec
from brauergraph.oracle.modules import (
    ModuleMap,
    ProjectiveSum,
    kernel_module,
    map_from_generators,
    _times,
    min_resolution,
    projective_cover,
)
from brauergraph.oracle.verify import DiffReport, _check_certificates, _flip
from brauergraph.presentation import Arrow, Presentation, Relation, present
from brauergraph.resolution import Tables, explicit_resolver, resolve_simple
from brauergraph.strings import iterate_syzygy, realize
from conftest import desk_graphs, pendant_triangle, reduced_desk_graphs


def test_linalg_basics():
    f = QQ
    m = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    assert linalg.rank(m, f) == 1
    k = linalg.Elimination(m, f).kernel
    assert len(k) == 1
    v = k[0]
    assert v.get(0, 0) * 1 + v.get(1, 0) * 2 == 0
    sol = linalg.solve_left([{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}],
                            [{0: Fraction(3), 1: Fraction(2)}], f)
    assert sol == [{0: Fraction(1), 1: Fraction(2)}]
    assert linalg.solve_left([{}], [{0: Fraction(1)}], f) is None


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _is_canonical_rational(x) -> bool:
    """An int when integral, a Fraction only when genuinely fractional."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _zeros(nrows, ncols, f):
    return [[f.zero] * ncols for _ in range(nrows)]


def _mat_mul(a, b, f):
    """The dense product a * b; a b with no rows has width 0."""
    out = _zeros(len(a), len(b[0]) if b else 0, f)
    for row, arow in zip(out, a):
        for x, brow in zip(arow, b, strict=True):
            for j, y in enumerate(brow):
                row[j] = f.add(row[j], f.mul(x, y))
    return out


def _dense_row(row, n, f):
    """The sparse row ``row`` written out as a dense row of width n."""
    out = [f.zero] * n
    for j, x in row.items():
        out[j] = x
    return out


def _dense_action(mod, a):
    """The action of the arrow ``a`` on ``mod``, its sparse rows written out
    as a dense source.dim x target.dim matrix."""
    m = _zeros(mod.dim(a.source), mod.dim(a.target), mod.la.field)
    for i, row in enumerate(mod.action[a.name]):
        for j, x in row.items():
            m[i][j] = x
    return m


def _dense_block(phi, v):
    """The block of ``phi`` at the vertex v, its sparse rows written out as a
    dense source.dim(v) x target.dim(v) matrix."""
    m = _zeros(len(phi.blocks[v]), phi.target.dim(v), phi.source.la.field)
    for i, row in enumerate(phi.blocks[v]):
        for j, x in row.items():
            m[i][j] = x
    return m


@given(small_fractions, small_fractions)
def test_rationals_match_fraction_arithmetic(a, b):
    x, y = QQ.from_fraction(a), QQ.from_fraction(b)
    expected = [(x, a), (y, b), (QQ.add(x, y), a + b), (QQ.sub(x, y), a - b),
                (QQ.mul(x, y), a * b), (QQ.neg(x), -a)]
    if a:
        expected.append((QQ.inv(x), 1 / a))
    for got, want in expected:
        assert got == want
        assert _is_canonical_rational(got), (got, want)
    assert QQ.is_zero(x) == (a == 0)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool))
def test_rationals_inverse_of_int_is_exact(n):
    inv = QQ.inv(n)
    assert type(inv) is not float
    assert _is_canonical_rational(inv)
    assert inv == Fraction(1, n)
    assert QQ.mul(inv, n) == 1 and type(QQ.mul(inv, n)) is int


def test_rationals_units_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_oracle_entries_over_q_are_exact(name, g):
    """No float, and no integral Fraction, in any matrix of an oracle
    resolution or of a lifted chain map over Q up to degree 3."""
    la = build_algebra(present(g), QQ)
    walks = {e: ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
    matrices = []
    for res in walks.values():
        for mod in [*res.modules, *res.syzygies]:
            matrices.extend(_dense_action(mod, a) for a in la.quiver.arrows)
        for phi in res.maps[1:]:
            matrices.extend(_dense_block(phi, v) for v in phi.blocks)
        for n in range(3):
            for i, (t, _, _) in enumerate(res.summands[n]):
                for m in range(3 - n + 1):
                    psi = lift_through(res, n, i, walks[t], m)
                    matrices.extend(_dense_block(psi, v) for v in psi.blocks)
    assert all(_is_canonical_rational(x) for m in matrices for row in m for x in row)


@settings(max_examples=200)
@given(st.data())
def test_solve_left_many_rows_matches_one_at_a_time(data):
    """One reduction with every right-hand side gives the solutions each
    would get alone, and None as soon as one of them is inconsistent."""
    f = PrimeField(3)
    nrows, ncols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    rows = st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols)
    a = data.draw(st.lists(rows, min_size=nrows, max_size=nrows))
    bs = data.draw(st.lists(rows, max_size=4))
    sparse = [{j: x for j, x in enumerate(row) if x} for row in a]
    sparse_bs = [{j: x for j, x in enumerate(b) if x} for b in bs]
    alone = [linalg.solve_left(sparse, [b], f) for b in sparse_bs]
    got = linalg.solve_left(sparse, sparse_bs, f)
    if any(sol is None for sol in alone):
        assert got is None
        return
    assert got == [sol[0] for sol in alone]
    for v, b in zip(got, bs):
        assert set(v) <= set(range(len(a)))
        v = _dense_row(v, len(a), f)
        assert [sum(v[i] * a[i][j] for i in range(len(a))) % 3 for j in range(ncols)] == b


def test_solve_left_edge_cases():
    f = QQ
    a = [{0: 1}, {0: 1, 1: 1}]
    assert linalg.solve_left(a, [{0: 3, 1: 2}, {1: 1}, {}], f) == [
        {0: 1, 1: 2}, {0: -1, 1: 1}, {}]
    assert linalg.solve_left([{1: 1}], [{1: 1}, {0: 1}], f) is None
    assert linalg.solve_left(a, [], f) == []
    # no rows: only zero right-hand sides are reached, by the empty vector
    assert linalg.solve_left([], [{}, {}], f) == [{}, {}]
    assert linalg.solve_left([], [{}, {1: 1}], f) is None


def test_sparse_reducer():
    r = linalg.SparseReducer(QQ)
    assert r.add({"a": Fraction(1), "b": Fraction(1)})
    assert r.add({"b": Fraction(1)})
    assert not r.add({"a": Fraction(2)})
    assert r.contains({"a": Fraction(5), "b": Fraction(-3)})
    assert not r.contains({"c": Fraction(1)})


def test_dimensions_match_formula_and_naive():
    for name, g in desk_graphs():
        pres = present(g)
        la = build_algebra(pres)
        expected = expected_projective_dims(g)
        got = {v: len(la.basis_by_source[v]) for v in la.quiver.vertices}
        assert got == expected, name
        naive = build_algebra_naive(pres)
        assert naive["dims_by_edge"] == expected, name


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_normal_forms_pivot_on_the_longest_word(name, g, field):
    """The normal form of every allowed word uses only basis words at most
    it in ``_column_key`` order: each reduced translate of a relation
    pivots on its longest word."""
    la = build_algebra(present(g), field)
    key = la._column_key
    for w in la.allowed:
        assert all(key(la.basis[i]) <= key(w) for i in la.word_to_vec(*w)), w


def test_specific_dimensions(a2, triangle, a4):
    assert build_algebra(present(a2)).dim == 2
    assert build_algebra(present(triangle)).dim == 12
    assert build_algebra(present(a4)).dim == 10


def test_prime_field_agreement(triangle, a4):
    for g in (triangle, a4):
        pres = present(g)
        dim_q = build_algebra(pres, QQ).dim
        for p in (2, 5):
            assert build_algebra(pres, PrimeField(p)).dim == dim_q


def test_field_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("fp:7").p == 7
    with pytest.raises(ValueError):
        field_from_spec("fp:6")
    with pytest.raises(ValueError):
        field_from_spec("r")


def test_associativity_and_selfinjectivity(triangle):
    la = build_algebra(present(triangle))
    assert la.check_associativity()
    for e in triangle.edge_ids:
        P = ProjectiveSum(la, [(e, 0)])
        assert dict(P.top()) == {e: 1}
        assert dict(P.socle()) == {e: 1}


def _override_products(la) -> dict:
    """A table of products b_i b_j, keyed by (i, j), that ``la.mult``
    returns in place of its own: the instance attribute shadows the method,
    so every reader of ``mult`` sees the table.  The algebra's own products
    are kept, as the brute-force loop reads each of them many times."""
    table: dict = {}
    mult = functools.cache(la.mult)
    la.mult = lambda i, j: table[i, j] if (i, j) in table else mult(i, j)
    return table


def _associative_brute_force(la) -> bool:
    """(b_i b_j) b_k == b_i (b_j b_k) over every triple of basis words."""
    f = la.field

    def times(vec, k, left):
        out = {}
        for t, c in vec.items():
            for u, d in (la.mult(t, k) if left else la.mult(k, t)).items():
                out[u] = f.add(out.get(u, f.zero), f.mul(c, d))
        return {u: c for u, c in out.items() if not f.is_zero(c)}

    return all(
        times(la.mult(i, j), k, True) == times(la.mult(j, k), i, False)
        for i in range(la.dim) for j in range(la.dim) for k in range(la.dim)
    )


@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_associativity_over_composable_triples(name, g):
    """The composable-triple check agrees with the full triple loop on the
    algebra, and again after any one nonzero structure constant b_i b_j is
    corrupted (doubled, over Q); some of those corruptions are caught."""
    la = build_algebra(present(g))
    assert la.dim <= 40
    assert la.check_associativity() and _associative_brute_force(la)
    products = _override_products(la)
    caught = 0
    for i in range(la.dim):
        for j in range(la.dim):
            kept = la.mult(i, j)
            if not kept:
                continue
            products[i, j] = {u: 2 * c for u, c in kept.items()}
            verdict = la.check_associativity()
            assert verdict == _associative_brute_force(la), (i, j)
            caught += not verdict
            del products[i, j]
    assert caught


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_associativity_under_unit_product_corruption(name, g, field):
    """One product b_i b_j = b_t replaced by another basis word with the same
    ends or by zero, which keeps it on the unit-index path, or by -b_t, which
    takes it off the path so that triples mix a tabulated side with one
    multiplied out.  The verdict equals the full triple loop every time."""
    la = build_algebra(present(g), field)
    products = _override_products(la)
    ends = [(w[0], la.word_target(w)) for w in la.basis]
    verdicts = Counter()
    for i in range(la.dim):
        for j in la.basis_by_source[ends[i][1]]:
            kept = la.mult(i, j)
            if len(kept) != 1 or list(kept.values()) != [field.one]:
                continue
            (t,) = kept
            kinds = [("swap", {u: field.one}) for u in range(la.dim)
                     if u != t and ends[u] == ends[t]]
            kinds += [("zero", {}), ("sign", {t: field.neg(field.one)})]
            for kind, corrupt in kinds:
                products[i, j] = corrupt
                verdict = la.check_associativity()
                assert verdict == _associative_brute_force(la), (i, j, corrupt)
                verdicts[kind, verdict] += 1
            del products[i, j]
    assert verdicts["zero", False]  # some zero product is caught
    assert verdicts["swap", False] or not verdicts["swap", True]  # so is a swap, if any was tried
    assert verdicts["sign", False]  # and a sign flip


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_associativity_when_only_nonzero_words_differ(field):
    """A table whose failing triples all have two different nonzero words on
    the two sides.  The loop's algebra with every product of two radical
    words set to zero is associative, and its three radical words x, y, s
    then have the same zero products.  Exchanging two of them under the
    idempotent's left action keeps every zero where it was, but
    (e e) u = v differs from e (e u) = u."""
    la = build_algebra(present(loop_graph()), field)
    e = la.basis.index(("e1", ()))
    radical = [w for w in range(la.dim) if w != e]
    table = {(i, j): {} for i in range(la.dim) for j in range(la.dim)}
    for w in range(la.dim):
        table[e, w] = table[w, e] = {w: field.one}
    products = _override_products(la)
    products.update(table)
    assert la.check_associativity() and _associative_brute_force(la)
    for u in radical:
        for v in radical:
            if u < v:
                products[e, u], products[e, v] = table[e, v], table[e, u]
                assert not _associative_brute_force(la)
                assert not la.check_associativity(), (u, v)
                products.update(table)


def test_graded_normal_forms(triangle, star3_m2):
    for g in (triangle, star3_m2):
        la = build_algebra(present(g))
        assert la.graded
        # all normal forms are plain words, hence length homogeneous
        assert all(isinstance(w[1], tuple) for w in la.basis)


def test_size_guard(triangle, monkeypatch):
    """The cap bounds the words times their length bound, 3 on the
    triangle: a cap of 3 admits one word, and 9 admits the vertex words."""
    monkeypatch.setattr(algebra, "SIZE_CAP", 3)
    with pytest.raises(OracleSizeError, match="more than 1 words of length at most 3"):
        build_algebra(present(triangle))
    monkeypatch.setattr(algebra, "SIZE_CAP", 9)
    with pytest.raises(OracleSizeError, match="more than 3 words"):
        build_algebra(present(triangle))


def _allowed_words(pres, relations) -> list:
    """Every composable path of length at most the truncation length, shortest
    first, kept when no subword is a monomial relation."""
    q = pres.quiver
    maxlen = pres.graph.nilpotency_bound() + 1
    monomials = {tuple(q.index_at[a.vertex, a.pos] for a in r.terms[0][1].arrows)
                 for r in relations if len(r.terms) == 1}
    paths = [(v, ()) for v in q.vertices]
    frontier = list(paths)
    for _ in range(maxlen):
        frontier = [(src, arrows + (q.index_at[a.vertex, a.pos],))
                    for src, arrows in frontier
                    for a in q.arrows_from[q.arrows[arrows[-1]].target if arrows else src]]
        paths += frontier
    return [(src, arrows) for src, arrows in paths
            if not any(arrows[i:j] in monomials
                       for i in range(len(arrows)) for j in range(i + 1, len(arrows) + 1))]


@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_allowed_words_have_no_monomial_subword(name, g):
    """The words are exactly the paths with no monomial relation as a
    subword, also with any one relation dropped."""
    pres = present(g)
    rels = pres.all_relations
    for drop in [None, *range(len(rels))]:
        kept = [r for i, r in enumerate(rels) if i != drop]
        assert build_algebra(pres, relations=kept).allowed == _allowed_words(pres, kept), drop


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_every_relation_holds(field):
    """Each relation's normal form is zero in the algebra of all of them,
    two-term relations included, whose terms cancel only with their
    coefficients."""
    for name, g in desk_graphs():
        pres = present(g)
        la = build_algebra(pres, field)
        assert all(la.relation_holds(r) for r in pres.all_relations), name


def test_redundancy(a4, a3, triangle):
    p4, p3, pt = present(a4), present(a3), present(triangle)
    # the triangle has no kind-two relation, and each of its nine is essential
    assert len(pt.all_relations) == 9
    assert {r.kind for r in pt.all_relations} == {"one", "three"}
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for i, r in enumerate(p4.all_relations):
            if r.kind == "two":
                assert is_redundant_relation(p4, i, field)
        for i, r in enumerate(p3.all_relations):
            if r.kind == "two":
                assert not is_redundant_relation(p3, i, field)
        assert not any(is_redundant_relation(pt, i, field) for i in range(9)), field


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["Q", "F2", "F3"])
def test_kind_two_verdicts_match_the_reference(field):
    """The algebra's verdict on each kind-two relation, read off its shared
    elimination, equals ``is_redundant_relation``, which builds the algebra
    of the other relations: over census(3,2) and the desk graphs, and over
    the desk graphs with any one relation dropped, where some translates
    have entries both on allowed and on tagged words."""
    seen = Counter()
    for g in census(3, 2):
        pres = present(g)
        verdicts = build_algebra(pres, field).redundant
        assert set(verdicts) == {i for i, r in enumerate(pres.all_relations)
                                 if r.kind == "two"}
        for i, redundant in verdicts.items():
            assert redundant == is_redundant_relation(pres, i, field), (g, i)
            seen[redundant] += 1
    # 62 redundant; 20 essential, and the square of the single-edge graph's loop
    assert seen == {True: 62, False: 21}
    for name, g in desk_graphs():
        pres = present(g)
        for drop in [None, *range(len(pres.all_relations))]:
            kept = [r for i, r in enumerate(pres.all_relations) if i != drop]
            sub = Presentation(g, pres.quiver, kept, kept)
            for i, redundant in build_algebra(pres, field, kept).redundant.items():
                assert redundant == is_redundant_relation(sub, i, field), (name, drop, i)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["Q", "F2", "F3"])
def test_verdict_on_a_translate_with_two_tags(field):
    """The triangle's relations with both monomials of the commutation
    relation at e1 added as kind-two relations: that relation's own
    translate has entries on two words with different tags.  Without either
    monomial the other one and the commutation relation kill it, so both
    are redundant; a verdict that kept the other tag's entry in its rows
    would call them essential."""
    g = triangle_graph()
    pres = present(g)
    (comm,) = [r for r in pres.all_relations if r.kind == "one" and r.edge == "e1"]
    monomials = [Relation("two", "e1", comm.vertices, ((Fraction(1), p),))
                 for _, p in comm.terms]
    relations = [*pres.all_relations, *monomials]
    sub = Presentation(g, pres.quiver, relations, relations)
    la = build_algebra(pres, field, relations)
    tagged = {len(pres.all_relations), len(pres.all_relations) + 1}
    assert set(la.redundant) == tagged
    for k in tagged:
        assert is_redundant_relation(sub, k, field), k
        assert la.redundant[k], k


def _exhaustive_normal_forms(la) -> tuple[list, dict]:
    """The basis, and the normal form of every allowed word, of the row
    reduction of every translate u*r*v of a two-term relation r with u and
    v allowed words, none skipped, over the allowed words numbered from the
    largest ``_column_key`` down."""
    f, q = la.field, la.quiver
    order = sorted(la.allowed, key=la._column_key, reverse=True)
    column = {w: j for j, w in enumerate(order)}
    rows = []
    for r in la.relations:
        if len(r.terms) < 2:
            continue
        terms = [(f.from_fraction(c), tuple(q.index_at[a.vertex, a.pos] for a in p.arrows))
                 for c, p in r.terms]
        for u in la.allowed:
            if la.word_target(u) != r.source:
                continue
            for v in la.allowed:
                if v[0] != r.target:
                    continue
                row = {}
                for c, m in terms:
                    j = column.get((u[0], u[1] + m + v[1]))
                    if j is not None:
                        row[j] = f.add(row.get(j, f.zero), c)
                rows.append({j: x for j, x in row.items() if not f.is_zero(x)})
    red, pivots = linalg.rref(rows, f)
    pivot_rows = dict(zip(pivots, red))
    basis = [w for w in reversed(order) if column[w] not in pivot_rows]
    index = {w: i for i, w in enumerate(basis)}
    forms = {}
    for w in la.allowed:
        j = column[w]
        if j in pivot_rows:
            forms[w] = {index[order[k]]: f.neg(x) for k, x in pivot_rows[j].items() if k != j}
        else:
            forms[w] = {index[w]: f.one}
    return basis, forms


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_pruned_translates_match_the_exhaustive_reduction(field):
    """The algebra skips every translate u*r*v whose terms are all zero and
    runs v only up to the shortest live term's length bound; that loses no
    row: its basis and the normal form of every allowed word equal those of
    the reduction of all translates, over census(3,2) and the desk graphs,
    these also with any one relation dropped."""
    cases = [(present(g), None) for g in census(3, 2)]
    for _, g in desk_graphs():
        pres = present(g)
        rels = pres.all_relations
        cases += [(pres, [r for i, r in enumerate(rels) if i != drop])
                  for drop in [None, *range(len(rels))]]
    for pres, relations in cases:
        la = build_algebra(pres, field, relations)
        basis, forms = _exhaustive_normal_forms(la)
        assert la.basis == basis, (pres.graph, relations)
        for w in la.allowed:
            assert la.word_to_vec(*w) == forms[w], (pres.graph, relations, w)


def _column_words(la) -> dict:
    """Every path of length at most ``la.maxlen`` that has no forbidden
    monomial as a subword and the monomials of at most one kind-two relation,
    mapped to that relation's index, or to None when it has none.  A monomial
    is forbidden unless it is the monomial of exactly one relation, and that
    relation is of kind two.  Every subword of each path is checked; only the
    extensions of kept paths are checked, since a path keeps its subwords in
    every extension."""
    q = la.quiver
    owners: dict = {}
    for i, r in enumerate(la.relations):
        if len(r.terms) == 1:
            key = tuple(q.index_at[a.vertex, a.pos] for a in r.terms[0][1].arrows)
            owners.setdefault(key, []).append(i)
    tag_of = {m: i[0] if len(i) == 1 and la.relations[i[0]].kind == "two" else None
              for m, i in owners.items()}
    words = {}
    frontier = [(v, ()) for v in q.vertices]
    while frontier:
        kept = []
        for src, arrows in frontier:
            tags = {tag_of[arrows[i:j]] for i in range(len(arrows))
                    for j in range(i + 1, len(arrows) + 1) if arrows[i:j] in tag_of}
            if None not in tags and len(tags) <= 1:
                words[(src, arrows)] = next(iter(tags), None)
                kept.append((src, arrows))
        frontier = [(src, arrows + (q.index_at[a.vertex, a.pos],))
                    for src, arrows in kept if len(arrows) < la.maxlen
                    for a in q.arrows_from[q.arrows[arrows[-1]].target if arrows else src]]
    return words


def _two_tag_triangle():
    """The triangle's relations with both monomials of the commutation
    relation at e1 added as kind-two relations."""
    g = triangle_graph()
    pres = present(g)
    (comm,) = [r for r in pres.all_relations if r.kind == "one" and r.edge == "e1"]
    return pres, [*pres.all_relations,
                  *(Relation("two", "e1", comm.vertices, ((Fraction(1), p),))
                    for _, p in comm.terms)]


def test_word_trie_holds_the_prefix_closed_column_words():
    """The trie's words are the allowed and the tagged words; they are
    prefix-closed, and a node has a child by arrow a exactly when its word
    followed by a is one of them: the two facts the translate pruning reads.
    Over the desk graphs and census(3,2), which have kind-two monomials, and
    the triangle with two kind-two monomials that meet in one translate."""
    cases = [(present(g), None) for _, g in desk_graphs()]
    cases += [(present(g), None) for g in census(3, 2)]
    cases.append(_two_tag_triangle())
    tags_seen = Counter()
    for pres, relations in cases:
        la = build_algebra(pres, relations=relations)
        expected = _column_words(la)
        assert all((src, arrows[:-1]) in expected for src, arrows in expected if arrows)
        # the vertex words are the first nodes, in quiver order
        found: dict = {}
        stack = [((v, ()), k) for k, v in enumerate(la.quiver.vertices)]
        while stack:
            (src, arrows), k = stack.pop()
            assert (src, arrows) not in found
            found[(src, arrows)] = k
            for a in range(len(la.quiver.arrows)):
                child = la._children[k].get(a)
                assert (child is not None) == ((src, arrows + (a,)) in expected), (src, arrows, a)
                if child is not None:
                    stack.append(((src, arrows + (a,)), child))
        assert found.keys() == expected.keys()
        assert sorted(found.values()) == list(range(len(la._children)))
        assert set(la.allowed) == {w for w, t in expected.items() if t is None}
        for w, k in found.items():
            assert (la._node_column[k] is None) == (expected[w] is not None), w
        tags_seen.update(t is not None for t in expected.values())
        tags_seen["two tags"] += len(set(expected.values()) - {None}) >= 2
    assert tags_seen[True] > 0 and tags_seen["two tags"] > 0


def test_oracle_syzygy_chain(a4):
    la = build_algebra(present(a4))
    walk = ProjResolution.from_oracle(la, "e1", 5)
    assert [m.total_dim for m in walk.syzygies] == [1, 2, 2, 1, 2, 2, 1]
    # growing in steps walks the same resolution as one call
    grown = ProjResolution.from_oracle(la, "e1", -1).grow(2).grow(5).grow(3)
    assert len(grown.modules) == 6
    assert [m.descriptor() for m in grown.syzygies] == [
        m.descriptor() for m in walk.syzygies]
    assert [grown.summands[n] for n in range(6)] == [walk.summands[n] for n in range(6)]


def _walk_objects(walk) -> tuple:
    return ([(P.generators, P.total_dim) for P in walk.modules], walk.summands,
            [phi.images for phi in walk.maps[1:]],
            [m.descriptor() for m in walk.syzygies])


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_syzygies_read_between_grows(monkeypatch, name, g, field):
    """The syzygy under the deepest cover is taken on the first read of
    ``syzygies``: a walk read after every ``grow``, a walk read only at the
    end and one ``from_oracle`` call hold the same modules, summands, map
    images and syzygies, and a walk grown through degree n holds n + 2
    syzygies."""
    kernels = [0]
    kernel = ext.kernel_module

    def counted_kernel(phi):
        kernels[0] += 1
        return kernel(phi)

    monkeypatch.setattr(ext, "kernel_module", counted_kernel)
    la = build_algebra(present(g), field)
    for e in g.edge_ids:
        read = ProjResolution.from_oracle(la, e, -1)
        for n in range(4):
            kernels[0] = 0
            read.grow(n)
            assert kernels == [0]
            assert len(read.syzygies) == n + 2 and kernels == [1]
        kernels[0] = 0
        unread = ProjResolution.from_oracle(la, e, -1).grow(1).grow(3)
        assert kernels == [3]
        fresh = ProjResolution.from_oracle(la, e, 3)
        assert len(fresh.syzygies) == 5
        assert _walk_objects(read) == _walk_objects(unread) == _walk_objects(fresh)


def test_min_resolution_and_ext_dims(triangle):
    la = build_algebra(present(triangle))
    res = min_resolution(la, "e1", 5)
    for n, step in enumerate(res):
        assert sum(step["summands"].values()) == n + 1
        assert step["generation_degrees"] == [n]
    walk = ProjResolution.from_oracle(la, "e1", 3)
    for n in range(5):
        assert sum(walk.syzygies[n].top().values()) == n + 1


def test_yoneda_identity_products(triangle):
    la = build_algebra(present(triangle))
    res = {e: ProjResolution.from_steps(la, e, resolve_simple(triangle, e, 5))
           for e in triangle.edge_ids}
    x = canonical_element(res["e1"], 1, 1)
    target = res["e1"].summands[1][1][0]
    # the degree-zero identity of the target acts trivially
    ident = ExtElement(res[target], 0, {0: la.field.one})
    assert yoneda_multiply(ident, x).coeffs == x.coeffs


def test_subalgebra_dims(a4):
    la = build_algebra(present(a4))
    res = {e: ProjResolution.from_oracle(la, e, 4) for e in a4.edge_ids}
    full = full_ext_dims(res, 3)
    sub = generated_subalgebra_dims(res, 2, 3)
    assert sub[1] == full[1] and sub[2] == full[2]
    assert sub[3] < full[3]
    r1 = res["e1"]
    (idx,) = [i for i, (e, _, _) in enumerate(r1.summands[3]) if e == "e3"]
    witness = ExtElement(r1, 3, {idx: la.field.one})
    assert not element_in_span(res, witness, 2)


def test_closure_over_census_3_2():
    """The subalgebra generated in degrees at most 2 against full Ext
    through degree 3 on every graph of census(3,2) over Q, counted by the
    paper's verdict and the first degree with a gap (None: no gap)."""
    counts = Counter()
    for g in census(3, 2):
        la = build_algebra(present(g))
        walks = {e: ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
        generated = generated_subalgebra_dims(walks, 2, 3)
        full = full_ext_dims(walks, 3)
        gap = next((d for d in range(1, 4) if generated[d] != full[d]), None)
        counts[koszul_report(g).ext_generated_012, gap] += 1
    assert counts == {(True, None): 84, (False, 3): 42, (False, None): 14}


def test_oracle_resolution_exact(triangle, a4):
    for g in (triangle, a4):
        la = build_algebra(present(g))
        for e in g.edge_ids:
            res = ProjResolution.from_oracle(la, e, 4)
            assert res.complex_is_zero() == []
            assert res.exactness_defects(3) == []
            assert res.minimality_defects() == []


@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_composite_blocks_have_full_shape(name, g):
    """Every block of a composite map, the differentials of an oracle walk
    among them, is source.dim(v) x target.dim(v), also where the middle
    module is zero at v."""
    la = build_algebra(present(g))
    for e in g.edge_ids:
        res = ProjResolution.from_oracle(la, e, 3)
        composites = [res.maps[n].compose(res.maps[n - 1]) for n in range(2, 4)]
        for phi in [*res.maps[1:], *composites]:
            for v in la.quiver.vertices:
                block = _dense_block(phi, v)
                assert len(block) == phi.source.dim(v)
                assert all(len(row) == phi.target.dim(v) for row in block)


def _commutes(phi) -> bool:
    """source.action[a] * block[a.target] == block[a.source] * target.action[a]
    for every arrow a."""
    la = phi.source.la
    f = la.field

    def entries(m):
        return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row)
                if not f.is_zero(x)}

    return all(
        entries(_mat_mul(_dense_action(phi.source, a), _dense_block(phi, a.target), f))
        == entries(_mat_mul(_dense_block(phi, a.source), _dense_action(phi.target, a), f))
        for a in la.quiver.arrows
    )


def _explicit_complexes(g, la, n):
    """The path-matrix complexes of every simple, when the graph has them."""
    resolver = explicit_resolver(g)
    if resolver is None:
        return {}
    return {e: ProjResolution.from_steps(la, e, resolver(g, e, n)) for e in g.edge_ids}


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["q", "f2"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_oracle_maps_commute_with_arrows(name, g, field):
    """Covers, the differentials of oracle walks and of path-matrix
    complexes, and lifted chain maps are all module maps."""
    la = build_algebra(present(g), field)
    walks = {e: ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
    complexes = _explicit_complexes(g, la, 3)
    for res in [*walks.values(), *complexes.values()]:
        assert all(_commutes(phi) for phi in res.maps[1:]), res.source
    for walk in walks.values():
        for syz in walk.syzygies[:3]:
            assert _commutes(projective_cover(syz)[1])
    for resolutions in (walks, complexes):
        for res in resolutions.values():
            for n in range(3):
                for i, (t, _, _) in enumerate(res.summands[n]):
                    for m in range(3 - n + 1):
                        assert _commutes(lift_through(res, n, i, resolutions[t], m)), (n, i, m)


def _eager_blocks(phi):
    """The blocks of a map out of a sum of projectives, each basis word's row
    multiplied out from its generator's image one arrow at a time."""
    la = phi.source.la
    f = la.field
    blocks = {v: [] for v in la.quiver.vertices}
    for (e, _), image in zip(phi.source.generators, phi.images):
        for v in la.quiver.vertices:
            for i in la.projective_words[e].get(v, ()):
                row = _dense_row(image, phi.target.dim(e), f)
                for ai in la.basis[i][1]:
                    a = la.quiver.arrows[ai]
                    m = _dense_action(phi.target, a)
                    total = [f.zero] * phi.target.dim(a.target)
                    for x, mrow in zip(row, m):
                        for t, y in enumerate(mrow):
                            total[t] = f.add(total[t], f.mul(x, y))
                    row = total
                blocks[v].append(row)
    return blocks


def _dense_blocks(phi):
    return {v: _dense_block(phi, v) for v in phi.blocks}


def _blockwise_composite(phi, then):
    f = phi.source.la.field
    return {v: (_mat_mul(m, _dense_block(then, v), f) if then.blocks[v]
                else _zeros(len(m), then.target.dim(v), f))
            for v, m in _dense_blocks(phi).items()}


def _check_images(phi, then=None):
    """Lazy blocks equal the eager push; a composite's images are the
    generator rows of the blockwise composite, and it is zero exactly when
    every block is."""
    f = phi.source.la.field
    assert _dense_blocks(phi) == _eager_blocks(phi)
    if then is not None:
        comp = phi.compose(then)
        blockwise = _blockwise_composite(phi, then)
        assert [_dense_row(image, comp.target.dim(gv), f)
                for image, (gv, _) in zip(comp.images, phi.source.generators)] == [
            blockwise[gv][gi] for gv, gi in phi.source.generators]
        assert _dense_blocks(comp) == blockwise
        assert comp.is_zero() == all(f.is_zero(x) for m in blockwise.values()
                                     for row in m for x in row)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["q", "f2"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_maps_are_their_generator_images(name, g, field):
    """Differentials of oracle walks and of path-matrix complexes, their
    composites, and lifted chain maps to depth 3 against blockwise
    references."""
    la = build_algebra(present(g), field)
    walks = {e: ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
    complexes = _explicit_complexes(g, la, 3)
    for res in [*walks.values(), *complexes.values()]:
        _check_images(res.maps[1])
        for n in range(2, len(res.maps)):
            _check_images(res.maps[n], res.maps[n - 1])
    for resolutions in (walks, complexes):
        for res in resolutions.values():
            for n in range(3):
                for i, (t, _, _) in enumerate(res.summands[n]):
                    for m in range(3 - n + 1):
                        psi = lift_through(res, n, i, resolutions[t], m)
                        _check_images(psi, resolutions[t].maps[m] if m else None)


def _assert_rows_hold_no_zero(rows, width, field, where):
    """Each row is a dict of nonzeros at columns below ``width``."""
    for row in rows:
        assert type(row) is dict, where
        assert all(0 <= j < width and not field.is_zero(x)
                   for j, x in row.items()), (where, row)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_block_rows_hold_no_zero(name, g, field):
    """Every stored vector is a dict of nonzeros inside its block: the block
    rows and generator images of the differentials of oracle walks and
    path-matrix complexes, their composites, covers, kernel inclusions and
    lifted chain maps to depth 3; the arrow rows of covers, kernels and
    realized strings; ``solve_left`` solutions; and the coefficients of
    Yoneda products."""
    la = build_algebra(present(g), field)
    walks = {e: ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
    complexes = _explicit_complexes(g, la, 3)
    maps = []
    modules = []
    for res in [*walks.values(), *complexes.values()]:
        maps.extend(res.maps[1:])
        maps.extend(res.maps[n].compose(res.maps[n - 1]) for n in range(2, len(res.maps)))
    for walk in walks.values():
        for syz in walk.syzygies:
            P, cover, _ = projective_cover(syz)
            K, incl = kernel_module(cover)
            maps.extend([cover, incl])
            modules.extend([P, K])
    if name in dict(reduced_desk_graphs()):
        for e in g.edge_ids:
            modules.extend(realize(g, sigma, la)
                           for sigma in iterate_syzygy(g, e, 2).descriptors)
    for resolutions in (walks, complexes):
        for res in resolutions.values():
            for n in range(3):
                for i, (t, _, _) in enumerate(res.summands[n]):
                    maps.extend(lift_through(res, n, i, resolutions[t], m) for m in range(4 - n))
    for phi in maps:
        if phi.images is not None:
            assert len(phi.images) == len(phi.source.generators)
            for (gv, _), image in zip(phi.source.generators, phi.images):
                _assert_rows_hold_no_zero([image], phi.target.dim(gv), field, ("image", gv))
        for v, block in phi.blocks.items():
            assert len(block) == phi.source.dim(v)
            _assert_rows_hold_no_zero(block, phi.target.dim(v), field, v)
            if phi.target.dim(v):
                # every block row is in the row space, solved for by itself
                solutions = linalg.solve_left(block, block, field)
                assert solutions is not None
                _assert_rows_hold_no_zero(solutions, len(block), field, ("solve_left", v))
    for mod in modules:
        for a in la.quiver.arrows:
            rows = mod.action[a.name]
            assert len(rows) == mod.dim(a.source)
            _assert_rows_hold_no_zero(rows, mod.dim(a.target), field, a.name)
    for res in walks.values():
        for i, (t, _, _) in enumerate(res.summands[1]):
            x = ExtElement(res, 1, {i: field.one})
            for m in (1, 2):
                for j in range(len(walks[t].summands[m])):
                    y = ExtElement(walks[t], m, {j: field.one})
                    coeffs = yoneda_multiply(y, x).coeffs
                    _assert_rows_hold_no_zero([coeffs], len(res.summands[1 + m]), field,
                                              ("product", i, m, j))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_kernel_action_matches_solve_left(name, g, field):
    """The syzygy action read off the reduced kernel basis is the one
    ``solve_left`` finds for each arrow image."""
    la = build_algebra(present(g), field)
    for e in g.edge_ids:
        for syz in ProjResolution.from_oracle(la, e, 3).syzygies:
            P, cover, _ = projective_cover(syz)
            K, incl = kernel_module(cover)
            for a in la.quiver.arrows:
                images = _mat_mul(_dense_block(incl, a.source), _dense_action(P, a), field)
                want = linalg.solve_left(
                    incl.blocks[a.target],
                    [{j: x for j, x in enumerate(row) if not field.is_zero(x)} for row in images],
                    field)
                want = [_dense_row(v, K.dim(a.target), field) for v in want]
                assert _dense_action(K, a) == want, (e, a.name)


def _reference_action(P, a):
    """The action of ``a`` on a sum of projectives, multiplied out one basis
    word at a time with ``word_to_vec`` into a dense matrix."""
    la = P.la
    m = _zeros(P.dim(a.source), P.dim(a.target), la.field)
    ai = la.quiver.index_at[a.vertex, a.pos]
    for (e, _), offsets in zip(P.generators, P.offsets):
        for r, i in enumerate(la.projective_words[e][a.source]):
            for j, c in la.word_to_vec(e, la.basis[i][1] + (ai,)).items():
                m[offsets[a.source] + r][offsets[a.target] + la.word_position[j]] = c
    return m


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_projective_rows_match_word_products(name, g, field):
    """Every arrow's sparse rows on a sum of projectives - each projective,
    the modules of the oracle walks and path-matrix complexes, and one sum
    that repeats an edge at another degree - are the word products, no row
    holds a zero coefficient, and each projective has the simple at its edge
    as top and as socle (the algebra is symmetric)."""
    la = build_algebra(present(g), field)
    edges = list(g.edge_ids)
    sums = [ProjectiveSum(la, [(e, 0)]) for e in edges]
    sums.append(ProjectiveSum(la, [(e, 0) for e in edges] + [(edges[0], 1), (edges[-1], 2)]))
    for res in [*(ProjResolution.from_oracle(la, e, 3) for e in edges),
                *_explicit_complexes(g, la, 3).values()]:
        sums.extend(res.modules)
    for P in sums:
        for a in la.quiver.arrows:
            assert _dense_action(P, a) == _reference_action(P, a), a.name
            assert all(not field.is_zero(x) for row in P.action[a.name] for x in row.values())
    for e, P in zip(edges, sums):
        assert P.top() == Counter({e: 1}) and P.socle() == Counter({e: 1}), e


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("g", [triangle_graph(), cycle_graph(6), pendant_triangle(),
                               cycle_graph(8, 2)],
                         ids=["triangle", "cycle6", "pendant_triangle", "cycle8_m2"])
def test_kernel_not_closed_is_refused(g, field):
    """The identity on the block of e and zero elsewhere is no module map of
    the projective at e, and its 'kernel' is not closed under the action."""
    la = build_algebra(present(g), field)
    for e in g.edge_ids:
        P = ProjectiveSum(la, [(e, 0)])
        blocks = {v: [{i: field.one} if v == e else {} for i in range(P.dim(v))]
                  for v in la.quiver.vertices}
        with pytest.raises(RuntimeError, match="kernel is not closed under the action"):
            kernel_module(ModuleMap(P, P, blocks=blocks))


def _whole_lift(x, target_res, m):
    """The chain map lifting the whole class ``x`` at once, one level after
    another: the reference for the kept lifts of its basis classes."""
    la = x.res.la
    f = la.field
    n, src, t = x.degree, x.res, target_res.source
    q0 = target_res.modules[0]
    _, t_gen = q0.generators[0]
    images = [{t_gen: x.coeffs[i]} if e == t and i in x.coeffs else {}
              for i, (e, _) in enumerate(src.modules[n].generators)]
    psi = map_from_generators(src.modules[n], q0, images)
    for k in range(1, m + 1):
        rhs = src.maps[n + k].compose(psi)
        g = target_res.maps[k]
        generators = src.modules[n + k].generators
        by_vertex = {}
        for j, (gv, _) in enumerate(generators):
            by_vertex.setdefault(gv, []).append(j)
        images = [None] * len(generators)
        for gv, js in by_vertex.items():
            ys = linalg.solve_left(g.blocks[gv], [rhs.images[j] for j in js], f)
            assert ys is not None
            for j, y in zip(js, ys):
                images[j] = y
        psi = map_from_generators(src.modules[n + k], target_res.modules[k], images)
    return psi


def _whole_product(y, x):
    """y o x read off the whole lift of x."""
    f = x.res.la.field
    psi = _whole_lift(x, y.res, y.degree)
    out = {}
    for j, (gv, _) in enumerate(x.res.modules[x.degree + y.degree].generators):
        total = f.zero
        for i, c in y.coeffs.items():
            tgv, tgi = y.res.modules[y.degree].generators[i]
            if tgv == gv:
                total = f.add(total, f.mul(c, psi.images[j].get(tgi, f.zero)))
        if not f.is_zero(total):
            out[j] = total
    return out


def _random_class(rng, res, n, field, target=None):
    """A random combination of the degree-n basis classes of ``res`` (those
    ending at ``target`` when given), zero coefficients included."""
    values = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 5)]
    return ExtElement(res, n, {
        i: field.from_fraction(rng.choice(values))
        for i, (e, _, _) in enumerate(res.summands[n])
        if target is None or e == target})


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_products_of_combinations_match_the_whole_lift(name, g, field):
    """``yoneda_multiply`` of random linear combinations gives exactly the
    coefficients of lifting the whole class at once, on the oracle walks and
    on the path-matrix complexes, through degree 3."""
    rng = random.Random(name)
    la = build_algebra(present(g), field)
    walks = {e: ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
    for resolutions in (walks, _explicit_complexes(g, la, 3)):
        for res in resolutions.values():
            for n in range(3):
                for t in g.edge_ids:
                    for _ in range(2):
                        x = _random_class(rng, res, n, field, t)
                        for m in range(3 - n + 1):
                            y = _random_class(rng, resolutions[t], m, field)
                            got = yoneda_multiply(y, x).coeffs
                            ref = _whole_product(y, x)
                            assert got == ref, (n, t, m)
                            assert [type(c) for c in got.values()] == [
                                type(c) for c in ref.values()]


def test_lift_through_a_flipped_complex_is_refused(triangle):
    """A sign flip in the second differential of the simple at e1 makes its
    complex inexact in degree 2, so lifting a class ending at e1 through it
    fails at level 3, both alone and inside a product; the levels solved
    before the failure stay usable."""
    la = build_algebra(present(triangle))
    steps = {e: resolve_simple(triangle, e, 4) for e in triangle.edge_ids}
    complexes = {e: ProjResolution.from_steps(la, e, s) for e, s in steps.items()}
    flipped = ProjResolution.from_steps(la, "e1", _flip(steps["e1"], ("e1", 2, 0, 0)))
    x = canonical_element(complexes["e2"], 1, -1)
    assert x.targets() == {"e1"}
    (i,) = x.coeffs
    for _ in range(2):
        with pytest.raises(RuntimeError, match="comparison lifting failed"):
            lift_through(x.res, 1, i, flipped, 3)
        with pytest.raises(RuntimeError, match="comparison lifting failed"):
            yoneda_multiply(canonical_element(flipped, 3, 1), x)
    assert lift_through(x.res, 1, i, flipped, 2).images == _whole_lift(x, flipped, 2).images


def test_lift_and_product_refuse_mismatched_simples(triangle):
    """A class whose summand is not the target's simple is not lifted, and
    no level is kept for it; factors that do not compose are refused."""
    la = build_algebra(present(triangle))
    walks = {e: ProjResolution.from_oracle(la, e, 3) for e in triangle.edge_ids}
    res = walks["e1"]
    i = next(i for i, (t, _, _) in enumerate(res.summands[1]) if t != "e1")
    with pytest.raises(ValueError, match="does not map into the requested simple"):
        lift_through(res, 1, i, walks["e1"], 1)
    assert res.lifts == {}
    x = ExtElement(res, 1, {i: la.field.one})
    y = ExtElement(walks["e1"], 1, {0: la.field.one})
    with pytest.raises(ValueError, match="factors not composable"):
        yoneda_multiply(y, x)


def test_algebra_build_hashes_no_arrow(monkeypatch):
    """Building the census(3,2) algebras reads every arrow index through
    ``Quiver.index_at``, with no ``Arrow`` hashed."""
    presentations = [present(g) for g in census(3, 2)]
    hashes = [0]
    arrow_hash = Arrow.__hash__

    def counted_hash(self):
        hashes[0] += 1
        return arrow_hash(self)

    monkeypatch.setattr(Arrow, "__hash__", counted_hash)
    for pres in presentations:
        build_algebra(pres)
    assert hashes == [0]
    assert hash(presentations[0].quiver.arrows[0]) and hashes == [1]


def _census_walks(field):
    """Per census(3,2) graph: its algebra, and the oracle walk of every simple
    through degree 4 with every syzygy taken."""
    for g in census(3, 2):
        la = build_algebra(present(g), field)
        walks = {e: ProjResolution.from_oracle(la, e, 4) for e in g.edge_ids}
        for walk in walks.values():
            walk.syzygies
        yield g, la, walks


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_module_layer_never_rewrites_the_shared_rows(field):
    """Every ``ProjectiveSum`` reads the algebra's ``projective_action`` and
    ``shifted_rows`` tables without copying them, so nothing downstream may
    rewrite them: after the walks, the tops and socles of the projectives
    and syzygies, the path-matrix complexes, their composition, exactness
    and certificate checks, and a second walk, every table holds what it
    held before, and every shifted list is its projective row list
    shifted."""
    for g, la, walks in _census_walks(field):
        before = copy.deepcopy((la._projective_action, la._shifted_rows,
                                la._projective_degrees))
        for e in g.edge_ids:
            ProjectiveSum(la, [(e, 0)]).descriptor()
            for M in walks[e].modules + walks[e].syzygies:
                M.descriptor()
        resolver = explicit_resolver(g)
        if resolver is not None:
            complexes = {e: ProjResolution.from_steps(la, e, resolver(g, e, 5))
                         for e in g.edge_ids}
            report = DiffReport()
            for res in complexes.values():
                assert res.complex_is_zero() == []
                assert res.exactness_defects(4) == []
            _check_certificates(report, g, la, 4, complexes, Tables(g, la.quiver))
            assert report.ok, report.entries
        for e in g.edge_ids:
            ProjResolution.from_oracle(la, e, 4).syzygies
        actions, shifted, degrees = before
        assert la._projective_action == actions
        assert {k: la._shifted_rows[k] for k in shifted} == shifted
        assert {k: la._projective_degrees[k] for k in degrees} == degrees
        for (e, a, offset), rows in la._shifted_rows.items():
            assert rows == [{offset + j: x for j, x in row.items()}
                            for row in actions[e][a]]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_covers_share_rows_and_are_homogeneous(field):
    """Two sums with a summand at the same edge and column offset hold the
    same row objects there, and every block row of every cover of a syzygy
    lies in its own degree, so the kernel of a whole block splits by
    degree."""
    for g, la, walks in _census_walks(field):
        rows_at: dict = {}
        for walk in walks.values():
            for M in walk.syzygies:
                P, phi, _ = projective_cover(M)
                for v, block in phi.blocks.items():
                    for i, row in enumerate(block):
                        assert all(M.degrees[v][j] == P.degrees[v][i] for j in row)
            for P in walk.modules:
                for (e, _), offsets in zip(P.generators, P.offsets):
                    for a in la.quiver.arrows:
                        start = offsets[a.source]
                        n = len(la.projective_words[e][a.source])
                        rows = P.action[a.name][start:start + n]
                        key = (e, a.name, offsets[a.target])
                        first = rows_at.setdefault(key, rows)
                        assert all(x is y for x, y in zip(first, rows)), key
        for (e, a, offset), rows in rows_at.items():
            assert all(x is y for x, y in zip(rows, la.shifted_rows(e, a, offset)))


def _slot_kernel(phi) -> tuple[dict, dict, dict]:
    """The kernel of a cover one (vertex, degree) slot at a time, the slots
    in degree order, with its action solved against the basis: the
    reference for ``kernel_module``'s one left kernel per vertex.  Returns
    the basis rows, degrees and action per vertex and per arrow."""
    P = phi.source
    la = P.la
    f = la.field
    basis: dict = {}
    degrees: dict = {}
    for v in la.quiver.vertices:
        block = phi.blocks[v]
        basis[v], degrees[v] = [], []
        slots: dict = {}
        for i, d in enumerate(P.degrees[v]):
            slots.setdefault(d, []).append(i)
        for d in sorted(slots, key=lambda x: (x is None, x)):
            rows = slots[d]
            kern = linalg.Elimination([block[i] for i in rows], f).kernel
            basis[v].extend({rows[k]: x for k, x in kv.items()} for kv in kern)
            degrees[v].extend([d] * len(kern))
    action = {}
    for a in la.quiver.arrows:
        images = []
        for b in basis[a.source]:
            image: dict = {}
            for i, x in b.items():
                for j, y in P.action[a.name][i].items():
                    image[j] = f.add(image.get(j, f.zero), f.mul(x, y))
            images.append({j: x for j, x in image.items() if not f.is_zero(x)})
        action[a.name] = linalg.solve_left(basis[a.target], images, f)
    return basis, degrees, action


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_kernel_per_vertex_matches_the_slot_reference(field):
    """Over every cover of every oracle walk through degree 4, of census(3,2)
    and of four larger graphs, the one left kernel per vertex gives the
    basis rows, degrees and action of the per-(vertex, degree) slots, in
    the same order; an ungraded algebra, all of whose degrees are None, is
    among them."""
    ungraded = 0
    deep = [triangle_graph(), cycle_graph(8, 2), pendant_triangle(), cycle_graph(6)]
    for g in [*census(3, 2), *deep]:
        la = build_algebra(present(g), field)
        ungraded += not la.graded
        for e in g.edge_ids:
            walk = ProjResolution.from_oracle(la, e, 4)
            for M in walk.syzygies[:-1]:
                _, phi, _ = projective_cover(M)
                K, incl = kernel_module(phi)
                assert (incl.blocks, K.degrees, K.action) == _slot_kernel(phi)
    assert ungraded


def _recursive_blocks(phi):
    """The blocks of a map out of a sum of projectives, each basis word's
    row pushed by recursion on its prefixes, memoised per generator and
    prefix: the reference for the algebra's push plans."""
    la = phi.source.la
    f, action = la.field, phi.target.action
    blocks = {v: [] for v in la.quiver.vertices}

    def push(pushed, arrows):
        if arrows not in pushed:
            vec = push(pushed, arrows[:-1])
            a = la.quiver.arrows[arrows[-1]]
            pushed[arrows] = _times(vec, action[a.name], f) if vec else vec
        return pushed[arrows]

    for (e, _), image in zip(phi.source.generators, phi.images):
        pushed = {(): image}
        for v, words in la.projective_words[e].items():
            blocks[v].extend(push(pushed, la.basis[i][1]) for i in words)
    return blocks


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["q", "f2"])
def test_plan_pushed_blocks_match_a_recursive_push(field):
    """Over every census(3,2) algebra and edge, the blocks pushed along the
    algebra's plans equal the recursive push, for a cover into a kernel
    module, the differentials of the oracle walk and of ``from_steps``
    into sums of projectives, and a cover with one generator sent to zero;
    each edge's plan is built once per algebra."""
    from_steps = 0
    for g in census(3, 2):
        la = build_algebra(present(g), field)
        resolver = explicit_resolver(g)
        for e in g.edge_ids:
            walk = ProjResolution.from_oracle(la, e, 2)
            _, cover, _ = projective_cover(walk.syzygies[1])
            zeroed = map_from_generators(cover.source, cover.target,
                                         [{}] + cover.images[1:])
            maps = [cover, zeroed, walk.maps[1], walk.maps[2]]
            if resolver is not None:
                maps += ProjResolution.from_steps(la, e, resolver(g, e, 3)).maps[1:]
                from_steps += 1
            for phi in maps:
                assert phi.blocks == _recursive_blocks(phi)
            assert la.push_plan(e) is la.push_plan(e)
    assert from_steps


def _recorded_third_factors(monkeypatch) -> list[set]:
    """The third factors of each ``check_associativity`` call from now on,
    as a set of basis indices per call."""
    third = algebra.FiniteDimAlgebra._third_factors
    seen = []

    def recorded(la, unit):
        out = third(la, unit)
        seen.append({k for ks in out.values() for k in ks})
        return out

    monkeypatch.setattr(algebra.FiniteDimAlgebra, "_third_factors", recorded)
    return seen


def test_associativity_third_factors_are_the_generators(monkeypatch):
    """On every census(4,2) algebra of at most 40 dimensions the table
    reaches every basis word, so the third factors of
    ``check_associativity`` are exactly the idempotents and the arrows."""
    seen = _recorded_third_factors(monkeypatch)
    checked = 0
    for g in census(4, 2):
        la = build_algebra(present(g))
        if la.dim > 40:
            continue
        seen.clear()
        assert la.check_associativity()
        assert seen == [{i for i, (_, word) in enumerate(la.basis) if len(word) <= 1}]
        checked += 1
    assert checked


@pytest.mark.parametrize("name, g", desk_graphs(), ids=[name for name, _ in desk_graphs()])
def test_associativity_table_that_does_not_reach_a_word(monkeypatch, name, g):
    """A word c = c'x whose product b_c' b_x the table no longer gives as b_c
    is not reached: it joins the third factors, and the verdict still equals
    the full triple loop."""
    seen = _recorded_third_factors(monkeypatch)
    la = build_algebra(present(g))
    products = _override_products(la)
    index = la.basis_index
    for c, (src, word) in enumerate(la.basis):
        if len(word) < 2:
            continue
        prefix = index[src, word[:-1]]
        x = index[la.quiver.arrows[word[-1]].source, word[-1:]]
        kept = la.mult(prefix, x)
        assert kept == {c: la.field.one}
        for corrupt in ({}, {c: 2}):
            products[prefix, x] = corrupt
            seen.clear()
            assert la.check_associativity() == _associative_brute_force(la)
            assert c in seen[0]
        del products[prefix, x]
