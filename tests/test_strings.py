import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauergraph import strings
from brauergraph.census import census
from brauergraph.graph import (
    BrauerGraphError,
    HypothesisError,
    is_reduced,
    path_graph,
    star_graph,
)
from brauergraph.oracle.algebra import build_algebra
from brauergraph.oracle.ext import ProjResolution
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.presentation import present
from brauergraph.strings import (
    StringDescriptor,
    dimension,
    iterate_syzygy,
    period,
    realize,
    syzygy,
    syzygy_of_simple,
    validate_acceptable,
)
from conftest import reduced_desk_graphs


def test_validate_acceptable(triangle, a4):
    ok = StringDescriptor.of(("e3", "+"), ("e1", "-"), ("e2", "+"))
    assert validate_acceptable(triangle, ok)
    bad_signs = StringDescriptor.of(("e1", "+"), ("e2", "+"))
    assert not validate_acceptable(triangle, bad_signs)
    bad_links = StringDescriptor.of(("e1", "+"), ("e2", "-"), ("e1", "+"))
    assert not validate_acceptable(a4, bad_links)


@pytest.mark.parametrize("pair, message", [
    ((("e1", "+"), ("e3", "-")), "edges 'e1' and 'e3' share 0 vertices; need exactly one"),
    ((("e1", "+"), ("e1", "-")), "edges must be distinct, got 'e1' twice"),
    ((("e1", "+"), ("e9", "-")), "unknown edge 'e9'"),
    ((("e9", "+"),), "unknown edge 'e9'"),
], ids=["apart", "twice", "unknown", "unknown-simple"])
def test_string_refusals(pair, message):
    """A descriptor whose adjacent entries do not meet at one vertex is
    refused by ``syzygy`` and ``dimension``, naming why; ``validate_acceptable``
    and ``realize`` refuse an unknown edge, one entry long or longer, and
    call the others unacceptable."""
    g = path_graph(5)
    sigma = StringDescriptor.of(*pair)
    la = build_algebra(present(g))
    for op in (syzygy, dimension):
        with pytest.raises(BrauerGraphError) as exc:
            op(g, sigma)
        assert str(exc.value) == message
    if message.startswith("unknown"):
        with pytest.raises(BrauerGraphError, match=message):
            validate_acceptable(g, sigma)
        with pytest.raises(BrauerGraphError, match=message):
            realize(g, sigma, la)
    else:
        assert validate_acceptable(g, sigma) is False
        with pytest.raises(HypothesisError, match="not acceptable"):
            realize(g, sigma, la)


def test_reverse_and_star_flip(triangle):
    sigma = StringDescriptor.of(("e3", "+"), ("e1", "-"), ("e2", "+"))
    assert sigma.reverse().entries == StringDescriptor.of(
        ("e2", "+"), ("e1", "-"), ("e3", "+")
    ).entries
    assert StringDescriptor.simple("e1").reverse() == StringDescriptor.simple("e1")
    flip = StringDescriptor(tuple((e, -s) for e, s in sigma.entries))
    assert flip.entries == StringDescriptor.of(
        ("e3", "-"), ("e1", "+"), ("e2", "-")
    ).entries
    assert validate_acceptable(triangle, flip)


def test_top_socle(triangle):
    sigma = StringDescriptor.of(("e3", "+"), ("e1", "-"), ("e2", "+"))
    assert dict(sigma.top()) == {"e3": 1, "e2": 1}
    assert dict(sigma.socle()) == {"e1": 1}
    s = StringDescriptor.simple("e2")
    assert dict(s.top()) == {"e2": 1} and dict(s.socle()) == {"e2": 1}
    big = StringDescriptor.of(("e2", "+"), ("e3", "-"), ("e1", "+"),
                              ("e2", "-"), ("e3", "+"))
    assert dict(big.top()) == {"e2": 1, "e1": 1, "e3": 1}
    assert dict(big.socle()) == {"e3": 1, "e2": 1}


def test_uniserial_and_dimension(triangle, a4):
    # the uniserial with top e2 and socle e1
    assert dimension(a4, StringDescriptor.of(("e2", "+"), ("e1", "-"))) == 2
    big = StringDescriptor.of(("e2", "+"), ("e3", "-"), ("e1", "+"),
                              ("e2", "-"), ("e3", "+"))
    assert dimension(triangle, big) == 5


def test_syzygy_examples(triangle, a4):
    start = StringDescriptor.of(("e3", "+"), ("e1", "-"), ("e2", "+"))
    assert syzygy(triangle, start).entries == StringDescriptor.of(
        ("e2", "+"), ("e3", "-"), ("e1", "+"), ("e2", "-"), ("e3", "+")
    ).entries
    assert syzygy(a4, StringDescriptor.of(("e2", "+"), ("e1", "-"))).entries == (
        ("e3", 1), ("e2", -1)
    )
    out = syzygy(a4, StringDescriptor.of(("e3", "+"), ("e2", "-")))
    assert out == StringDescriptor.simple("e3")


def test_syzygy_of_simple(triangle, a4, a2):
    assert syzygy_of_simple(triangle, "e1").entries == (
        ("e3", 1), ("e1", -1), ("e2", 1)
    )
    assert syzygy_of_simple(a4, "e1").entries == (("e2", 1), ("e1", -1))
    with pytest.raises(HypothesisError):
        syzygy_of_simple(a2, "e1")


def test_iterate_and_period(triangle, a4):
    trace = iterate_syzygy(a4, "e1", 6)
    assert trace.descriptors[3] == StringDescriptor.simple("e3")
    assert trace.period == 6
    assert period(a4, "e1") == 6
    trace_t = iterate_syzygy(triangle, "e1", 8)
    for n, d in enumerate(trace_t.descriptors):
        assert len(d) == (2 * n + 1 if n else 1)
    assert period(triangle, "e1") is None


@pytest.mark.parametrize("n_vertices, per", [(4, 6), (5, 8)])
def test_period_stops_at_first_return(monkeypatch, n_vertices, per):
    """period walks the syzygies only until the simple comes back, and a
    trace to degree n takes n steps; every step is the public ``syzygy``."""
    calls = []
    real = strings.syzygy
    monkeypatch.setattr(strings, "syzygy", lambda g, s: calls.append(s) or real(g, s))
    g = path_graph(n_vertices)
    assert period(g, "e1") == per
    assert len(calls) == per
    calls.clear()
    assert iterate_syzygy(g, "e1", 2 * per).period == per
    assert len(calls) == 2 * per


def test_realize(triangle, a4):
    la = build_algebra(present(triangle))
    m = realize(triangle, StringDescriptor.simple("e1"), la)
    assert m.total_dim == 1 and dict(m.top()) == {"e1": 1}
    assert all(not row for rows in m.action.values() for row in rows)
    la4 = build_algebra(present(a4))
    u = realize(a4, StringDescriptor.of(("e2", "+"), ("e1", "-")), la4)
    assert u.total_dim == 2
    ranks = {name: sum(1 for row in rows for x in row.values() if x != 0)
             for name, rows in u.action.items()}
    assert sum(ranks.values()) == 1  # a single arrow acts with rank one
    big = iterate_syzygy(triangle, "e1", 1).descriptors[1]
    mm = realize(triangle, big, la)
    assert mm.total_dim == 3 and sum(mm.top().values()) == 2


def test_endpoint_swap_invariance(triangle):
    from brauergraph.graph import from_dict, to_dict

    doc = to_dict(triangle)
    for e in doc["edges"]:
        if e["id"] == "e1":
            e["ends"] = list(reversed(e["ends"]))
    for v, halves in doc["rotation"].items():
        doc["rotation"][v] = [
            [h[0], 1 - h[1]] if h[0] == "e1" else h for h in halves
        ]
    swapped = from_dict(doc)
    for e in triangle.edge_ids:
        a = iterate_syzygy(triangle, e, 4).descriptors
        b = iterate_syzygy(swapped, e, 4).descriptors
        for da, db in zip(a, b):
            assert dimension(triangle, da) == dimension(swapped, db)
            assert da.top() == db.top() and da.socle() == db.socle()
            # the swap reverses descriptors
            assert da.canonical() == db.canonical()


DESK = reduced_desk_graphs()


@st.composite
def desk_descriptor(draw):
    name, g = DESK[draw(st.integers(0, len(DESK) - 1))]
    edge = g.edge_ids[draw(st.integers(0, len(g.edge_ids) - 1))]
    if g.is_a2_trivial():
        edge = None
    depth = draw(st.integers(0, 5))
    return g, edge, depth


@settings(max_examples=60, deadline=None)
@given(desk_descriptor())
def test_syzygy_reverse_commutes(data):
    g, edge, depth = data
    if edge is None:
        return
    sigma = iterate_syzygy(g, edge, depth).descriptors[depth]
    lhs = syzygy(g, sigma.reverse())
    rhs = syzygy(g, sigma).reverse()
    if len(sigma) > 1:
        assert lhs.entries == rhs.entries
    else:
        assert lhs.canonical() == rhs.canonical()


@settings(max_examples=60, deadline=None)
@given(desk_descriptor())
def test_syzygy_outputs_acceptable(data):
    g, edge, depth = data
    if edge is None:
        return
    sigma = iterate_syzygy(g, edge, depth).descriptors[depth]
    assert validate_acceptable(g, sigma)
    assert validate_acceptable(g, sigma.reverse())
    if len(sigma) > 1:
        assert validate_acceptable(g, StringDescriptor(tuple((e, -s) for e, s in sigma.entries)))


def test_non_reduced_graph_rejected(star3_m2):
    with pytest.raises(HypothesisError):
        syzygy_of_simple(star3_m2, "e1")



def _reduced(k: int) -> list:
    """The reduced graphs of census(k, 2) but the single edge."""
    return [g for g in census(k, 2) if is_reduced(g) and not g.is_a2_trivial()]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_period_agrees_with_the_oracle(field):
    """On every edge of the reduced graphs of census(4,2), which holds
    census(3,2), period(g, e) = p exactly when the oracle's first syzygy
    isomorphic to the simple at e is its p-th, and None when none is
    within the bound that ``period`` reads."""
    checked = 0
    for g in _reduced(4):
        la = build_algebra(present(g), field)
        bound = 2 * len(g.edge_ids) * g.nilpotency_bound()
        for e in g.edge_ids:
            p = period(g, e)
            depth = bound if p is None else p
            syzygies = ProjResolution.from_oracle(la, e, depth - 1).syzygies
            returns = [k for k in range(1, depth + 1)
                       if syzygies[k].total_dim == 1 and dict(syzygies[k].top()) == {e: 1}]
            assert returns == ([] if p is None else [p]), (g.edge_ends, e, p)
            checked += 1
    assert checked == 31


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_realize_and_dimension_agree_with_the_oracle_through_degree_6(field):
    """On every reduced census(4,2) graph but the single edge, every
    descriptor of every simple's trace through degree 6 is realized as the
    oracle's syzygy of that degree, with ``dimension`` its total dimension."""
    checked = 0
    for g in _reduced(4):
        la = build_algebra(present(g), field)
        for e in g.edge_ids:
            syzygies = ProjResolution.from_oracle(la, e, 5).syzygies
            for n, sigma in enumerate(iterate_syzygy(g, e, 6).descriptors):
                m = realize(g, sigma, la)
                assert m.descriptor() == syzygies[n].descriptor(), (g.edge_ends, e, n)
                assert m.total_dim == dimension(g, sigma)
                checked += 1
    assert checked == 217
