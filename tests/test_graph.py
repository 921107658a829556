import json

import pytest

from brauergraph.graph import (
    BrauerGraph,
    BrauerGraphError,
    HalfEdge,
    HypothesisError,
    from_dict,
    is_length_graded,
    is_reduced,
    loop_graph,
    path_graph,
    star_centers,
    star_graph,
    to_dict,
    triangle_graph,
    validate,
)


def test_validate_triangle_clean(triangle):
    assert validate(triangle).ok


def test_validate_rotation_mismatch(triangle):
    doc = to_dict(triangle)
    doc["rotation"]["alpha"] = doc["rotation"]["alpha"][:1]
    report = validate(from_dict(doc))
    assert any("rotation/incidence mismatch at alpha" in v for v in report.violations)


def test_validate_quantizer_on_truncated_edge(a4):
    doc = to_dict(a4)
    doc["quantizer"] = [{"edge": "e1", "vertex": "v2", "value": "2/3"}]
    report = validate(from_dict(doc))
    assert any("quantizer key outside X_Gamma" in v for v in report.violations)


def test_valency(triangle, a2):
    assert all(triangle.valency(v) == 2 for v in triangle.vertex_ids)
    assert loop_graph().valency("v1") == 2  # a loop counts twice
    assert a2.valency("v1") == 1


def test_is_truncated(a2, a4, triangle):
    assert a2.is_truncated("e1", "v1") and a2.is_truncated("e1", "v2")
    m2 = path_graph(2, [2, 2])
    assert not m2.is_truncated("e1", "v1") and not m2.is_truncated("e1", "v2")
    assert all(not triangle.is_truncated(e, v)
               for e in triangle.edge_ids for v in triangle.ends(e))
    assert a4.is_truncated("e1", "v1") and not a4.is_truncated("e1", "v2")


def test_follow(triangle, a4):
    """One follows step: the next half-edge at the vertex, crossed to the
    other end of its edge."""
    assert a4.follow(a4.half_at("e2", "v3")) == a4.half_at("e3", "v4")
    assert triangle.follow(triangle.half_at("e2", "gamma")) == triangle.half_at("e3", "alpha")
    assert triangle.follow(triangle.half_at("e3", "alpha")) == triangle.half_at("e1", "beta")
    # a valency-one edge is its own successor: the step crosses back
    assert a4.follow(a4.half_at("e1", "v1")) == a4.half_at("e1", "v2")
    with pytest.raises(BrauerGraphError):
        triangle.follow(HalfEdge("zz", 0))


def test_follow_permutes_half_edges(small_census):
    for g in small_census:
        halves = [h for e in g.edge_ids for h in g.half_edges_of(e)]
        assert sorted(map(g.follow, halves)) == sorted(halves)


def _reference_meet(g, x, y):
    """Where x and y meet, from their ends and half-edge positions."""
    if x == y:
        raise BrauerGraphError(f"edges must be distinct, got {x!r} twice")
    shared = set(g.ends(x)) & set(g.ends(y))
    if len(shared) != 1:
        raise BrauerGraphError(
            f"edges {x!r} and {y!r} share {len(shared)} vertices; need exactly one")
    (v,) = shared
    return (v, g.valency(v), g.position(g.half_at(x, v))[1],
            g.position(g.half_at(y, v))[1])


def _outcome(f, *args):
    try:
        return f(*args)
    except BrauerGraphError as exc:
        return str(exc)


def test_meet_reads_ends_and_positions(small_census):
    """On every census(4,2) graph and the loop, each ordered pair of edges,
    an unknown one too, meets where its ends and half-edge positions say, or
    is refused with the same message: twice the same edge, no or two common
    ends, a loop."""
    for g in small_census + [loop_graph(), loop_graph(2)]:
        edges = g.edge_ids + ["nope"]
        for x in edges:
            for y in edges:
                assert _outcome(g.meet, x, y) == _outcome(_reference_meet, g, x, y)
    # a malformed rotation that leaves a half-edge out is refused, not read
    doc = to_dict(triangle_graph())
    doc["rotation"]["alpha"] = doc["rotation"]["alpha"][:1]
    with pytest.raises(BrauerGraphError, match="do not meet in the rotation at 'alpha'"):
        from_dict(doc).meet("e1", "e3")


def test_brauer_walk(a4, a2):
    walk = a4.brauer_walk("e1")
    assert walk.edges == ("e1", "e2", "e3")
    assert walk.via == ("v2", "v3")
    with pytest.raises(HypothesisError):
        a2.brauer_walk("e1")
    a3 = path_graph(3)
    assert a3.brauer_walk("e1").edges == ("e1", "e2")


def test_brauer_walk_ends_at_a_truncated_exit(small_census):
    """Every walk of a reduced census graph stops on an edge truncated at its
    exit, within the 2|E| steps of ``follow``'s orbit; its consecutive edges
    meet at the recorded vertices."""
    lengths = []
    for g in small_census:
        if not is_reduced(g) or len(g.edge_ids) == 1:
            continue
        for e in g.edge_ids:
            if not g.edge_is_truncated(e):
                continue
            walk = g.brauer_walk(e)
            last = walk.edges[-1]
            assert g.is_truncated(last, g.other_end(last, walk.via[-1]))
            assert len(walk.edges) <= 2 * len(g.edge_ids) + 1
            assert all(g.incident(x, v) and g.incident(y, v) for x, y, v
                       in zip(walk.edges, walk.edges[1:], walk.via))
            lengths.append(len(walk.edges) / len(g.edge_ids))
    assert (len(lengths), max(lengths)) == (17, 1.25)


def test_brauer_walk_reversal(a4):
    fwd = a4.brauer_walk("e1")
    bwd = a4.brauer_walk(fwd.edges[-1])
    assert bwd.edges == tuple(reversed(fwd.edges))


def test_predicates(triangle, a4):
    assert is_reduced(triangle) and is_length_graded(triangle)
    assert is_reduced(a4) and is_length_graded(a4)
    assert not is_reduced(loop_graph())
    assert star_centers(star_graph(2)) == ["c"]
    assert set(star_centers(path_graph(2))) == {"v1", "v2"}


def test_length_graded_examples():
    assert is_length_graded(path_graph(4, [2, 1, 1, 2]))
    pend = path_graph(3, [1, 1, 1])
    assert is_length_graded(pend)
    # a pendant edge on a triangle breaks the degree match
    from conftest import pendant_triangle

    assert not is_length_graded(pendant_triangle())


def test_rotation_shift_invariance(triangle):
    doc = to_dict(triangle)
    doc["rotation"]["alpha"] = doc["rotation"]["alpha"][1:] + doc["rotation"]["alpha"][:1]
    shifted = from_dict(doc)
    assert validate(shifted).ok
    for e in triangle.edge_ids:
        for h in triangle.half_edges_of(e):
            assert shifted.successor_half(h) == triangle.successor_half(h)


def test_serialization_roundtrip(triangle):
    doc = to_dict(triangle)
    text = json.dumps(doc)
    back = from_dict(json.loads(text))
    assert to_dict(back) == doc


def test_nilpotency_bound(triangle, star3_m2):
    assert triangle.nilpotency_bound() == 2
    assert star3_m2.nilpotency_bound() == 6
