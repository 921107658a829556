"""The regime record, ``BrauerGraph.regimes``, against the conditions of
each guarded operation stated here directly in the graph's predicates:
which inputs every operation accepts and which it refuses."""
from collections import Counter

from brauergraph import resolution
from brauergraph.classify import koszul_report
from brauergraph.graph import (
    BrauerGraph,
    HalfEdge,
    HypothesisError,
    from_dict,
    is_length_graded,
    is_reduced,
    to_dict,
    triangle_graph,
    uniform_degree,
)
from brauergraph.oracle.verify import verify_graph
from brauergraph.resolution import (
    edge_certificates,
    explicit_resolver,
    generation_degrees,
    obstruction_element,
    resolve_simple,
    resolve_simple_2d,
)
from brauergraph.strings import iterate_syzygy
from conftest import desk_graphs


def k4() -> BrauerGraph:
    """The complete graph on four vertices: reduced, of uniform degree 3."""
    vs = "abcd"
    edges = [(x + y, (x, y)) for i, x in enumerate(vs) for y in vs[i + 1:]]
    rotation = {v: [HalfEdge(e, ends.index(v)) for e, ends in edges if v in ends]
                for v in vs}
    return BrauerGraph([(v, 1) for v in vs], edges, rotation)


def quantized_triangle() -> BrauerGraph:
    doc = to_dict(triangle_graph())
    doc["quantizer"] = [{"edge": "e1", "vertex": "alpha", "value": "2"}]
    return from_dict(doc)


def expected_domains(g) -> dict:
    """Per operation, and per edge where it takes one, whether it accepts
    the graph, in the predicates of the graph alone."""
    plain = all(q == 1 for q in g.quantizer.values())
    truncated = any(g.truncated_ends(e) for e in g.edge_ids)
    d = uniform_degree(g)
    simple = is_reduced(g) and not truncated and plain
    two_d = plain and d is not None and d >= 3 and not truncated
    out = {
        "resolve_simple": simple,
        "resolve_simple_2d": two_d,
        "explicit_resolver": ("resolve_simple" if simple else
                              "resolve_simple_2d" if two_d else None),
        "generation_degrees": is_length_graded(g) and not truncated and d is not None,
        "obstruction_element": True,
        "edge_certificates": not truncated,
    }
    for e in g.edge_ids:
        ends = len(g.truncated_ends(e))
        out["iterate_syzygy", e] = is_reduced(g) and plain and ends != 2
        out["brauer_walk", e] = ends == 1
    return out


def _accepts(call) -> bool:
    try:
        call()
    except HypothesisError:
        return False
    return True


def actual_domains(g) -> dict:
    e = g.edge_ids[0]
    resolver = explicit_resolver(g)
    out = {
        "resolve_simple": _accepts(lambda: resolve_simple(g, e, 1)),
        "resolve_simple_2d": _accepts(lambda: resolve_simple_2d(g, e, 1)),
        "explicit_resolver": None if resolver is None else resolver.__name__,
        "generation_degrees": _accepts(lambda: generation_degrees(g, e, 1)),
        "obstruction_element": _accepts(lambda: obstruction_element(g)),
        "edge_certificates": _accepts(lambda: edge_certificates(g, e, 1)),
    }
    for e in g.edge_ids:
        out["iterate_syzygy", e] = _accepts(lambda: iterate_syzygy(g, e, 1))
        out["brauer_walk", e] = _accepts(lambda: g.brauer_walk(e))
    return out


def test_guard_domains(small_census):
    """Over census(4,2), the desk graphs, K4 and a quantized triangle,
    every guarded operation accepts exactly where its conditions hold, and
    the record's facts are the graph's predicates."""
    graphs = (small_census + [g for _, g in desk_graphs()]
              + [k4(), quantized_triangle()])
    accepted, refused = set(), set()
    for g in graphs:
        domains = expected_domains(g)
        assert actual_domains(g) == domains, to_dict(g)
        r = g.regimes
        assert (r.reduced, r.degree, r.length_graded) == (
            is_reduced(g), uniform_degree(g), is_length_graded(g))
        for key, ok in domains.items():
            (accepted if ok else refused).add(key if isinstance(key, str) else key[0])
    # each operation accepts some graph, and each but the obstruction
    # search, which answers on every graph, refuses some graph
    assert accepted == {k if isinstance(k, str) else k[0] for k in domains}
    assert refused == accepted - {"obstruction_element"}
    # K4 is in both resolvers' domains, and they agree there
    assert expected_domains(k4())["resolve_simple_2d"]
    assert resolve_simple_2d(k4(), "ab", 3) == resolve_simple(k4(), "ab", 3)


def test_explicit_resolver_reads_the_module_at_call_time(monkeypatch):
    """A wrapper put on the module's resolver is the one handed out."""
    wrapped = lambda g, e, n: resolve_simple(g, e, n)  # noqa: E731
    monkeypatch.setattr(resolution, "resolve_simple", wrapped)
    assert explicit_resolver(triangle_graph()) is wrapped


def test_explicit_resolution_has_no_obstruction(small_census):
    """A graph with an explicit resolver has no truncated edge, so it has no
    walk witness of the obstruction."""
    graphs = [g for g in small_census if explicit_resolver(g)]
    assert graphs
    assert all(obstruction_element(g) is None for g in graphs)


def test_regimes_built_once_per_graph(monkeypatch):
    """Every reader of a graph's regimes shares one record, built on first
    use."""
    built = Counter()
    build = BrauerGraph.regimes.func

    def counted(self):
        built[id(self)] += 1
        return build(self)

    monkeypatch.setattr(BrauerGraph.regimes, "func", counted)
    graphs = [g for _, g in desk_graphs()] + [k4()]
    for g in graphs:
        assert verify_graph(g, max_degree=2).ok
        koszul_report(g)
        explicit_resolver(g)
    assert all(built[id(g)] == 1 for g in graphs)

