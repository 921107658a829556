"""Rotation-system model of a Brauer graph.

A Brauer graph is a finite connected graph with a cyclic ordering of the
half-edges around every vertex and a positive integer multiplicity per
vertex.  Loops are carried by their two half-edges, so a loop counts twice
in the valency of its vertex and occurs twice in rotation lists.  An
optional quantizer assigns a nonzero rational to every (edge, vertex) pair
whose edge is not truncated at either endpoint; it defaults to 1.

All objects are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence


class BrauerGraphError(ValueError):
    """Malformed graph data, or an operation applied to absent elements."""


class HypothesisError(RuntimeError):
    """An operation was invoked outside the regime where it is defined."""


@dataclass(frozen=True, order=True)
class HalfEdge:
    """One end of an edge; ``end`` is 0 or 1.  A loop owns both ends."""

    edge: str
    end: int

    def other(self) -> "HalfEdge":
        return HalfEdge(self.edge, 1 - self.end)


@dataclass(frozen=True)
class BrauerWalk:
    """A maximal follows-chain between two truncated edges.

    ``via[i]`` is the vertex shared by ``edges[i]`` and ``edges[i+1]``.
    """

    edges: tuple[str, ...]
    via: tuple[str, ...]


@dataclass(frozen=True)
class Regimes:
    """The regimes in which the paper states its answers, read off a graph
    once (``BrauerGraph.regimes``).  Every guard of the combinatorial layer
    and every precondition of ``verify_graph`` reads this record, so a
    regime is widened here alone.  The first fields are facts of the graph,
    the others the domains of operations, each resolver's its own."""

    reduced: bool            # multiplicity one, no loops, no multiple edges
    trivial_quantizer: bool
    single_edge: bool        # the single edge with trivial multiplicities
    truncated: bool          # some edge is truncated
    mixed: bool              # truncated and nontruncated edges coexist
    degree: Optional[int]    # the common valency x multiplicity, or None
    length_graded: bool
    strings: bool            # the string calculus: reduced, trivial quantizer
    syzygies: bool           # strings, but the single edge: the simples' syzygies are strings
    resolve_simple: bool     # reduced, trivial quantizer, no truncated edge
    resolve_simple_2d: bool  # trivial quantizer, no truncated edge, degree >= 3
    graded_positions: bool   # generation_degrees: no truncated edge, a uniform degree


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1  # a refused value is quoted one level deep


def _refuse(value, shape: str, what: str, *args):
    """Refuse a value read from outside that is not ``shape``.  It is named
    by ``what.format(*args)``, built only here, so that reading a valid
    document formats no names."""
    raise BrauerGraphError(f"{what.format(*args)} must be {shape}, not {_SHORT.repr(value)}")


def _as_fraction(value, what: str, *args) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    return _refuse(value, "a rational", what, *args)


def _as_integer(value, what: str, *args) -> int:
    """A JSON integer: ``int()`` would read a float or a boolean as another
    number."""
    return value if type(value) is int else _refuse(value, "an integer", what, *args)


def _as_string(value, what: str, *args) -> str:
    """A JSON string: ``str()`` would read an object as a name and 1 as "1"."""
    return value if type(value) is str else _refuse(value, "a string", what, *args)


class BrauerGraph:
    """A finite graph with per-vertex cyclic half-edge order and multiplicities.

    Construction is lenient: structural problems are reported by
    :func:`validate` rather than raised, so that malformed input files can
    be diagnosed.  Operations on an invalid graph may raise
    :class:`BrauerGraphError`.
    """

    def __init__(
        self,
        vertices: Iterable[tuple[str, int]],
        edges: Iterable[tuple[str, tuple[str, str]]],
        rotation: Mapping[str, Sequence[HalfEdge]],
        quantizer: Optional[Mapping[tuple[str, str], Fraction | int | str]] = None,
    ):
        self.multiplicity_map: dict[str, int] = {}
        self.vertex_ids: list[str] = []
        for v, m in vertices:
            if v in self.multiplicity_map:
                raise BrauerGraphError(f"duplicate vertex id {v!r}")
            self.vertex_ids.append(v)
            self.multiplicity_map[v] = int(m)

        self.edge_ends: dict[str, tuple[str, str]] = {}
        self.edge_ids: list[str] = []
        for e, ends in edges:
            if e in self.edge_ends:
                raise BrauerGraphError(f"duplicate edge id {e!r}")
            self.edge_ids.append(e)
            self.edge_ends[e] = (ends[0], ends[1])

        self.rotation: dict[str, tuple[HalfEdge, ...]] = {
            v: tuple(halves) for v, halves in rotation.items()}

        self.quantizer: dict[tuple[str, str], Fraction] = {}
        if quantizer:
            for (e, v), q in quantizer.items():
                self.quantizer[(e, v)] = _as_fraction(
                    q, "quantizer value of edge {!r} at vertex {!r}", e, v)

        # (vertex, index) of each half-edge actually listed in a rotation
        self._position: dict[HalfEdge, tuple[str, int]] = {}
        for v, halves in self.rotation.items():
            for i, h in enumerate(halves):
                self._position.setdefault(h, (v, i))

    # ------------------------------------------------------------------
    # basic accessors

    def multiplicity(self, v: str) -> int:
        if v not in self.multiplicity_map:
            raise BrauerGraphError(f"unknown vertex {v!r}")
        return self.multiplicity_map[v]

    def valency(self, v: str) -> int:
        if v not in self.multiplicity_map:
            raise BrauerGraphError(f"unknown vertex {v!r}")
        return len(self.rotation.get(v, ()))

    def ends(self, e: str) -> tuple[str, str]:
        if e not in self.edge_ends:
            raise BrauerGraphError(f"unknown edge {e!r}")
        return self.edge_ends[e]

    def is_loop(self, e: str) -> bool:
        a, b = self.ends(e)
        return a == b

    def vertex_of(self, h: HalfEdge) -> str:
        return self.ends(h.edge)[h.end]

    def incident(self, e: str, v: str) -> bool:
        return v in self.ends(e)

    def other_end(self, e: str, v: str) -> str:
        a, b = self.ends(e)
        if self.is_loop(e):
            raise BrauerGraphError(f"edge {e!r} is a loop; its ends coincide")
        if v == a:
            return b
        if v == b:
            return a
        raise BrauerGraphError(f"edge {e!r} is not incident with vertex {v!r}")

    def half_edges_of(self, e: str) -> tuple[HalfEdge, HalfEdge]:
        self.ends(e)
        return (HalfEdge(e, 0), HalfEdge(e, 1))

    def half_at(self, e: str, v: str) -> HalfEdge:
        """The half-edge of a non-loop edge at one of its endpoints."""
        a, b = self.ends(e)
        if self.is_loop(e):
            raise BrauerGraphError(f"edge {e!r} is a loop; specify a half-edge")
        if v == a:
            return HalfEdge(e, 0)
        if v == b:
            return HalfEdge(e, 1)
        raise BrauerGraphError(f"edge {e!r} is not incident with vertex {v!r}")

    def position(self, h: HalfEdge) -> tuple[str, int]:
        if h not in self._position:
            raise BrauerGraphError(f"half-edge {h} does not occur in any rotation")
        return self._position[h]

    # ------------------------------------------------------------------
    # truncation and successors

    @cached_property
    def _truncation(self) -> dict[str, tuple[str, ...]]:
        """Each edge -> the ends at which it is truncated (a vertex of
        valency and multiplicity one), built once per graph on first use;
        every truncation question reads it."""
        return {e: tuple(v for v in dict.fromkeys(self.edge_ends[e])
                         if self.valency(v) == 1 and self.multiplicity(v) == 1)
                for e in self.edge_ids}

    def is_truncated(self, e: str, v: str) -> bool:
        if not self.incident(e, v):
            raise BrauerGraphError(f"edge {e!r} is not incident with vertex {v!r}")
        return v in self._truncation[e]

    def truncated_ends(self, e: str) -> tuple[str, ...]:
        self.ends(e)
        return self._truncation[e]

    def edge_is_truncated(self, e: str) -> bool:
        return bool(self.truncated_ends(e))

    @cached_property
    def regimes(self) -> Regimes:
        """The graph's ``Regimes``, built once on first use.  A uniform
        degree makes the graph length graded, so ``graded_positions`` asks
        only for one and for no truncated edge."""
        reduced, single = is_reduced(self), self.is_a2_trivial()
        plain = all(q == 1 for q in self.quantizer.values())
        truncated, d = any(self._truncation.values()), uniform_degree(self)
        return Regimes(
            reduced=reduced, trivial_quantizer=plain, single_edge=single, truncated=truncated,
            mixed=truncated and not all(self._truncation.values()), degree=d,
            length_graded=is_length_graded(self), strings=reduced and plain,
            syzygies=reduced and plain and not single,
            resolve_simple=reduced and plain and not truncated,
            resolve_simple_2d=plain and not truncated and d is not None and d >= 3,
            graded_positions=not truncated and d is not None)

    def successor_half(self, h: HalfEdge) -> HalfEdge:
        """The half-edge after ``h`` in the cyclic order at its vertex (``h``
        itself when alone there).  With ``follow``, the graph's one step
        around a vertex: every walk, the string calculus's too, uses these."""
        v, i = self.position(h)
        halves = self.rotation[v]
        return halves[(i + 1) % len(halves)]

    def link(self, x: str, y: str) -> str:
        """The unique common endpoint of two distinct edges in a reduced graph."""
        if x == y:
            raise BrauerGraphError(f"edges must be distinct, got {x!r} twice")
        shared = [v for v in set(self.ends(x)) if v in set(self.ends(y))]
        if len(shared) != 1:
            raise BrauerGraphError(
                f"edges {x!r} and {y!r} share {len(shared)} vertices; need exactly one"
            )
        return shared[0]

    def follow(self, h: HalfEdge) -> HalfEdge:
        """One step of a follows-walk: the half-edge after ``h`` at its
        vertex, crossed to the other end of its edge."""
        return self.successor_half(h).other()

    def brauer_walk(self, e: str) -> BrauerWalk:
        """Follows-iteration from a truncated edge to the next truncated edge:
        from the half-edge of ``e`` at its nontruncated end, step with
        ``follow`` until the reached edge is truncated at the reached vertex.
        This ends within 2|E| steps: ``follow`` permutes the half-edges and
        takes the half-edge of ``e`` at its truncated end to the start."""
        if not self.regimes.reduced:
            raise HypothesisError("brauer_walk requires a reduced graph")
        trunc = self.truncated_ends(e)
        if not trunc:
            raise HypothesisError(f"edge {e!r} is not truncated at either endpoint")
        beta = self.other_end(e, trunc[0])
        if self.is_truncated(e, beta):
            raise HypothesisError(
                "walk undefined on the single-edge graph with trivial multiplicities"
            )
        h = self.half_at(e, beta)
        edges, via = [e], []
        while True:
            via.append(self.vertex_of(h))
            h = self.follow(h)
            edges.append(h.edge)
            if self.is_truncated(h.edge, self.vertex_of(h)):
                return BrauerWalk(tuple(edges), tuple(via))

    # ------------------------------------------------------------------
    # global predicates

    def is_connected(self) -> bool:
        if not self.vertex_ids:
            return False
        seen = {self.vertex_ids[0]}
        frontier = [self.vertex_ids[0]]
        adj: dict[str, set[str]] = {v: set() for v in self.vertex_ids}
        for e, (a, b) in self.edge_ends.items():
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertex_ids)

    def nilpotency_bound(self) -> int:
        """Largest valency-times-multiplicity; paths longer than this vanish."""
        return max(self.valency(v) * self.multiplicity(v) for v in self.vertex_ids)

    def is_a2_trivial(self) -> bool:
        """Single non-loop edge with multiplicity one at both endpoints."""
        if len(self.edge_ids) != 1 or len(self.vertex_ids) != 2:
            return False
        e = self.edge_ids[0]
        return not self.is_loop(e) and all(
            self.multiplicity(v) == 1 for v in self.vertex_ids
        )

    def quantizer_value(self, e: str, v: str) -> Fraction:
        return self.quantizer.get((e, v), Fraction(1))


# ----------------------------------------------------------------------
# module-level operations


def validate(g: BrauerGraph) -> ValidationReport:
    """Report every violated structural invariant; an empty report is well-formed."""
    report = ValidationReport()
    if not g.edge_ids:
        report.add("graph has no edges")
    for e, (a, b) in g.edge_ends.items():
        for v in (a, b):
            if v not in g.multiplicity_map:
                report.add(f"edge {e} references unknown vertex {v}")
    for v, m in g.multiplicity_map.items():
        if m < 1:
            report.add(f"multiplicity at {v} must be at least 1, got {m}")
    for v in g.rotation:
        if v not in g.multiplicity_map:
            report.add(f"rotation given for unknown vertex {v}")

    # each vertex must list exactly its incident half-edges, once each
    incident: dict[str, list[HalfEdge]] = {v: [] for v in g.vertex_ids}
    for e, (a, b) in g.edge_ends.items():
        if a in incident:
            incident[a].append(HalfEdge(e, 0))
        if b in incident:
            incident[b].append(HalfEdge(e, 1))
    for v in g.vertex_ids:
        listed = list(g.rotation.get(v, ()))
        if sorted(listed) != sorted(incident[v]):
            report.add(f"rotation/incidence mismatch at {v}")

    if g.vertex_ids and g.edge_ids and not g.is_connected():
        report.add("graph is not connected")

    ok_structure = report.ok
    for (e, v), q in g.quantizer.items():
        if q == 0:
            report.add(f"quantizer value for ({e}, {v}) is zero")
        if e not in g.edge_ends or v not in g.multiplicity_map:
            report.add(f"quantizer key ({e}, {v}) references unknown elements")
            continue
        if ok_structure:
            if not g.incident(e, v) or g.edge_is_truncated(e):
                report.add(f"quantizer key outside X_Gamma: ({e}, {v})")
    return report


def is_reduced(g: BrauerGraph) -> bool:
    """Multiplicity one everywhere, no loops, no multiple edges."""
    if any(g.multiplicity(v) != 1 for v in g.vertex_ids):
        return False
    seen_pairs = set()
    for e in g.edge_ids:
        a, b = g.ends(e)
        if a == b:
            return False
        key = frozenset((a, b))
        if key in seen_pairs:
            return False
        seen_pairs.add(key)
    return True


def is_length_graded(g: BrauerGraph) -> bool:
    """Every doubly-nontruncated edge sees equal valency-times-multiplicity."""
    for e in g.edge_ids:
        if g.edge_is_truncated(e):
            continue
        a, b = g.ends(e)
        if g.valency(a) * g.multiplicity(a) != g.valency(b) * g.multiplicity(b):
            return False
    return True


def uniform_degree(g: BrauerGraph) -> Optional[int]:
    """The common valency x multiplicity of every vertex, or None."""
    vals = {g.valency(v) * g.multiplicity(v) for v in g.vertex_ids}
    return vals.pop() if len(vals) == 1 else None


def star_centers(g: BrauerGraph) -> list[str]:
    """Vertices exhibiting the graph as a star (center + valency-one tips)."""
    out = []
    if any(g.is_loop(e) for e in g.edge_ids):
        return out
    for c in g.vertex_ids:
        if g.valency(c) != len(g.edge_ids):
            continue
        tips = [g.other_end(e, c) for e in g.edge_ids]
        if len(set(tips)) == len(tips) and all(g.valency(t) == 1 for t in tips):
            out.append(c)
    return out


# ----------------------------------------------------------------------
# constructors and serialization


def path_graph(n_vertices: int, multiplicities: Optional[Sequence[int]] = None) -> BrauerGraph:
    """The line graph on ``n_vertices`` vertices v1..vn with edges e1..e(n-1)."""
    if n_vertices < 2:
        raise BrauerGraphError("a path needs at least two vertices")
    ms = list(multiplicities) if multiplicities else [1] * n_vertices
    vertices = [(f"v{i + 1}", ms[i]) for i in range(n_vertices)]
    edges = [(f"e{i + 1}", (f"v{i + 1}", f"v{i + 2}")) for i in range(n_vertices - 1)]
    rotation: dict[str, list[HalfEdge]] = {f"v{i + 1}": [] for i in range(n_vertices)}
    for i in range(n_vertices - 1):
        rotation[f"v{i + 1}"].append(HalfEdge(f"e{i + 1}", 0))
        rotation[f"v{i + 2}"].append(HalfEdge(f"e{i + 1}", 1))
    return BrauerGraph(vertices, edges, rotation)


def cycle_graph(n_edges: int, multiplicity: int = 1) -> BrauerGraph:
    """The circular graph with ``n_edges`` edges and as many vertices."""
    if n_edges < 2:
        raise BrauerGraphError("a cycle needs at least two edges; use loop_graph")
    vertices = [(f"v{i + 1}", multiplicity) for i in range(n_edges)]
    edges = [
        (f"e{i + 1}", (f"v{i + 1}", f"v{(i + 1) % n_edges + 1}")) for i in range(n_edges)
    ]
    rotation: dict[str, list[HalfEdge]] = {v: [] for v, _ in vertices}
    for i in range(n_edges):
        e, (a, b) = edges[i]
        rotation[a].append(HalfEdge(e, 0))
        rotation[b].append(HalfEdge(e, 1))
    return BrauerGraph(vertices, edges, rotation)


def star_graph(n_edges: int, center_multiplicity: int = 1,
               outer_multiplicities: Optional[Sequence[int]] = None) -> BrauerGraph:
    """A star with center c and edges e1..en to tips t1..tn, in rotation order."""
    if n_edges < 1:
        raise BrauerGraphError("a star needs at least one edge")
    outer = list(outer_multiplicities) if outer_multiplicities else [1] * n_edges
    vertices = [("c", center_multiplicity)] + [
        (f"t{i + 1}", outer[i]) for i in range(n_edges)
    ]
    edges = [(f"e{i + 1}", ("c", f"t{i + 1}")) for i in range(n_edges)]
    rotation = {"c": [HalfEdge(f"e{i + 1}", 0) for i in range(n_edges)]}
    for i in range(n_edges):
        rotation[f"t{i + 1}"] = [HalfEdge(f"e{i + 1}", 1)]
    return BrauerGraph(vertices, edges, rotation)


def loop_graph(multiplicity: int = 1) -> BrauerGraph:
    """A single loop at one vertex."""
    return BrauerGraph(
        [("v1", multiplicity)],
        [("e1", ("v1", "v1"))],
        {"v1": [HalfEdge("e1", 0), HalfEdge("e1", 1)]},
    )


def triangle_graph(multiplicity: int = 1) -> BrauerGraph:
    """The three-cycle with rotation [e1,e3] at alpha, [e1,e2] at beta, [e2,e3] at gamma."""
    vertices = [("alpha", multiplicity), ("beta", multiplicity), ("gamma", multiplicity)]
    edges = [
        ("e1", ("alpha", "beta")),
        ("e2", ("beta", "gamma")),
        ("e3", ("gamma", "alpha")),
    ]
    rotation = {
        "alpha": [HalfEdge("e1", 0), HalfEdge("e3", 1)],
        "beta": [HalfEdge("e1", 1), HalfEdge("e2", 0)],
        "gamma": [HalfEdge("e2", 1), HalfEdge("e3", 0)],
    }
    return BrauerGraph(vertices, edges, rotation)


def _list(value, what: str, *args) -> list:
    return value if isinstance(value, list) else _refuse(value, "a list", what, *args)


def _pair(value, what: str, *args) -> list:
    if isinstance(value, list) and len(value) == 2:
        return value
    return _refuse(value, "a list of two", what, *args)


def _member(obj, key: str, what: str, *args):
    """``obj[key]`` of the JSON object named ``what.format(*args)``."""
    if isinstance(obj, dict) and key in obj:
        return obj[key]
    if isinstance(obj, dict):
        raise BrauerGraphError(f"{what.format(*args)} has no {key!r}")
    return _refuse(obj, "an object", what, *args)


def from_dict(doc: dict) -> BrauerGraph:
    """The graph of a ``.bg.json`` document; anything that does not read as
    one raises ``BrauerGraphError`` naming the field, and the vertex or edge
    where there is one."""
    try:
        vertices = []
        for k, v in enumerate(_list(_member(doc, "vertices", "the document"), "vertices")):
            vid = _as_string(_member(v, "id", "vertex #{}", k + 1), "id of vertex #{}", k + 1)
            vertices.append((vid, _as_integer(v.get("multiplicity", 1),
                                              "multiplicity of vertex {!r}", vid)))
        edges = []
        for k, e in enumerate(_list(_member(doc, "edges", "the document"), "edges")):
            eid = _as_string(_member(e, "id", "edge #{}", k + 1), "id of edge #{}", k + 1)
            ends = _pair(_member(e, "ends", "edge {!r}", eid), "ends of edge {!r}", eid)
            edges.append((eid, tuple(_as_string(x, "end of edge {!r}", eid) for x in ends)))
        rotation = doc.get("rotation", {})
        if not isinstance(rotation, dict):
            _refuse(rotation, "an object", "rotation")
        # each half-edge is checked to be a pair before its end is read
        rotation = {
            str(v): [HalfEdge(_as_string(_pair(h, "half-edge at vertex {!r}", v)[0],
                                         "half-edge edge at vertex {!r}", v),
                              _as_integer(h[1], "half-edge end at vertex {!r}", v))
                     for h in _list(halves, "rotation at vertex {!r}", v)]
            for v, halves in rotation.items()
        }
        quantizer = {}
        for k, q in enumerate(_list(doc.get("quantizer", []), "quantizer")):
            e, v = (_as_string(_member(q, key, "quantizer entry #{}", k + 1),
                               "{} of quantizer entry #{}", key, k + 1)
                    for key in ("edge", "vertex"))
            quantizer[(e, v)] = _as_fraction(
                _member(q, "value", "quantizer entry of edge {!r} at vertex {!r}", e, v),
                "quantizer value of edge {!r} at vertex {!r}", e, v)
    except BrauerGraphError as exc:
        raise BrauerGraphError(f"malformed graph document: {exc}") from None
    return BrauerGraph(vertices, edges, rotation, quantizer)


def to_dict(g: BrauerGraph) -> dict:
    doc: dict = {
        "vertices": [
            {"id": v, "multiplicity": g.multiplicity(v)} for v in g.vertex_ids
        ],
        "edges": [{"id": e, "ends": list(g.ends(e))} for e in g.edge_ids],
        "rotation": {
            v: [[h.edge, h.end] for h in g.rotation.get(v, ())] for v in g.vertex_ids
        },
    }
    if g.quantizer:
        doc["quantizer"] = [
            {"edge": e, "vertex": v, "value": str(q)}
            for (e, v), q in sorted(g.quantizer.items())
        ]
    return doc


def load_file(path: str) -> BrauerGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BrauerGraphError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BrauerGraphError(f"not valid JSON in {path}: {exc}") from exc
    return from_dict(doc)
