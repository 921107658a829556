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


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise BrauerGraphError(f"cannot read rational value {value!r}")


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
        rotation: Mapping[str, Sequence[HalfEdge | tuple[str, int]]],
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

        self.rotation: dict[str, tuple[HalfEdge, ...]] = {}
        for v, halves in rotation.items():
            out = []
            for h in halves:
                if not isinstance(h, HalfEdge):
                    h = HalfEdge(h[0], int(h[1]))
                out.append(h)
            self.rotation[v] = tuple(out)

        self.quantizer: dict[tuple[str, str], Fraction] = {}
        if quantizer:
            for (e, v), q in quantizer.items():
                self.quantizer[(e, v)] = _as_fraction(q)

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

    def has_truncated_edge(self) -> bool:
        return any(self._truncation.values())

    def has_nontruncated_edge(self) -> bool:
        return not all(self._truncation.values())

    def successor_half(self, h: HalfEdge) -> HalfEdge:
        v, i = self.position(h)
        halves = self.rotation[v]
        return halves[(i + 1) % len(halves)]

    def successor(self, e: str, v: str) -> str:
        """The edge directly after ``e`` in the cyclic order at ``v``.

        A valency-one edge is its own successor.  For a loop at ``v`` the
        answer depends on the half-edge, so this overload refuses.
        """
        if not self.incident(e, v):
            raise BrauerGraphError(f"edge {e!r} is not incident with vertex {v!r}")
        if self.is_loop(e) and self.ends(e)[0] == v:
            raise BrauerGraphError(
                f"edge {e!r} is a loop at {v!r}; use successor_half on a half-edge"
            )
        if self.valency(v) == 1:
            return e
        return self.successor_half(self.half_at(e, v)).edge

    def successor_sequence_halves(self, h: HalfEdge) -> list[HalfEdge]:
        v, _ = self.position(h)
        out = [h]
        cur = h
        for _ in range(self.valency(v) - 1):
            cur = self.successor_half(cur)
            out.append(cur)
        return out

    def successor_sequence(self, e: str, v: str) -> list[str]:
        """Edges around ``v`` in cyclic order starting at ``e`` (loops twice)."""
        if not self.incident(e, v):
            raise BrauerGraphError(f"edge {e!r} is not incident with vertex {v!r}")
        if self.is_truncated(e, v):
            raise BrauerGraphError(
                f"edge {e!r} is truncated at {v!r}; no successor sequence there"
            )
        if self.is_loop(e):
            raise BrauerGraphError(
                f"edge {e!r} is a loop; use successor_sequence_halves"
            )
        return [h.edge for h in self.successor_sequence_halves(self.half_at(e, v))]

    def occurs_in_successor_sequence(self, t: str, s: str, v: str) -> bool:
        """True when ``t`` appears (other than in position 0) around ``v`` seen from ``s``."""
        if not self.incident(s, v) or self.is_truncated(s, v):
            return False
        if self.is_loop(s) or self.is_loop(t):
            raise BrauerGraphError("occurrence test requires non-loop edges")
        return self.incident(t, v) and t != s

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

    def follows(self, s_prev: str, s: str, shared: str) -> tuple[str, str]:
        """Step of the syzygy recursion.

        Given that ``s_prev`` sits in the successor sequence of ``s`` at
        ``shared``, returns the successor of ``s`` at its other endpoint,
        together with that endpoint.
        """
        if not self.occurs_in_successor_sequence(s_prev, s, shared):
            raise BrauerGraphError(
                f"edge {s_prev!r} does not occur in the successor sequence "
                f"of {s!r} at {shared!r}"
            )
        beta = self.other_end(s, shared)
        return (self.successor(s, beta), beta)

    def brauer_walk(self, e: str) -> BrauerWalk:
        """Follows-iteration from a truncated edge to the next truncated edge."""
        if not is_reduced(self):
            raise HypothesisError("brauer_walk requires a reduced graph")
        trunc = self.truncated_ends(e)
        if not trunc:
            raise HypothesisError(f"edge {e!r} is not truncated at either endpoint")
        alpha = trunc[0]
        beta = self.other_end(e, alpha)
        if self.is_truncated(e, beta):
            raise HypothesisError(
                "walk undefined on the single-edge graph with trivial multiplicities"
            )
        edges = [e]
        via = []
        prev, cur, shared = e, self.successor(e, beta), beta
        edges.append(cur)
        via.append(beta)
        cap = 4 * len(self.edge_ids) + 4
        while True:
            exit_v = self.other_end(cur, shared)
            if self.is_truncated(cur, exit_v):
                break
            nxt, v = self.follows(prev, cur, shared)
            prev, cur, shared = cur, nxt, v
            edges.append(cur)
            via.append(shared)
            if len(edges) > cap:
                raise BrauerGraphError("walk failed to terminate; graph is not reduced?")
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

    def quantizer_trivial(self) -> bool:
        return all(q == 1 for q in self.quantizer.values())


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


def recognize_family(g: BrauerGraph) -> str:
    """One of ``A_n``, ``A~_n``, ``Star``, ``Loop``, ``Other``.

    Paths are reported as ``A_n`` even when they are also one- or two-edge
    stars; star-shaped criteria consult :func:`star_centers` instead.
    """
    n_v, n_e = len(g.vertex_ids), len(g.edge_ids)
    if n_e == 1 and g.is_loop(g.edge_ids[0]):
        return "Loop"
    if any(g.is_loop(e) for e in g.edge_ids):
        return "Other"
    if not g.is_connected():
        return "Other"
    multiple = len({frozenset(g.ends(e)) for e in g.edge_ids}) < n_e
    valencies = [g.valency(v) for v in g.vertex_ids]
    if not multiple and n_e == n_v - 1 and all(k <= 2 for k in valencies):
        return "A_n"
    if n_e == n_v and all(k == 2 for k in valencies):
        return "A~_n"
    if star_centers(g):
        return "Star"
    return "Other"


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


def from_dict(doc: dict) -> BrauerGraph:
    try:
        vertices = [(str(v["id"]), int(v.get("multiplicity", 1))) for v in doc["vertices"]]
        edges = [(str(e["id"]), (str(e["ends"][0]), str(e["ends"][1]))) for e in doc["edges"]]
        rotation = {
            str(v): [HalfEdge(str(pair[0]), int(pair[1])) for pair in halves]
            for v, halves in doc.get("rotation", {}).items()
        }
        quantizer = {
            (str(q["edge"]), str(q["vertex"])): _as_fraction(q["value"])
            for q in doc.get("quantizer", [])
        }
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise BrauerGraphError(f"malformed graph document: {exc}") from exc
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
