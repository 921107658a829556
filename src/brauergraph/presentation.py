"""Quiver and relations of the algebra attached to a Brauer graph.

The quiver has one vertex per edge of the graph.  Arrows correspond to
positions in the rotation lists: the arrow at (vertex v, position r) goes
from the edge listed at position r to the edge at position r+1, and exists
whenever the listed edge is not truncated at v.  Working positionally makes
loops unambiguous without choosing a distinguished edge.

Relations come in three kinds:

* ``one``  - for an edge untruncated at both ends, the two full cycle
  powers around its endpoints agree up to the quantizer coefficients;
* ``two``  - for an edge truncated at one end, the cycle power around the
  other end composed with one more arrow vanishes;
* ``three`` - a composable arrow pair vanishes unless the second arrow is
  the rotational continuation of the first.

The single edge with trivial multiplicities (``Regimes.single_edge``) gets
the loop quiver with the square of its loop as the only relation; every
other rule treats it like any other graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import BrauerGraph, BrauerGraphError, HalfEdge, HypothesisError


@dataclass(frozen=True, order=True)
class Arrow:
    vertex: str
    pos: int
    source: str
    target: str
    name: str = ""

    def __repr__(self):
        return self.name or f"a({self.source},{self.target}|{self.vertex}:{self.pos})"


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; paths compose left to right."""

    source: str
    target: str
    arrows: tuple[Arrow, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __mul__(self, other: "Path") -> "Path":
        if self.target != other.source:
            raise BrauerGraphError(
                f"paths not composable: {self.target!r} vs {other.source!r}"
            )
        return Path(self.source, other.target, self.arrows + other.arrows)

    def __repr__(self):
        if not self.arrows:
            return f"id({self.source})"
        return "".join(a.name for a in self.arrows)


def identity_path(edge: str) -> Path:
    return Path(edge, edge, ())


class Quiver:
    """Vertices and arrows.  ``arrow_at`` and ``index_at`` take an arrow's
    ``(vertex, pos)``, its place in the rotation at its vertex, to the
    arrow and to its index in ``arrows``; ``arrows_from`` lists the arrows
    leaving each quiver vertex."""

    def __init__(self, vertices: list[str], arrows: list[Arrow]):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        self.arrow_at: dict[tuple[str, int], Arrow] = {
            (a.vertex, a.pos): a for a in self.arrows
        }
        self.arrows_from: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_from[a.source].append(a)
        self.index_at: dict[tuple[str, int], int] = {
            (a.vertex, a.pos): i for i, a in enumerate(self.arrows)
        }


@dataclass(frozen=True)
class Relation:
    kind: str  # "one" | "two" | "three"
    edge: Optional[str]
    vertices: tuple[str, ...]
    terms: tuple[tuple[Fraction, Path], ...]

    @property
    def source(self) -> str:
        return self.terms[0][1].source

    @property
    def target(self) -> str:
        return self.terms[0][1].target

    def lengths(self) -> tuple[int, ...]:
        return tuple(t[1].length for t in self.terms)

    def is_length_homogeneous(self) -> bool:
        return len(set(self.lengths())) == 1


@dataclass(frozen=True)
class Homogeneity:
    kind: str  # "Quadratic" | "DHomogeneous" | "TwoDHomogeneous" | "Inhomogeneous"
    d: Optional[int] = None

    def __repr__(self):
        return self.kind if self.d is None else f"{self.kind}({self.d})"


class Presentation:
    def __init__(self, graph: BrauerGraph, quiver: Quiver,
                 all_relations: list[Relation], minimal: list[Relation]):
        self.graph = graph
        self.quiver = quiver
        self.all_relations = all_relations
        self.minimal_relations = minimal


# ----------------------------------------------------------------------
# quiver construction


def build_quiver(g: BrauerGraph) -> Quiver:
    if g.regimes.single_edge:
        e = g.edge_ids[0]
        loop = Arrow(vertex=g.ends(e)[0], pos=0, source=e, target=e, name="x")
        return Quiver([e], [loop])

    raw: list[tuple[str, int, str, str]] = []
    for v in g.vertex_ids:
        halves = g.rotation.get(v, ())
        val = len(halves)
        if val == 0:
            continue
        if val == 1 and g.multiplicity(v) == 1:
            continue  # the edge is truncated at v: no arrow leaves here
        for r in range(val):
            src = halves[r].edge
            tgt = halves[(r + 1) % val].edge
            raw.append((v, r, src, tgt))

    counts: dict[tuple[str, str], int] = {}
    for _, _, src, tgt in raw:
        counts[(src, tgt)] = counts.get((src, tgt), 0) + 1
    seen: dict[tuple[str, str], int] = {}
    arrows = []
    for v, r, src, tgt in raw:
        if counts[(src, tgt)] == 1:
            name = f"a({src},{tgt})"
        else:
            k = seen.get((src, tgt), 0)
            seen[(src, tgt)] = k + 1
            name = f"a({src},{tgt}#{k})"
        arrows.append(Arrow(vertex=v, pos=r, source=src, target=tgt, name=name))
    return Quiver(list(g.edge_ids), arrows)


def arrow_run(g: BrauerGraph, q: Quiver, vertex: str, start_pos: int, length: int) -> Path:
    """The path of ``length`` consecutive arrows at ``vertex`` from ``start_pos``."""
    val = g.valency(vertex)
    arrows = tuple(
        q.arrow_at[(vertex, (start_pos + k) % val)] for k in range(length)
    )
    if not arrows:
        edge = g.rotation[vertex][start_pos % val].edge
        return identity_path(edge)
    return Path(arrows[0].source, arrows[-1].target, arrows)


def cycle_half(g: BrauerGraph, q: Quiver, h: HalfEdge) -> Path:
    """The full cycle around the vertex of ``h`` starting at its position."""
    v, pos = g.position(h)
    return arrow_run(g, q, v, pos, g.valency(v))


# ----------------------------------------------------------------------
# relations


def relations_all(g: BrauerGraph, q: Optional[Quiver] = None) -> list[Relation]:
    q = q or build_quiver(g)
    if g.regimes.single_edge:
        x = q.arrows[0]
        e = g.edge_ids[0]
        square = Path(e, e, (x, x))
        return [Relation("two", e, tuple(g.vertex_ids), ((Fraction(1), square),))]

    rels: list[Relation] = []
    for e in g.edge_ids:
        if g.edge_is_truncated(e):
            continue
        h0, h1 = g.half_edges_of(e)
        a, b = g.vertex_of(h0), g.vertex_of(h1)
        ca = cycle_half(g, q, h0)
        cb = cycle_half(g, q, h1)
        wa = _power(ca, g.multiplicity(a))
        wb = _power(cb, g.multiplicity(b))
        qa, qb = g.quantizer_value(e, a), g.quantizer_value(e, b)
        rels.append(Relation("one", e, (a, b), ((qa, wa), (-qb, wb))))

    for e in g.edge_ids:
        trunc = g.truncated_ends(e)
        if not trunc:
            continue
        alpha = trunc[0]
        beta = g.other_end(e, alpha)
        if g.is_truncated(e, beta):
            raise HypothesisError(
                "the single-edge trivial graph must use its special presentation"
            )
        hb = g.half_at(e, beta)
        c = cycle_half(g, q, hb)
        word = _power(c, g.multiplicity(beta)) * Path(e, c.arrows[0].target, (c.arrows[0],))
        rels.append(Relation("two", e, (alpha, beta), ((Fraction(1), word),)))

    for a in q.arrows:
        # a's rotational continuation; every other composable pair is a relation
        cont = q.arrow_at[(a.vertex, (a.pos + 1) % g.valency(a.vertex))]
        for b in q.arrows_from.get(a.target, ()):
            if b is not cont:
                rels.append(
                    Relation(
                        "three",
                        None,
                        (a.vertex, b.vertex),
                        ((Fraction(1), Path(a.source, b.target, (a, b))),),
                    )
                )
    return rels


def _power(c: Path, k: int) -> Path:
    """The k-th power of the cycle ``c``, its arrows repeated in one tuple."""
    return Path(c.source, c.target, c.arrows * k)


def far_successor_truncated(g: BrauerGraph, e: str) -> bool:
    """For an edge truncated at one end: is the successor of ``e`` around
    its other end truncated at its own far end?"""
    beta = g.other_end(e, g.truncated_ends(e)[0])
    h = g.follow(g.half_at(e, beta))
    return g.is_truncated(h.edge, g.vertex_of(h))


def minimal_relations(g: BrauerGraph, rels: list[Relation]) -> list[Relation]:
    """Of the relations ``rels`` of ``g``, keep every kind-one and
    kind-three relation; keep a kind-two relation exactly when
    ``far_successor_truncated`` holds for its edge."""
    return [r for r in rels if r.kind != "two" or far_successor_truncated(g, r.edge)]


def present(g: BrauerGraph) -> Presentation:
    q = build_quiver(g)
    rels = relations_all(g, q)
    return Presentation(g, q, rels, minimal_relations(g, rels))


def homogeneity(g: BrauerGraph, pres: Optional[Presentation] = None) -> Homogeneity:
    """Classify the multiset of lengths in a minimal generating set;
    ``pres``, when given, is the presentation of ``g``."""
    pres = pres or present(g)
    lengths: set[int] = set()
    for r in pres.minimal_relations:
        if not r.is_length_homogeneous():
            return Homogeneity("Inhomogeneous")
        lengths.add(r.lengths()[0])
    if lengths == {2}:
        return Homogeneity("Quadratic", 2)
    if len(lengths) == 1:
        (d,) = lengths
        return Homogeneity("DHomogeneous", d)
    if len(lengths) == 2 and 2 in lengths:
        d = max(lengths)
        return Homogeneity("TwoDHomogeneous", d)
    return Homogeneity("Inhomogeneous")


# ----------------------------------------------------------------------
# serialization


def quiver_to_dot(q: Quiver) -> str:
    lines = ["digraph quiver {"]
    for v in q.vertices:
        lines.append(f'  "{v}";')
    for a in q.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines)


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target,
             "vertex": a.vertex, "pos": a.pos}
            for a in q.arrows
        ],
    }


def relation_to_dict(r: Relation) -> dict:
    return {
        "kind": r.kind,
        "edge": r.edge,
        "vertices": list(r.vertices),
        "paths": [[a.name for a in p.arrows] for _, p in r.terms],
        "coefficients": [str(c) for c, _ in r.terms],
    }
