"""Minimal projective resolutions of simple modules, with explicit
path-matrix differentials, canonical cohomology bases, the generator
degrees of the length-graded resolutions, and the high-degree obstruction
element.  Ext dimensions are read off the string syzygies
(``strings.iterate_syzygy``).

The n-th projective has one summand per position -n, -n+2, ..., n; the
summand edges are read off the follows-walk (``BrauerGraph.follow``) out
of both ends of the start edge, and consecutive positions are linked by
the half-edge the walk crosses between them.  Row i of the n-th
differential carries the summand of the previous projective at position
-n+1+2i; its diagonal entry connects toward position -n+2i and its
superdiagonal entry toward position -n+2i+2.  Each entry is read at the
vertex of the linking half-edge: a single arrow when it points away from
position zero, the run of length (valency x multiplicity) - 1 after that
arrow when it points toward zero; diagonal entries of even differentials
carry a minus sign.  With multiplicity one this is the classical resolution
of a reduced graph without truncated edges; in general it covers every
graph whose vertices all satisfy valency x multiplicity = d.

So the entries form a table of at most two paths per half-edge, keyed by
the half-edge and whether the entry points toward zero, and every edge's
resolution reads it.  A ``Tables`` holds that table, a quiver and one
chain per edge; the resolvers and ``edge_certificates`` read the one a
caller passes (``verify_graph`` builds one per call), and a call given
none builds its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graph import BrauerGraph, HalfEdge, HypothesisError
from .presentation import Path, Quiver, arrow_run, build_quiver
from .strings import iterate_syzygy


@dataclass(frozen=True)
class ResolutionStep:
    degree: int
    summands: tuple[tuple[int, str], ...]  # (position, edge)
    differential: dict  # (row, col) -> (sign, Path); empty in degree zero
    generation_degrees: Optional[tuple[tuple[int, int], ...]] = None  # (position, degree)

    def to_json(self) -> dict:
        doc: dict = {
            "degree": self.degree,
            "summands": [
                [pos, edge] + (
                    [dict(self.generation_degrees)[pos]]
                    if self.generation_degrees is not None else []
                )
                for pos, edge in self.summands
            ],
            "differential": [
                {
                    "row": r,
                    "col": c,
                    "sign": sign,
                    "path": [a.name for a in path.arrows],
                }
                for (r, c), (sign, path) in sorted(self.differential.items())
            ],
        }
        return doc


@dataclass(frozen=True)
class CanonicalExtElement:
    source: str   # start edge (simple module being resolved)
    degree: int
    position: int
    target: str   # edge of the summand at that position

    def __post_init__(self):
        if abs(self.position) > self.degree or (self.position - self.degree) % 2:
            raise HypothesisError("position must match the degree parity and range")


@dataclass(frozen=True)
class GenerationCertificate:
    element: CanonicalExtElement
    # pair of certificates; empty for leaves, which are the degree-one classes
    # and the degree-two class at position zero (positions +-2 split in two)
    factors: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return not self.factors

    def leaves(self) -> list[CanonicalExtElement]:
        if self.is_leaf:
            return [self.element]
        out = []
        for f in self.factors:
            out.extend(f.leaves())
        return out


# ----------------------------------------------------------------------
# the follows-chain at half-edge level


class _Chain:
    """Edges at positions -N..N around a start edge (N is ``depth``), and
    the half-edges that link them.

    ``gap[r]`` for -N <= r < N is the half-edge crossed between positions r
    and r+1.  It belongs to the edge nearer position zero, and its successor
    at its vertex to the edge farther out, whose other half-edge
    (``follow`` of it) is the next gap out.  The plus side leaves through
    end 1 of the start edge and the minus side through end 0; this input
    ordering of the ends is the only orientation choice.
    """

    def __init__(self, g: BrauerGraph, e: str, n: int):
        self.depth = n
        self.edge: dict[int, str] = {0: e}
        self.gap: dict[int, HalfEdge] = {}
        for sign, h in zip((-1, 1), g.half_edges_of(e)):
            for r in range(0, sign * n, sign):
                self.gap[min(r, r + sign)] = h
                h = g.follow(h)
                self.edge[r + sign] = h.edge


class Tables:
    """What the resolutions of one graph share: the quiver (built on first
    read when none is given), the differential entries keyed by (linking
    half-edge, toward position zero?) and the chain of each start edge."""

    def __init__(self, g: BrauerGraph, quiver: Optional[Quiver] = None):
        self.g = g
        self.quiver = quiver
        self.entries: dict[tuple[HalfEdge, bool], Path] = {}
        self.chains: dict[str, _Chain] = {}

    def chain(self, e: str, n: int) -> _Chain:
        """A chain around ``e`` through positions -n..n; a deeper one kept
        serves."""
        chain = self.chains.get(e)
        if chain is None or chain.depth < n:
            chain = self.chains[e] = _Chain(self.g, e, n)
        return chain

    def entry(self, h: HalfEdge, toward: bool) -> Path:
        """The entry across the linking half-edge ``h``, read at its vertex:
        the run of length (valency x multiplicity) - 1 after ``h``'s arrow
        when it points toward position zero, that one arrow otherwise."""
        path = self.entries.get((h, toward))
        if path is None:
            g = self.g
            if self.quiver is None:
                self.quiver = build_quiver(g)
            v, pos = g.position(h)
            path = (arrow_run(g, self.quiver, v, pos + 1,
                              g.valency(v) * g.multiplicity(v) - 1) if toward
                    else arrow_run(g, self.quiver, v, pos, 1))
            self.entries[h, toward] = path
        return path


def _tables(g: BrauerGraph, tables: Optional[Tables]) -> Tables:
    """``tables`` when they are ``g``'s, new ones when None; tables of
    another graph are refused."""
    if tables is None:
        return Tables(g)
    if tables.g is not g:
        raise ValueError("the tables are those of another graph")
    return tables


def _resolve(tables: Tables, e: str, n_max: int,
             graded_d: Optional[int]) -> list[ResolutionStep]:
    chain = tables.chain(e, n_max)
    # the entries out of the summand at position r toward r - 1 and r + 1:
    # toward zero exactly on the side of r's own sign
    rows = range(-n_max + 1, n_max)
    down = {r: tables.entry(chain.gap[r - 1], r > 0) for r in rows}
    up = {r: tables.entry(chain.gap[r], r < 0) for r in rows}
    steps = [ResolutionStep(0, ((0, e),), {},
                            ((0, 0),) if graded_d is not None else None)]
    for n in range(1, n_max + 1):
        summands = tuple((p, chain.edge[p]) for p in range(-n, n + 1, 2))
        diff: dict = {}
        sign_diag = -1 if n % 2 == 0 else 1
        for i in range(n):
            r = -n + 1 + 2 * i  # position of row summand in the previous step
            diff[(i, i)] = (sign_diag, down[r])
            diff[(i, i + 1)] = (1, up[r])
        gen = None
        if graded_d is not None:
            gen = tuple(
                (p, n + ((n - abs(p)) // 2) * (graded_d - 2))
                for p in range(-n, n + 1, 2)
            )
        steps.append(ResolutionStep(n, summands, diff, gen))
    return steps


def resolve_simple(g: BrauerGraph, e: str, n_max: int,
                   tables: Optional[Tables] = None) -> list[ResolutionStep]:
    """Minimal resolution of the simple at ``e`` on a reduced graph with no
    truncated edges and the trivial quantizer."""
    if not g.regimes.resolve_simple:
        raise HypothesisError("resolve_simple requires a reduced graph with no "
                              "truncated edges and the trivial quantizer")
    return _resolve(_tables(g, tables), e, n_max, g.regimes.degree)


def resolve_simple_2d(g: BrauerGraph, e: str, n_max: int,
                      tables: Optional[Tables] = None) -> list[ResolutionStep]:
    """Minimal resolution when every vertex has valency x multiplicity = d >= 3.

    Loops and multiple edges are fine: the chain walks half-edges.  It also
    needs the trivial quantizer and no truncated edges.
    """
    if not g.regimes.resolve_simple_2d:
        raise HypothesisError("resolve_simple_2d requires the trivial quantizer, no "
                              "truncated edges and valency x multiplicity = d >= 3 "
                              "at every vertex")
    return _resolve(_tables(g, tables), e, n_max, g.regimes.degree)


def explicit_resolver(g: BrauerGraph) -> Optional[Callable]:
    """The resolver of the path-matrix resolutions of ``g``'s simples, or
    None when the graph has none.  Both resolvers need the trivial
    quantizer and no truncated edge; ``resolve_simple`` takes a reduced
    graph, and ``resolve_simple_2d`` one whose vertices all have valency x
    multiplicity = d >= 3.  Each domain is read off ``g.regimes``."""
    if g.regimes.resolve_simple:
        return resolve_simple
    return resolve_simple_2d if g.regimes.resolve_simple_2d else None


# ----------------------------------------------------------------------
# Ext dimensions and degrees


def ext_dim(g: BrauerGraph, s: str, t: str, n: int) -> int:
    """dim Ext^n between the simples at ``s`` and ``t``: the number of plus
    entries equal to ``t`` in the degree-n syzygy descriptor of ``s``."""
    for e in (s, t):
        g.ends(e)  # an unknown edge is refused, in degree 0 too
    trace = iterate_syzygy(g, s, n)
    return trace.descriptors[n].top()[t]


def delta(n: int, d: int) -> int:
    """Degree bound: (n/2)d for even n, ((n-1)/2)d + 1 for odd n."""
    return (n // 2) * d if n % 2 == 0 else ((n - 1) // 2) * d + 1


def generation_degrees(g: BrauerGraph, e: str, n: int) -> list[int]:
    """Degrees of the graded generators of the n-th projective."""
    g.ends(e)  # an unknown edge is refused
    if not g.regimes.graded_positions:
        raise HypothesisError("generation degrees via positions need no truncated "
                              "edges and a uniform degree")
    return sorted({n + j * (g.regimes.degree - 2) for j in range(n // 2 + 1)})


# ----------------------------------------------------------------------
# generation certificates


def generation_certificate(g: BrauerGraph, elem: CanonicalExtElement) -> GenerationCertificate:
    """Factor a canonical cohomology element into degree-one/two leaves;
    the certificate is the one ``edge_certificates`` builds for it.  Each
    call builds every certificate of ``elem.source`` through ``elem.degree``,
    so a caller that wants many of them reads ``edge_certificates`` once."""
    cert = edge_certificates(g, elem.source, elem.degree)[elem.degree][elem.position]
    if cert.element != elem:
        raise HypothesisError("element target does not match the resolution summand")
    return cert


def edge_certificates(g: BrauerGraph, e: str, n_max: int,
                      tables: Optional[Tables] = None
                      ) -> list[dict[int, GenerationCertificate]]:
    """The certificates of every canonical class of the simple at ``e`` in
    degrees 0..n_max: entry n maps each position to its certificate.

    A leaf is a degree-one class or the degree-two class at position zero;
    positions +-2 in degree two are products of two degree-one classes.
    Position off zero (those +-2 included): peel one degree-one factor at
    the outer end.  Even degree at position zero: peel a degree-two factor
    at zero.  Odd degree n at position +-1: the class of degree n - 1 at
    position zero times the degree-one class at +-1 of the start simple
    itself (the displayed identity).

    All of them are read off one chain, degree by degree, so the left
    factor of each certificate is the lower-degree certificate already
    built, not a copy of it.  Given ``tables`` (``g``'s), that chain is the
    one the resolvers read off them.
    """
    if g.regimes.truncated:
        raise HypothesisError("certificates require a graph with no truncated edges")
    chain = _tables(g, tables).chain(e, n_max)
    certs: list[dict[int, GenerationCertificate]] = []
    for n in range(n_max + 1):
        level: dict[int, GenerationCertificate] = {}
        for i in range(-n, n + 1, 2):
            elem = CanonicalExtElement(e, n, i, chain.edge[i])
            if n <= 1 or (n == 2 and i == 0):
                factors: tuple = ()
            elif i == 0:  # n even >= 4
                factors = (certs[n - 2][0], certs[2][0])
            elif n % 2 == 1 and i in (1, -1):
                factors = (certs[n - 1][0], certs[1][i])
            else:
                step = 1 if i > 0 else -1
                # the side of mid's own resolution continuing the chain is read
                # off the half-edge actually used, which disambiguates loops
                # and multiple edges
                side = 1 if chain.gap[min(i - step, i)].end == 1 else -1
                mid = CanonicalExtElement(chain.edge[i - step], 1, side, chain.edge[i])
                factors = (certs[n - 1][i - step], GenerationCertificate(mid))
            level[i] = GenerationCertificate(elem, factors)
        certs.append(level)
    return certs


# ----------------------------------------------------------------------
# the obstruction to degree-0/1/2 generation


def obstruction_element(g: BrauerGraph) -> Optional[dict]:
    """A walk between truncated edges through nontruncated ones, with the
    high-degree cohomology class it witnesses.  Every graph where truncated
    and nontruncated edges coexist has one; every other graph has None."""
    if not g.regimes.mixed:
        return None
    for e in g.edge_ids:
        if not g.edge_is_truncated(e):
            continue
        walk = g.brauer_walk(e)
        if len(walk.edges) >= 3:
            n = len(walk.edges) - 1
            return {
                "chain": list(walk.edges),
                "via": list(walk.via),
                "ext_degree": n + 1,
                "from": walk.edges[0],
                "to": walk.edges[-1],
            }
    raise RuntimeError(
        "graph has truncated and nontruncated edges but no walk with interior"
    )
