"""Minimal projective resolutions of simple modules, with explicit
path-matrix differentials, canonical cohomology bases, graded generation
degrees, and the high-degree obstruction element.

The n-th projective has one summand per position -n, -n+2, ..., n; the
summand edges come from the follows-recursion on both sides of the start
edge.  Row i of the n-th differential carries the summand of the previous
projective at position -n+1+2i; its diagonal entry connects toward
position -n+2i and its superdiagonal entry toward position -n+2i+2.
Entries pointing away from position zero are single arrows, entries
pointing toward zero are runs of length (valency x multiplicity) - 1
around the linking vertex; diagonal entries of even differentials carry a
minus sign.  With multiplicity one this is the classical resolution of a
reduced graph without truncated edges; in general it covers every graph
whose vertices all satisfy valency x multiplicity = d.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graph import (
    BrauerGraph,
    HypothesisError,
    is_length_graded,
    is_reduced,
    uniform_degree,
)
from .presentation import Quiver, arrow_run, build_quiver
from .strings import PLUS, StringDescriptor, iterate_syzygy


@dataclass(frozen=True)
class ResolutionStep:
    degree: int
    summands: tuple[tuple[int, str], ...]  # (position, edge)
    differential: dict  # (row, col) -> (sign, Path); empty in degree zero
    generation_degrees: Optional[tuple[tuple[int, int], ...]] = None  # (position, degree)

    def summand_edges(self) -> tuple[str, ...]:
        return tuple(e for _, e in self.summands)

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
    """Edges and linking data at positions -N..N around a start edge.

    Plus side exits through end 1 of the start edge, minus side through
    end 0; this input ordering of the ends is the only orientation choice.
    """

    def __init__(self, g: BrauerGraph, e: str, n: int):
        self.g = g
        self.edge: dict[int, str] = {0: e}
        # per adjacent pair (r, r+1) for r >= 0: (vertex, exit position of edge r)
        self.plus_link: dict[int, tuple[str, int]] = {}
        # per adjacent pair (-r-1, -r) for r >= 0: (vertex, exit position of edge -r)
        self.minus_link: dict[int, tuple[str, int]] = {}
        self.plus_exit: dict[int, object] = {}   # half-edge of edge r toward r+1
        self.minus_exit: dict[int, object] = {}  # half-edge of edge -r toward -(r+1)
        h_plus = g.half_edges_of(e)[1]
        h_minus = g.half_edges_of(e)[0]
        cur = h_plus
        for r in range(n):
            v, pos = g.position(cur)
            self.plus_link[r] = (v, pos)
            self.plus_exit[r] = cur
            arrival = g.rotation[v][(pos + 1) % g.valency(v)]
            self.edge[r + 1] = arrival.edge
            cur = arrival.other()
        cur = h_minus
        for r in range(n):
            v, pos = g.position(cur)
            self.minus_link[r] = (v, pos)
            self.minus_exit[r] = cur
            arrival = g.rotation[v][(pos + 1) % g.valency(v)]
            self.edge[-(r + 1)] = arrival.edge
            cur = arrival.other()

    def link(self, r: int) -> tuple[str, int]:
        """Vertex and exit position between positions r and r+1."""
        return self.plus_link[r] if r >= 0 else self.minus_link[-r - 1]

    def exit_half(self, r: int, outward: int):
        """Half-edge through which the edge at position r continues outward."""
        return self.plus_exit[r] if outward > 0 else self.minus_exit[-r]


def _resolve(g: BrauerGraph, q: Quiver, e: str, n_max: int,
             graded_d: Optional[int]) -> list[ResolutionStep]:
    chain = _Chain(g, e, n_max)
    steps = [ResolutionStep(0, ((0, e),), {},
                            ((0, 0),) if graded_d is not None else None)]
    for n in range(1, n_max + 1):
        summands = tuple((p, chain.edge[p]) for p in range(-n, n + 1, 2))
        diff: dict = {}
        sign_diag = -1 if n % 2 == 0 else 1
        for i in range(n):
            r = -n + 1 + 2 * i  # position of row summand in the previous step
            # diagonal: toward position r-1
            if r <= 0:
                v, pos = chain.link(r - 1)  # exit of edge r toward r-1
                path = arrow_run(g, q, v, pos, 1)
            else:
                v, pos = chain.link(r - 1)  # exit of edge r-1 toward r
                length = g.valency(v) * g.multiplicity(v) - 1
                path = arrow_run(g, q, v, pos + 1, length)
            diff[(i, i)] = (sign_diag, path)
            # superdiagonal: toward position r+1
            if r >= 0:
                v, pos = chain.link(r)
                path = arrow_run(g, q, v, pos, 1)
            else:
                v, pos = chain.link(r)  # exit of edge r+1 toward r
                length = g.valency(v) * g.multiplicity(v) - 1
                path = arrow_run(g, q, v, pos + 1, length)
            diff[(i, i + 1)] = (1, path)
        gen = None
        if graded_d is not None:
            gen = tuple(
                (p, n + ((n - abs(p)) // 2) * (graded_d - 2))
                for p in range(-n, n + 1, 2)
            )
        steps.append(ResolutionStep(n, summands, diff, gen))
    return steps


def resolve_simple(g: BrauerGraph, e: str, n_max: int) -> list[ResolutionStep]:
    """Minimal resolution of the simple at ``e`` on a reduced graph with no
    truncated edges."""
    if not is_reduced(g):
        raise HypothesisError("resolve_simple requires a reduced graph")
    if g.has_truncated_edge():
        raise HypothesisError("resolve_simple requires a graph with no truncated edges")
    if not g.quantizer_trivial():
        raise HypothesisError("resolve_simple requires the trivial quantizer")
    q = build_quiver(g)
    d = uniform_degree(g)
    return _resolve(g, q, e, n_max, d)


def resolve_simple_2d(g: BrauerGraph, e: str, n_max: int) -> list[ResolutionStep]:
    """Minimal resolution when every vertex has valency x multiplicity = d >= 3.

    Loops and multiple edges are fine: the chain walks half-edges.
    """
    if not g.quantizer_trivial():
        raise HypothesisError("resolve_simple_2d requires the trivial quantizer")
    d = uniform_degree(g)
    if d is None:
        raise HypothesisError(
            "resolve_simple_2d needs valency x multiplicity constant over vertices"
        )
    if d < 3:
        raise HypothesisError("degree is quadratic; use resolve_simple")
    if g.has_truncated_edge():
        raise HypothesisError("resolve_simple_2d requires no truncated edges")
    q = build_quiver(g)
    return _resolve(g, q, e, n_max, d)


def explicit_resolver(g: BrauerGraph) -> Optional[Callable]:
    """The resolver of the path-matrix resolutions of ``g``'s simples, or
    None when the graph has none.  Both resolvers need the trivial
    quantizer and no truncated edge; ``resolve_simple`` takes a reduced
    graph, and ``resolve_simple_2d`` one whose vertices all have valency x
    multiplicity = d >= 3."""
    if g.has_truncated_edge() or not g.quantizer_trivial():
        return None
    if is_reduced(g):
        return resolve_simple
    d = uniform_degree(g)
    return resolve_simple_2d if d is not None and d >= 3 else None


# ----------------------------------------------------------------------
# Ext dimensions and degrees


def ext_dim(g: BrauerGraph, s: str, t: str, n: int) -> int:
    """dim Ext^n between the simples at ``s`` and ``t``: the number of plus
    entries equal to ``t`` in the degree-n syzygy descriptor of ``s``."""
    trace = iterate_syzygy(g, s, n)
    return trace.descriptors[n].top()[t]


def delta(n: int, d: int) -> int:
    """Degree bound: (n/2)d for even n, ((n-1)/2)d + 1 for odd n."""
    return (n // 2) * d if n % 2 == 0 else ((n - 1) // 2) * d + 1


def generation_degrees(g: BrauerGraph, e: str, n: int) -> list[int]:
    """Degrees of the graded generators of the n-th projective."""
    if not is_length_graded(g):
        raise HypothesisError("generation degrees need a length-graded algebra")
    if g.has_truncated_edge():
        raise HypothesisError("generation degrees via positions need no truncated edges")
    d = uniform_degree(g)
    if d is None:
        raise HypothesisError("no uniform degree")
    return sorted({n + j * (d - 2) for j in range(n // 2 + 1)})


def is_weakly_delta_bounded(g: BrauerGraph, n_max: int) -> bool:
    """Every projective in the graded resolution of every simple is
    generated in degrees at most delta(n)."""
    if not is_length_graded(g):
        raise HypothesisError("the degree bound needs a length-graded algebra")
    if not g.has_truncated_edge():
        d = uniform_degree(g)
        if d is None:
            raise HypothesisError("no uniform degree")
        return True  # degrees n + j(d-2) with j <= n/2 peak exactly at delta(n)
    if not is_reduced(g):
        raise HypothesisError(
            "degree tracking with truncated edges is implemented for reduced graphs"
        )
    from .presentation import homogeneity

    h = homogeneity(g)
    if h.d is None:
        raise HypothesisError("no relation degree to bound against")
    d = h.d
    for e in g.edge_ids:
        degs = graded_generation_degrees(g, e, n_max)
        for n, dset in enumerate(degs):
            if dset and max(dset) > delta(n, d):
                return False
    return True


def graded_generation_degrees(g: BrauerGraph, e: str, n_max: int) -> list[set[int]]:
    """Generator degrees of each projective in the resolution of a simple,
    tracked through the string syzygies of a reduced graph.

    Plus entries carry the degrees of the cover generators; through the
    provenance of ``strings.rewrite_ends`` a new plus entry sits one step
    deeper than the end entry it replaces, and surviving entries keep
    their degrees.
    """
    if not is_reduced(g):
        raise HypothesisError("degree tracking requires a reduced graph")
    from .strings import _dist, links, rewrite_ends, syzygy_of_simple

    def degree_map(sigma: StringDescriptor, plus_degrees: list[int]) -> list[int]:
        """Degrees of every entry, minus entries interpolated from a plus neighbor."""
        out = []
        it = iter(plus_degrees)
        alphas = links(g, sigma)
        for i, (edge, sign) in enumerate(sigma.entries):
            if sign == PLUS:
                out.append(next(it))
            elif i > 0:
                out.append(out[i - 1] + _dist(g, sigma.entries[i - 1][0], edge,
                                              alphas[i - 1]))
            else:
                out.append(None)  # patched after the loop
        if out[0] is None:
            out[0] = out[1] + _dist(g, sigma.entries[1][0], sigma.entries[0][0],
                                    alphas[0])
        return out

    def socle_depth(edge: str) -> int:
        for v in set(g.ends(edge)):
            if not g.is_truncated(edge, v):
                return g.valency(v) * g.multiplicity(v)
        raise HypothesisError("edge truncated at both ends has no string syzygies")

    sigma = StringDescriptor.simple(e)
    plus_deg = [0]
    result = [set(plus_deg)]
    for n in range(1, n_max + 1):
        if sigma.is_simple:
            tau = syzygy_of_simple(g, sigma.entries[0][0])
            base = plus_deg[0]
            new_plus = [base + 1] * sum(1 for _, s in tau.entries if s == PLUS)
            sigma, plus_deg = tau, new_plus
        else:
            entry_degrees = degree_map(sigma, plus_deg)
            # provenance -1 and len(sigma) are the entries new at either end
            padded = [entry_degrees[0] + 1, *entry_degrees, entry_degrees[-1] + 1]
            rewritten = rewrite_ends(g, sigma)
            entries = [pair for pair, _ in rewritten]
            degs = [padded[i + 1] for _, i in rewritten]
            if len(entries) == 1:
                # the survivor is the socle of its own cover summand
                sigma = StringDescriptor.simple(entries[0][0])
                plus_deg = [degs[0] + socle_depth(entries[0][0])]
            else:
                sigma = StringDescriptor(tuple(entries))
                plus_deg = [d0 for (edge, s), d0 in zip(entries, degs) if s == PLUS]
        result.append(set(plus_deg))
    return result


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


def edge_certificates(g: BrauerGraph, e: str,
                      n_max: int) -> list[dict[int, GenerationCertificate]]:
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
    built, not a copy of it.
    """
    if g.has_truncated_edge():
        raise HypothesisError("certificates require a graph with no truncated edges")
    chain = _Chain(g, e, n_max)
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
                side = 1 if chain.exit_half(i - step, step).end == 1 else -1
                mid = CanonicalExtElement(chain.edge[i - step], 1, side, chain.edge[i])
                factors = (certs[n - 1][i - step], GenerationCertificate(mid))
            level[i] = GenerationCertificate(elem, factors)
        certs.append(level)
    return certs


# ----------------------------------------------------------------------
# the obstruction to degree-0/1/2 generation


def obstruction_element(g: BrauerGraph) -> Optional[dict]:
    """A walk between truncated edges through nontruncated ones, with the
    high-degree cohomology class it witnesses; None when no such walk exists."""
    if not is_reduced(g):
        raise HypothesisError("the obstruction search requires a reduced graph")
    if not (g.has_truncated_edge() and g.has_nontruncated_edge()):
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
