"""String-module combinatorics on reduced graphs.

A string module is encoded by an alternating sequence of signed edges: the
plus entries are its top, the minus entries its socle, and consecutive
entries share a unique vertex through which a uniserial segment connects
them.  Syzygies act on these descriptors by rewriting both ends and
flipping every interior sign; iterating from a simple module reproduces
the minimal resolution degree by degree.

Every step around a vertex reads half-edge positions with
``BrauerGraph.successor_half``.  The segment between adjacent entries with
shared vertex v runs from the plus entry's position p at v through
(q - p) mod valency(v) successor steps to the minus entry's position q,
one quiver arrow ``(v, p + k)`` per step.

Reduced graph means multiplicity one everywhere, no loops, no multiple
edges; with the trivial quantizer that is the calculus's domain,
``Regimes.strings``.  The single-edge graph is reduced but carries no
strings beyond the simple one, and its syzygy operations refuse.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from .graph import BrauerGraph, BrauerGraphError, HypothesisError

PLUS = 1
MINUS = -1

_SIGN_CHAR = {PLUS: "+", MINUS: "-"}
_CHAR_SIGN = {"+": PLUS, "-": MINUS}


@dataclass(frozen=True)
class StringDescriptor:
    """Signed edge sequence; a single positive entry denotes a simple module."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise BrauerGraphError("a string descriptor needs at least one entry")
        if len(self.entries) == 1 and self.entries[0][1] != PLUS:
            raise BrauerGraphError("a one-entry descriptor must be positive")

    @classmethod
    def simple(cls, edge: str) -> "StringDescriptor":
        return cls(((edge, PLUS),))

    @classmethod
    def of(cls, *pairs: tuple[str, int | str]) -> "StringDescriptor":
        entries = []
        for edge, sign in pairs:
            if isinstance(sign, str):
                sign = _CHAR_SIGN[sign]
            entries.append((edge, sign))
        return cls(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_simple(self) -> bool:
        return len(self.entries) == 1

    def reverse(self) -> "StringDescriptor":
        """Same module: a string read backwards is isomorphic to itself."""
        return StringDescriptor(tuple(reversed(self.entries)))

    def top(self) -> Counter:
        return Counter(e for e, s in self.entries if s == PLUS)

    def socle(self) -> Counter:
        if self.is_simple:
            return Counter([self.entries[0][0]])  # a simple is its own socle
        return Counter(e for e, s in self.entries if s == MINUS)

    def canonical(self) -> tuple:
        """Representative invariant under reversal, for isomorphism tests."""
        return min(self.entries, tuple(reversed(self.entries)))

    def to_json(self) -> list:
        return [[e, _SIGN_CHAR[s]] for e, s in self.entries]

    def __repr__(self):
        return "st(" + ",".join(f"{e}{_SIGN_CHAR[s]}" for e, s in self.entries) + ")"


@dataclass
class SyzygyTrace:
    start: str
    descriptors: list[StringDescriptor]
    period: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "trace": [
                {"degree": n, "string": d.to_json()}
                for n, d in enumerate(self.descriptors)
            ],
            "period": self.period,
        }


def _require_strings(g: BrauerGraph):
    if not g.regimes.strings:
        raise HypothesisError("string calculus requires a reduced graph and the "
                              "trivial quantizer")


def validate_acceptable(g: BrauerGraph, sigma: StringDescriptor) -> bool:
    _require_strings(g)
    entries = sigma.entries
    if len(entries) == 1:
        return entries[0][0] in g.edge_ends
    alphas = []
    for (x, sx), (y, sy) in zip(entries, entries[1:]):
        if sx == sy:
            return False
        if x == y:
            return False
        shared = [v for v in set(g.ends(x)) if v in set(g.ends(y))]
        if len(shared) != 1:
            return False
        alphas.append(shared[0])
    for a, b in zip(alphas, alphas[1:]):
        if a == b:
            return False
    return True


def _segments(g: BrauerGraph, sigma: StringDescriptor) -> Iterator[tuple]:
    """Per adjacent entry pair, its uniserial segment: the indices of the
    top (plus) and socle (minus) entries, their shared vertex v, the top
    entry's position at v and the successor steps from it to the socle."""
    entries = sigma.entries
    for i in range(len(entries) - 1):
        top, soc = (i, i + 1) if entries[i][1] == PLUS else (i + 1, i)
        v = g.link(entries[i][0], entries[i + 1][0])
        _, pos = g.position(g.half_at(entries[top][0], v))
        _, end = g.position(g.half_at(entries[soc][0], v))
        yield top, soc, v, pos, (end - pos) % g.valency(v)


def dimension(g: BrauerGraph, sigma: StringDescriptor) -> int:
    """Total number of composition factors: 1 plus the segments' steps."""
    _require_strings(g)
    return 1 + sum(steps for *_, steps in _segments(g, sigma))


# ----------------------------------------------------------------------
# syzygies


def syzygy_of_simple(g: BrauerGraph, e: str) -> StringDescriptor:
    """Radical of the projective cover, as a string."""
    _require_strings(g)
    trunc = g.truncated_ends(e)
    if len(trunc) == 2:
        raise HypothesisError("syzygies on the single-edge graph are not strings")
    # one arm per untruncated end: the successor of e's half-edge there
    arms = [(g.successor_half(h).edge, PLUS) for h in g.half_edges_of(e)
            if g.vertex_of(h) not in trunc]
    return StringDescriptor((arms[0], (e, MINUS), *arms[1:]))


def _left_action(g: BrauerGraph, sigma: StringDescriptor):
    """Decide how the left end rewrites: (edges to prepend, drop first entry?)."""
    (s1, e1), (s2, _) = sigma.entries[0], sigma.entries[1]
    h = g.half_at(s1, g.link(s1, s2))  # s1's half-edge at the shared vertex
    if e1 == PLUS:
        if g.edge_is_truncated(s1):
            return [], False
        return [(g.successor_half(h.other()).edge, PLUS)], False
    t = g.successor_half(h).edge
    if t == s2:
        return [], True
    return [(t, PLUS)], True


def syzygy(g: BrauerGraph, sigma: StringDescriptor) -> StringDescriptor:
    """First syzygy of the string module.

    A simple module goes to the radical of its cover.  A longer string
    keeps every entry with its sign flipped, except that each end is
    rewritten: the left end by the one-sided rule, the right end by the
    same rule applied through reversal, each adding at most one new entry
    beyond its end and dropping at most its end entry.  A result that collapses to
    one entry is the simple module at that edge.
    """
    _require_strings(g)
    if sigma.is_simple:
        return syzygy_of_simple(g, sigma.entries[0][0])
    left_ext, left_drop = _left_action(g, sigma)
    right_ext, right_drop = _left_action(g, sigma.reverse())
    last = len(sigma) - 1
    entries = (left_ext
               + [(e, -s) for i, (e, s) in enumerate(sigma.entries)
                  if not (i == 0 and left_drop or i == last and right_drop)]
               + right_ext)
    if len(entries) == 1:
        return StringDescriptor.simple(entries[0][0])
    return StringDescriptor(tuple(entries))


def _syzygies(g: BrauerGraph, e: str) -> Iterator[StringDescriptor]:
    """Omega^1, Omega^2, ... of the simple module at ``e``, without end."""
    cur = StringDescriptor.simple(e)
    while True:
        cur = syzygy(g, cur)
        yield cur


def _first_return(start: StringDescriptor,
                  syzygies: Iterable[StringDescriptor]) -> Optional[int]:
    """Least k >= 1 with the k-th of ``syzygies`` isomorphic to ``start``, or
    None; stops reading at that k."""
    key = start.canonical()
    return next((k for k, cur in enumerate(syzygies, 1) if cur.canonical() == key), None)


def iterate_syzygy(g: BrauerGraph, e: str, n: int) -> SyzygyTrace:
    """Descriptors of the syzygies of the simple module at ``e`` up to degree n."""
    _require_strings(g)
    start = StringDescriptor.simple(e)
    out = [start, *islice(_syzygies(g, e), n)]
    return SyzygyTrace(e, out, period=_first_return(start, out[1:]))


def period(g: BrauerGraph, e: str) -> Optional[int]:
    """Least p with the p-th syzygy isomorphic to the simple module, or None
    within 2 x (number of edges) x (nilpotency bound) steps.  The walk stops
    at the first return to the simple."""
    _require_strings(g)
    bound = 2 * len(g.edge_ids) * g.nilpotency_bound()
    return _first_return(StringDescriptor.simple(e), islice(_syzygies(g, e), bound))


# ----------------------------------------------------------------------
# explicit realization


def realize(g: BrauerGraph, sigma: StringDescriptor, la):
    """Build the string module as an explicit representation over the oracle.

    One basis vector per node of the string diagram: the entries plus the
    interior composition slots of each connecting uniserial segment.  Each
    segment is a chain from its plus entry down to its minus entry, and
    the arrows along the connecting path shift the chain one step down.
    """
    from .oracle.modules import Module
    from .presentation import arrow_run

    _require_strings(g)
    if not validate_acceptable(g, sigma):
        raise HypothesisError(f"{sigma} is not acceptable on this graph")
    quiver = la.quiver
    f = la.field

    nodes: list[str] = [e for e, _ in sigma.entries]  # vertex (= edge of g) per node
    chains: list[tuple[list[int], tuple]] = []  # (node ids top->socle, path arrows)
    for top, soc, v, start, steps in _segments(g, sigma):
        arrows = arrow_run(g, quiver, v, start, steps).arrows
        chain = [top]
        for a in arrows[:-1]:
            nodes.append(a.target)
            chain.append(len(nodes) - 1)
        chain.append(soc)
        chains.append((chain, arrows))

    by_vertex: dict[str, list[int]] = {v: [] for v in quiver.vertices}
    for n_id, v in enumerate(nodes):
        by_vertex[v].append(n_id)
    pos = {}
    for v, ids in by_vertex.items():
        for k, n_id in enumerate(ids):
            pos[n_id] = k
    degrees = {v: [None] * len(ids) for v, ids in by_vertex.items()}
    rows: dict[str, list[dict]] = {a.name: [{} for _ in by_vertex[a.source]]
                                   for a in quiver.arrows}
    for chain, arrows in chains:
        for step, a in enumerate(arrows):
            src_node, tgt_node = chain[step], chain[step + 1]
            rows[a.name][pos[src_node]][pos[tgt_node]] = f.one
    return Module(la, degrees, rows)
