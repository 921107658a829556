"""Exhaustive enumeration of small connected Brauer graphs.

A rotation system on k edges is a permutation of the 2k half-edges whose
cycles are the vertices with their cyclic order; the end-swap involution
recovers the graph.  Two rotation systems are isomorphic when a relabelling
of the edges with some ends swapped carries one to the other.  Walking all
permutations in lexicographic order and marking the orbit of each connected
representative under those 2^k k! relabellings keeps the lexicographically
first permutation of every class.  That yields every connected graph with
every rotation system, loops and multiple edges included.
"""
from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Iterator

from .graph import BrauerGraph, HalfEdge

MAX_EDGES = 5  # the orbit marks take (2k)! bytes: 3.6 MB at k = 5, 479 MB at k = 6


def _iota(d: int) -> int:
    return d ^ 1  # darts 2i, 2i+1 are the two ends of edge i


def _connected(sigma: tuple[int, ...]) -> bool:
    n = len(sigma)
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for nd in (sigma[d], _iota(d)):
            if nd not in seen:
                seen.add(nd)
                stack.append(nd)
    return len(seen) == n


def _relabellings(n_edges: int) -> list[tuple[int, ...]]:
    """The 2^k k! dart maps that permute the edges and swap ends: the maps
    commuting with the end swap, i.e. the isomorphisms of rotation systems."""
    out = []
    for order in permutations(range(n_edges)):
        for swaps in product((0, 1), repeat=n_edges):
            out.append(tuple(2 * order[d >> 1] + ((d & 1) ^ swaps[d >> 1])
                             for d in range(2 * n_edges)))
    return out


def rotation_systems(n_edges: int) -> Iterator[tuple[int, ...]]:
    """One permutation per isomorphism class of connected rotation systems:
    the lexicographically first of its class.

    The permutations are walked in lexicographic order.  The first connected
    one not yet marked is yielded, and its whole orbit under the edge
    relabellings and end swaps is marked in a byte array indexed by
    lexicographic rank, so each later member of the class costs one lookup.
    That array holds (2k)! bytes, so ``n_edges`` above ``MAX_EDGES`` raises
    ValueError rather than allocating it.
    """
    _check_edges(n_edges)
    n = 2 * n_edges
    darts = range(n)
    # the lexicographic rank of p is the sum over positions i of
    # #{unused darts below p[i]} * (n - 1 - i)!
    weights = [factorial(n - 1 - i) for i in darts]
    below = [(1 << d) - 1 for d in darts]
    popcount = [m.bit_count() for m in range(1 << n)]
    relabellings = _relabellings(n_edges)
    marked = bytearray(factorial(n))
    image = [0] * n
    for rank, perm in enumerate(permutations(darts)):
        if marked[rank] or not _connected(perm):
            continue
        yield perm
        for phi in relabellings:
            for d in darts:
                image[phi[d]] = phi[perm[d]]
            r = used = 0
            for i in darts:
                d = image[i]
                r += (d - popcount[used & below[d]]) * weights[i]
                used |= 1 << d
            marked[r] = 1


def _check_edges(n_edges: int) -> None:
    if n_edges > MAX_EDGES:
        raise ValueError(f"the census stops at {MAX_EDGES} edges, since it marks "
                         f"all (2k)! permutations; asked for {n_edges}")


def _cycles(sigma: tuple[int, ...]) -> list[list[int]]:
    """The cycles of sigma, the vertices, each from its least dart, in order
    of that dart."""
    seen: set[int] = set()
    cycles: list[list[int]] = []
    for d in range(len(sigma)):
        if d in seen:
            continue
        cyc = [d]
        seen.add(d)
        nd = sigma[d]
        while nd != d:
            cyc.append(nd)
            seen.add(nd)
            nd = sigma[nd]
        cycles.append(cyc)
    return cycles


def _graph_from_cycles(cycles: list[list[int]],
                       multiplicities: tuple[int, ...]) -> BrauerGraph:
    vertex_of_dart = {}
    for vi, cyc in enumerate(cycles):
        for d in cyc:
            vertex_of_dart[d] = f"v{vi}"
    vertices = [(f"v{vi}", multiplicities[vi]) for vi in range(len(cycles))]
    edges = [
        (f"e{i}", (vertex_of_dart[2 * i], vertex_of_dart[2 * i + 1]))
        for i in range(len(vertex_of_dart) // 2)
    ]
    rotation = {
        f"v{vi}": [HalfEdge(f"e{d // 2}", d % 2) for d in cyc]
        for vi, cyc in enumerate(cycles)
    }
    return BrauerGraph(vertices, edges, rotation)


def census(max_edges: int, max_multiplicity: int) -> Iterator[BrauerGraph]:
    """All connected Brauer graphs with at most ``max_edges`` edges, every
    rotation system up to isomorphism, and every multiplicity pattern up to
    ``max_multiplicity``.  At most ``MAX_EDGES`` edges: see
    ``rotation_systems``."""
    _check_edges(max_edges)
    for k in range(1, max_edges + 1):
        for sigma in rotation_systems(k):
            cycles = _cycles(sigma)
            for mults in product(range(1, max_multiplicity + 1), repeat=len(cycles)):
                yield _graph_from_cycles(cycles, mults)
