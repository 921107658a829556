import hashlib
import json
from itertools import permutations

import pytest

from brauergraph.census import MAX_EDGES, census, rotation_systems
from brauergraph.graph import to_dict


def _traversal(sigma, start):
    """Half-edges in order of discovery from ``start`` along sigma and the
    end swap, each encoded by the labels of its two images."""
    label = {start: 0}
    order = [start]
    for d in order:
        for nd in (sigma[d], d ^ 1):
            if nd not in label:
                label[nd] = len(order)
                order.append(nd)
    return tuple(x for d in order for x in (label[sigma[d]], label[d ^ 1]))


def _rotation_systems_by_key(n_edges):
    """Every permutation in order, connected ones only, the first of each
    class under the least traversal over all starting half-edges."""
    n = 2 * n_edges
    seen = set()
    for perm in permutations(range(n)):
        if len(_traversal(perm, 0)) < 2 * n:
            continue  # dart 0 does not reach every half-edge
        key = min(_traversal(perm, start) for start in range(n))
        if key not in seen:
            seen.add(key)
            yield perm


@pytest.mark.parametrize("k, classes", [(1, 2), (2, 5), (3, 20), (4, 107)])
def test_rotation_system_counts(k, classes):
    """OEIS A170946: connected rotation systems on k edges up to isomorphism."""
    assert sum(1 for _ in rotation_systems(k)) == classes


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rotation_systems_match_traversal_keys(k):
    assert list(rotation_systems(k)) == list(_rotation_systems_by_key(k))


@pytest.mark.parametrize("k, m, count, digest", [
    (3, 2, 140, "d95217d06274009e"),
    (4, 2, 920, "1b03396625e00d95"),
])
def test_census_documents_are_pinned(k, m, count, digest):
    docs = [to_dict(g) for g in census(k, m)]
    assert len(docs) == count
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest()[:16] == digest


def test_edge_limit_refused_before_marking():
    """Above MAX_EDGES the (2k)! orbit marks are refused, not allocated."""
    with pytest.raises(ValueError, match="stops at 5 edges"):
        next(rotation_systems(MAX_EDGES + 1))
    with pytest.raises(ValueError, match="stops at 5 edges"):
        next(census(MAX_EDGES + 1, 1))
