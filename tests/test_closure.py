"""The Ext closure on every graph of census(3,2) and every 8th graph of
census(4,2), pinned.

``closure_census_3_2.json`` and ``closure_census_4_2.json`` hold one entry
per graph, in census order, keyed by the graph's rotation system and
multiplicities.  Per field (Q and F3) each records, in degrees 1..4 on the
oracle walks, the dimension of the subalgebra generated in degrees at most
2 (``generated_subalgebra_dims``) and of the whole of Ext
(``full_ext_dims``).  Each was recorded once; a change that alters an
answer edits the entries it alters and says why.

``element_in_span`` closes only the (source, target) slice of the class it
tests; ``test_element_in_span_matches_the_full_closure`` holds it to a
test-local closure of the whole subalgebra, degree by degree, over every
graph of census(3,2).
"""
import json
from pathlib import Path

import pytest

from brauergraph.census import census
from brauergraph.oracle.algebra import build_algebra
from brauergraph.oracle import linalg
from brauergraph.oracle.ext import (
    ExtElement,
    ProjResolution,
    element_in_span,
    full_ext_dims,
    generated_subalgebra_dims,
    yoneda_multiply,
)
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.presentation import present
from test_fingerprints import graph_key

# (record file, census size, step through the census, test id suffix); the
# census(3,2) cases keep their ids, the field name alone
RECORDS = [("closure_census_3_2.json", (3, 2), 1, ""),
           ("closure_census_4_2.json", (4, 2), 8, "-census_4_2")]
FIELDS = {"q": QQ, "f3": PrimeField(3)}
DEPTH = 4


def closure_dims(g, field) -> dict:
    la = build_algebra(present(g), field)
    walks = {e: ProjResolution.from_oracle(la, e, DEPTH) for e in g.edge_ids}
    generated = generated_subalgebra_dims(walks, 2, DEPTH)
    full = full_ext_dims(walks, DEPTH)
    return {"generated": [generated[d] for d in range(1, DEPTH + 1)],
            "full": [full[d] for d in range(1, DEPTH + 1)]}


@pytest.mark.parametrize("name, record, size, step", [
    pytest.param(name, record, size, step, id=name + suffix)
    for record, size, step, suffix in RECORDS for name in sorted(FIELDS)])
def test_closure_dims_match_the_record(name, record, size, step):
    recorded = json.loads(Path(__file__).with_name(record).read_text(encoding="utf-8"))
    graphs = list(census(*size))[::step]
    assert [entry["graph"] for entry in recorded] == [graph_key(g) for g in graphs]
    for g, entry in zip(graphs, recorded):
        assert closure_dims(g, FIELDS[name]) == entry[name], entry["graph"]


def full_closure(walks, max_gen_degree, n_max) -> dict[int, list]:
    """Per degree d up to ``n_max``, classes spanning degree d of the whole
    subalgebra generated in degrees at most ``max_gen_degree``: every basis
    class in a generator degree, and above it the products y o g with g a
    basis class of degree k <= ``max_gen_degree`` and y in the span of
    degree d - k from g's target, reduced across all sources at once."""
    f = next(iter(walks.values())).la.field
    spans = {}
    for d in range(1, n_max + 1):
        if d <= max_gen_degree:
            spans[d] = [ExtElement(res, d, {i: f.one}) for res in walks.values()
                        for i in range(len(res.summands[d]))]
            continue
        reducer = linalg.SparseReducer(f)
        spans[d] = []
        for k in range(1, min(d, max_gen_degree + 1)):
            for g in spans[k]:
                (t,) = g.targets()
                for y in spans[d - k]:
                    if y.source == t:
                        x = yoneda_multiply(y, g)
                        if reducer.add({(x.source, i): c for i, c in x.coeffs.items()}):
                            spans[d].append(x)
    return spans


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_element_in_span_matches_the_full_closure(name):
    """On every graph of census(3,2), through degree 3 and for every
    generator degree N below the class's, ``element_in_span`` answers as
    membership in the whole closure: for each basis class, and for each
    sum of two basis classes from one source with different targets.
    About 0.8 s CPU per field."""
    field = FIELDS[name]
    counts = {"in": 0, "out": 0, "sums in": 0, "sums out": 0}
    for g in census(3, 2):
        la = build_algebra(present(g), field)
        walks = {e: ProjResolution.from_oracle(la, e, 3) for e in g.edge_ids}
        for n in (1, 2):
            spans = full_closure(walks, n, 3)
            for d in range(n + 1, 4):
                reducer = linalg.SparseReducer(field)
                for x in spans[d]:
                    reducer.add({(x.source, i): c for i, c in x.coeffs.items()})
                for s, res in walks.items():
                    ends = [t for t, _, _ in res.summands[d]]
                    classes = [{i: field.one} for i in range(len(ends))]
                    classes += [{i: field.one, j: field.one}
                                for i in range(len(ends)) for j in range(i + 1, len(ends))
                                if ends[i] != ends[j]]
                    for coeffs in classes:
                        answer = element_in_span(walks, ExtElement(res, d, coeffs), n)
                        assert answer == reducer.contains(
                            {(s, i): c for i, c in coeffs.items()}), (g.edge_ends, s, d, n)
                        kind = "sums " if len(coeffs) == 2 else ""
                        counts[kind + ("in" if answer else "out")] += 1
    assert counts == {"in": 2709, "out": 607, "sums in": 1909, "sums out": 587}
