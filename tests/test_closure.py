"""The Ext closure on every graph of census(3,2), pinned.

``closure_census_3_2.json`` holds one entry per graph, in census order,
keyed by the graph's rotation system and multiplicities.  Per field (Q and
F3) it records, in degrees 1..4 on the oracle walks, the dimension of the
subalgebra generated in degrees at most 2 (``generated_subalgebra_dims``)
and of the whole of Ext (``full_ext_dims``).  It was recorded once; a change
that alters an answer edits the entries it alters and says why.
"""
import json
from pathlib import Path

import pytest

from brauergraph.census import census
from brauergraph.oracle.algebra import build_algebra
from brauergraph.oracle.ext import ProjResolution, full_ext_dims, generated_subalgebra_dims
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.presentation import present
from test_fingerprints import graph_key

CLOSURE = Path(__file__).with_name("closure_census_3_2.json")
FIELDS = {"q": QQ, "f3": PrimeField(3)}
DEPTH = 4


def closure_dims(g, field) -> dict:
    la = build_algebra(present(g), field)
    walks = {e: ProjResolution.from_oracle(la, e, DEPTH) for e in g.edge_ids}
    generated = generated_subalgebra_dims(walks, 2, DEPTH)
    full = full_ext_dims(walks, DEPTH)
    return {"generated": [generated[d] for d in range(1, DEPTH + 1)],
            "full": [full[d] for d in range(1, DEPTH + 1)]}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_closure_dims_match_the_record(name):
    recorded = json.loads(CLOSURE.read_text(encoding="utf-8"))
    graphs = list(census(3, 2))
    assert [entry["graph"] for entry in recorded] == [graph_key(g) for g in graphs]
    for g, entry in zip(graphs, recorded):
        assert closure_dims(g, FIELDS[name]) == entry[name], entry["graph"]
