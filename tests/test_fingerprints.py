"""The oracle's computed objects on every graph of census(3,2), pinned.

``fingerprints_census_3_2.json`` holds one entry per graph, in census order,
keyed by the graph's rotation system and multiplicities.  Per field (Q and
F3) and per edge it records, through homological degree 3:

- the oracle walk's summands with their generation degrees;
- every syzygy's dimension vector, top and socle;
- the ranks of the blocks of every walk differential, and of every
  differential of the path-matrix complex where the graph has one;
- the coefficients of every product y o x of basis classes with x of
  degree 1 and y of degree 1 or 2, computed on the oracle walks.

None of these depends on how a matrix is stored, so the file pins the
answers across changes to the linear algebra.  It was recorded once; a
change that alters an answer edits the entries it alters and says why.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from brauergraph.census import census
from brauergraph.oracle.algebra import build_algebra
from brauergraph.oracle.ext import ExtElement, ProjResolution, yoneda_multiply
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.presentation import present
from brauergraph.resolution import explicit_resolver

FINGERPRINTS = Path(__file__).with_name("fingerprints_census_3_2.json")
FIELDS = {"q": QQ, "f3": PrimeField(3)}
DEPTH = 3


def graph_key(g) -> str:
    """The rotation system with multiplicities, e.g. ``v0^2: e0.0 e0.1``."""
    return "; ".join(
        f"{v}^{g.multiplicity(v)}: " + " ".join(f"{h.edge}.{h.end}" for h in g.rotation[v])
        for v in g.vertex_ids)


def _counter(c) -> list:
    return sorted([k, n] for k, n in c.items() if n)


def _coefficient(x):
    return str(x) if type(x) is Fraction else x


def _ranks(res) -> list:
    return [sorted([v, r] for v, r in phi.ranks.items()) for phi in res.maps[1:]]


def _explicit_complex(g, la, e):
    resolver = explicit_resolver(g)
    if resolver is None:
        return None
    return ProjResolution.from_steps(la, e, resolver(g, e, DEPTH))


def fingerprint(g, field) -> dict:
    la = build_algebra(present(g), field)
    walks = {e: ProjResolution.from_oracle(la, e, DEPTH) for e in g.edge_ids}
    out = {}
    for e, res in walks.items():
        entry = {
            "summands": [[[t, d] for t, d, _ in res.summands[n]]
                         for n in range(DEPTH + 1)],
            "syzygies": [[_counter(m.dim_vector()), _counter(m.top()), _counter(m.socle())]
                         for m in res.syzygies],
            "walk_ranks": _ranks(res),
        }
        steps = _explicit_complex(g, la, e)
        if steps is not None:
            entry["complex_ranks"] = _ranks(steps)
        products = []
        for i, (t, _, _) in enumerate(res.summands[1]):
            x = ExtElement(res, 1, {i: field.one})
            for k in (1, 2):
                for j in range(len(walks[t].summands[k])):
                    y = ExtElement(walks[t], k, {j: field.one})
                    coeffs = yoneda_multiply(y, x).coeffs
                    products.append([i, k, j, sorted([m, _coefficient(c)]
                                                     for m, c in coeffs.items())])
        entry["products"] = products
        out[e] = entry
    return out


def fingerprints(field) -> list:
    return [{"graph": graph_key(g), "oracle": fingerprint(g, field)}
            for g in census(3, 2)]


@pytest.mark.parametrize("name", list(FIELDS))
def test_census_3_2_fingerprints(name):
    recorded = [{"graph": entry["graph"], "oracle": entry[name]}
                for entry in json.loads(FINGERPRINTS.read_text())]
    got = json.loads(json.dumps(fingerprints(FIELDS[name])))
    assert [e["graph"] for e in got] == [e["graph"] for e in recorded]
    changed = [(want["graph"], edge)
               for want, have in zip(recorded, got)
               for edge in sorted(set(want["oracle"]) | set(have["oracle"]))
               if want["oracle"].get(edge) != have["oracle"].get(edge)]
    assert not changed, f"{len(changed)} simples changed, first: {changed[:3]}"
