"""The census report hash, and a digest of every census algebra's internals.

Run from the repository root:

    python3 tools/censushash.py --k 4 --m 2 --degree 3 --field q

Prints four lines.  ``report`` is the sha256 prefix (16 hex digits) of the
concatenated ``json.dumps(r.to_json(), sort_keys=True)`` of the reports of
``verify_graph(g, degree, field)`` over every graph of ``census(k, m)``, in
census order: the hash performance changes quote to show the same answers.
It is the same for every census on which all checks pass, so the other
three lines digest what those reports do not show.  ``algebra`` digests,
per graph, the algebra of its full presentation - its basis words, its
pivot rows, its ``redundant`` verdicts and the arrow rows of every
projective.  Equal digests at two revisions mean equal normal forms, not
only equal verdicts.  ``combinatorics`` digests, per graph, what the
combinatorial layer answers without the oracle (see ``combinatorics_doc``),
through ``degree`` and, for the periods of a reduced graph, through the
whole syzygy orbit; it does not depend on the field.  ``oracle`` digests,
per graph and edge, the oracle walk of the edge's simple over that algebra,
grown through ``degree`` (see ``oracle_doc``): equal digests mean the same
module layer, row for row, not only the same dimensions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from brauergraph.census import census  # noqa: E402
from brauergraph.classify import koszul_report  # noqa: E402
from brauergraph.graph import BrauerGraphError, HypothesisError  # noqa: E402
from brauergraph.oracle.algebra import build_algebra  # noqa: E402
from brauergraph.oracle.ext import ProjResolution  # noqa: E402
from brauergraph.oracle.fields import field_from_spec  # noqa: E402
from brauergraph.oracle.verify import verify_graph  # noqa: E402
from brauergraph.presentation import present, relation_to_dict  # noqa: E402
from brauergraph.resolution import (  # noqa: E402
    Tables,
    edge_certificates,
    explicit_resolver,
    obstruction_element,
)
from brauergraph.strings import iterate_syzygy, period  # noqa: E402


def _row(row: dict) -> list:
    return [[j, str(x)] for j, x in sorted(row.items())]


def algebra_doc(la) -> dict:
    """The algebra's basis, pivot rows, ``redundant`` verdicts and projective
    arrow rows, in a canonical JSON-ready form."""
    return {
        "basis": [[src, list(arrows)] for src, arrows in la.basis],
        "pivots": [[j, _row(r)] for j, r in sorted(la._pivot_rows.items())],
        "redundant": sorted(la.redundant.items()),
        "projectives": {e: {a: [_row(r) for r in rows]
                            for a, rows in la.projective_action(e).items()}
                        for e in la.quiver.vertices},
    }


def oracle_doc(la, degree: int) -> dict:
    """Per edge, the oracle walk of its simple grown through ``degree``: the
    summands of every projective, the degrees and arrow rows of every
    syzygy, and the generator images of every differential."""
    doc = {}
    for e in la.quiver.vertices:
        walk = ProjResolution.from_oracle(la, e, degree)
        doc[e] = {
            "summands": walk.summands,
            "syzygies": [[m.degrees, {a: [_row(r) for r in rows]
                                      for a, rows in m.action.items()}]
                         for m in walk.syzygies],
            "differentials": [[_row(r) for r in phi.images] for phi in walk.maps[1:]],
        }
    return doc


def _or_refusal(answer):
    """``answer()``, or its refusal as the exception's type and message."""
    try:
        return answer()
    except (BrauerGraphError, HypothesisError) as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}


def _certificate(cert) -> list:
    el = cert.element
    return [el.source, el.degree, el.position, el.target,
            [_certificate(f) for f in cert.factors]]


def combinatorics_doc(g, degree: int) -> dict:
    """What the combinatorial layer answers for ``g`` through ``degree``:
    all and minimal relations, the Koszul report with its explanations and
    witnesses, the explicit resolution of every simple where ``g`` has one,
    the certificate trees where no edge is truncated, and on a reduced graph
    the walk, syzygy trace and period of every edge and the obstruction
    element.  The period walks the syzygies until the first return to the
    simple, so every syzygy step the ``syzygy`` command can reach is read.
    Every resolution and certificate reads one ``Tables`` over the
    presentation's quiver, as in ``verify_graph``."""
    pres = present(g)
    tables = Tables(g, pres.quiver)
    report = koszul_report(g, pres)
    doc = {
        "relations": [relation_to_dict(r) for r in pres.all_relations],
        "minimal": [relation_to_dict(r) for r in pres.minimal_relations],
        "koszul": [report.to_json(), report.explanations, report.witnesses],
    }
    resolver = explicit_resolver(g)
    if resolver is not None:
        doc["resolutions"] = {e: [s.to_json() for s in resolver(g, e, degree, tables=tables)]
                              for e in g.edge_ids}
    if not g.regimes.truncated:
        doc["certificates"] = {
            e: [sorted((i, _certificate(c)) for i, c in level.items())
                for level in edge_certificates(g, e, degree, tables=tables)]
            for e in g.edge_ids}
    if g.regimes.reduced:
        doc["walks"] = {e: _or_refusal(lambda: asdict(g.brauer_walk(e)))
                        for e in g.edge_ids}
        doc["syzygies"] = {e: _or_refusal(lambda: iterate_syzygy(g, e, degree).to_json())
                           for e in g.edge_ids}
        doc["periods"] = {e: _or_refusal(lambda: period(g, e)) for e in g.edge_ids}
        doc["obstruction"] = _or_refusal(lambda: obstruction_element(g))
    return doc


def census_hashes(k: int, m: int, degree: int, field) -> tuple[str, str, str, str]:
    """The report hash and the algebra, combinatorics and oracle digests
    over ``census(k, m)``."""
    digests = [hashlib.sha256() for _ in range(4)]
    for g in census(k, m):
        la = build_algebra(present(g), field)
        docs = (verify_graph(g, degree, field).to_json(),
                algebra_doc(la),
                combinatorics_doc(g, degree),
                oracle_doc(la, degree))
        for digest, doc in zip(digests, docs):
            digest.update(json.dumps(doc, sort_keys=True).encode())
    return tuple(d.hexdigest()[:16] for d in digests)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=4, help="edges at most (default 4)")
    ap.add_argument("--m", type=int, default=2, help="multiplicity at most (default 2)")
    ap.add_argument("--degree", type=int, default=3, help="verify_graph max_degree, and the degree the combinatorics are "
                         "read through (default 3)")
    ap.add_argument("--field", default="q", help="q or fp:<prime> (default q)")
    args = ap.parse_args(argv)
    report, algebra, combinatorics, oracle = census_hashes(
        args.k, args.m, args.degree, field_from_spec(args.field))
    print(f"report {report}")
    print(f"algebra {algebra}")
    print(f"combinatorics {combinatorics}")
    print(f"oracle {oracle}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
