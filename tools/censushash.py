"""The census report hash, and a digest of every census algebra's internals.

Run from the repository root:

    python3 tools/censushash.py --k 4 --m 2 --degree 3 --field q

Prints two lines.  ``report`` is the sha256 prefix (16 hex digits) of the
concatenated ``json.dumps(r.to_json(), sort_keys=True)`` of the reports of
``verify_graph(g, degree, field)`` over every graph of ``census(k, m)``, in
census order: the hash performance changes quote to show the same answers.
It is the same for every census on which all checks pass, so ``algebra``
digests what those reports do not show: per graph, the algebra of its full
presentation - its basis words, its pivot rows, its ``redundant`` verdicts
and the arrow rows of every projective.  Equal digests at two revisions mean
equal normal forms, not only equal verdicts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from brauergraph.census import census  # noqa: E402
from brauergraph.oracle.algebra import build_algebra  # noqa: E402
from brauergraph.oracle.fields import field_from_spec  # noqa: E402
from brauergraph.oracle.verify import verify_graph  # noqa: E402
from brauergraph.presentation import present  # noqa: E402


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


def census_hashes(k: int, m: int, degree: int, field) -> tuple[str, str]:
    """The report hash and the algebra digest over ``census(k, m)``."""
    reports, algebras = hashlib.sha256(), hashlib.sha256()
    for g in census(k, m):
        reports.update(json.dumps(verify_graph(g, degree, field).to_json(),
                                  sort_keys=True).encode())
        algebras.update(json.dumps(algebra_doc(build_algebra(present(g), field)),
                                   sort_keys=True).encode())
    return reports.hexdigest()[:16], algebras.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=4, help="edges at most (default 4)")
    ap.add_argument("--m", type=int, default=2, help="multiplicity at most (default 2)")
    ap.add_argument("--degree", type=int, default=3, help="verify_graph max_degree (default 3)")
    ap.add_argument("--field", default="q", help="q or fp:<prime> (default q)")
    args = ap.parse_args(argv)
    report, algebra = census_hashes(args.k, args.m, args.degree, field_from_spec(args.field))
    print(f"report {report}")
    print(f"algebra {algebra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
