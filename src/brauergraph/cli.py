"""Command-line front end.

Exit codes: 0 success, 1 invalid or unreadable input (report on standard
error), 2 a bad option value, a hypothesis failure (an operation outside
its regime, or an injected fault that corrupts nothing) or an algebra too
large for the oracle (its words times their length bound above
``oracle.algebra.SIZE_CAP``), 3 verification mismatch.  ``verify
--input-dir`` gives each file its own entry with one of these codes and
exits with the largest.  Output is deterministic: identical input and
flags produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import graph as graphmod
from .classify import koszul_report
from .graph import (
    BrauerGraph,
    BrauerGraphError,
    HypothesisError,
    validate,
)
from .oracle.algebra import OracleSizeError
from .oracle.fields import field_from_spec
from .oracle.verify import Fault, verify_graph
from .presentation import (
    build_quiver,
    present,
    quiver_to_dict,
    quiver_to_dot,
    relation_to_dict,
)
from .resolution import explicit_resolver
from .strings import iterate_syzygy, period

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_HYPOTHESIS = 2
EXIT_MISMATCH = 3


def _emit(doc, fmt: str, text_renderer=None) -> None:
    """``doc`` as JSON, or through ``text_renderer`` under ``--format text``,
    which only the commands that pass one offer."""
    if fmt == "text":
        sys.stdout.write(text_renderer(doc) + "\n")
    else:
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load(path: str, *edges: str) -> BrauerGraph:
    """The valid graph in ``path``, refused unless it has each of ``edges``."""
    g = graphmod.load_file(path)
    report = validate(g)
    if not report.ok:
        for item in report.violations:
            sys.stderr.write(item + "\n")
        raise SystemExit(EXIT_INVALID)
    for e in edges:
        g.ends(e)  # refuses an unknown edge
    return g


def cmd_quiver(args) -> int:
    g = _load(args.input)
    q = build_quiver(g)
    if args.format == "dot":
        sys.stdout.write(quiver_to_dot(q) + "\n")
    else:
        _emit(quiver_to_dict(q), args.format)
    return EXIT_OK


def cmd_relations(args) -> int:
    g = _load(args.input)
    pres = present(g)
    rels = pres.minimal_relations if args.minimal else pres.all_relations
    doc = [relation_to_dict(r) for r in rels]

    def text(d):
        return "\n".join(f"[{r['kind']}] " + _linear_combination(r["coefficients"], r["paths"])
                         for r in d)

    _emit(doc, args.format, text)
    return EXIT_OK


def _linear_combination(coefficients: list[str], paths: list[list[str]]) -> str:
    """Each path with its signed coefficient: a coefficient of 1 is left
    out, and a sign joins each term to the one before, so ``1, -1`` reads
    ``p - q``."""
    out = ""
    for k, (c, p) in enumerate(zip(coefficients, paths)):
        magnitude = c.removeprefix("-")
        term = "".join(p) or "id"
        if magnitude != "1":
            term = f"{magnitude} {term}"
        if k:
            out += (" - " if c.startswith("-") else " + ") + term
        else:
            out += ("-" if c.startswith("-") else "") + term
    return out


def cmd_classify(args) -> int:
    g = _load(args.input)
    rep = koszul_report(g)
    doc = rep.to_json()
    if args.explain:
        doc["explanations"] = rep.explanations
        doc["witnesses"] = rep.witnesses

    def text(d):
        return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(d.items()))

    _emit(doc, args.format, text)
    return EXIT_OK


def cmd_resolve(args) -> int:
    g = _load(args.input, args.edge)
    resolver = explicit_resolver(g)
    if resolver is None:
        raise HypothesisError("the graph is in the domain of neither explicit resolver "
                              "(resolve_simple, resolve_simple_2d)")
    steps = resolver(g, args.edge, args.max)
    doc = [s.to_json() for s in steps]
    if not args.graded:
        for s in doc:
            s["summands"] = [x[:2] for x in s["summands"]]
    _emit(doc, args.format)
    return EXIT_OK


def cmd_syzygy(args) -> int:
    g = _load(args.input, args.edge)
    trace = iterate_syzygy(g, args.edge, args.max)
    doc = trace.to_json()
    if trace.period is None:
        doc["period"] = period(g, args.edge)

    def text(d):
        lines = [f"Omega^{x['degree']}: " + " ".join(e + s for e, s in x["string"])
                 for x in d["trace"]]
        lines.append(f"period: {d['period']}")
        return "\n".join(lines)

    _emit(doc, args.format, text)
    return EXIT_OK


def cmd_walk(args) -> int:
    g = _load(args.input, args.edge)
    walk = g.brauer_walk(args.edge)

    def text(d):
        return " -> ".join(d)

    _emit(list(walk.edges), args.format, text)
    return EXIT_OK


def cmd_ext(args) -> int:
    g = _load(args.input, args.to, getattr(args, "from"))
    # dim Ext^n(S_from, S_to) counts ``to`` in the top of the n-th syzygy
    trace = iterate_syzygy(g, getattr(args, "from"), args.max)
    doc = {
        "from": getattr(args, "from"),
        "to": args.to,
        "dims": [trace.descriptors[n].top()[args.to] for n in range(args.max + 1)],
    }

    def text(d):
        return "\n".join(f"Ext^{n}: {v}" for n, v in enumerate(d["dims"]))

    _emit(doc, args.format, text)
    return EXIT_OK


def _verify_one(g: BrauerGraph, max_degree: int, field_obj,
                fault: Fault | None) -> tuple[int, dict]:
    report = validate(g)
    if not report.ok:
        return EXIT_INVALID, {"ok": False, "diffs": report.violations}
    rep = verify_graph(g, max_degree=max_degree, field_obj=field_obj, fault=fault)
    return EXIT_OK if rep.ok else EXIT_MISMATCH, rep.to_json()


def _verify_entry(path: str, max_degree: int, field_obj, fault: Fault | None) -> dict:
    """One entry of a batch; a file that fails to load, a refused fault and
    an algebra too large for the oracle each get their own entry, with the
    exit code the file would get alone, as a graph that fails validation
    does."""
    try:
        code, doc = _verify_one(graphmod.load_file(path), max_degree, field_obj, fault)
    except BrauerGraphError as exc:
        code, doc = EXIT_INVALID, {"ok": False, "diffs": [str(exc)]}
    except (HypothesisError, OracleSizeError) as exc:
        code, doc = EXIT_HYPOTHESIS, {"ok": False, "diffs": [str(exc)]}
    return {"input": path, "exit": code, "report": doc}


def cmd_verify(args) -> int:
    fault = None
    if args.inject_flip or args.inject_drop is not None:
        fault = Fault(flip_sign=args.inject_flip, drop_relation=args.inject_drop)
    if args.input_dir:
        try:
            names = os.listdir(args.input_dir)
        except OSError as exc:
            raise BrauerGraphError(f"cannot read {args.input_dir}: {exc.strerror}") from exc
        paths = sorted(os.path.join(args.input_dir, p) for p in names
                       if p.endswith(".bg.json"))
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_verify_entry, paths, [args.max] * len(paths),
                                    [args.field] * len(paths), [fault] * len(paths)))
        _emit(results, args.format)
        return max((r["exit"] for r in results), default=EXIT_OK)
    code, doc = _verify_one(graphmod.load_file(args.input), args.max, args.field, fault)
    _emit(doc, args.format)
    return code


def _degree(text: str) -> int:
    """A --max value: a cohomological degree, so at least zero."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _field(spec: str):
    """A --field value: ``q`` or ``fp:<prime>``."""
    try:
        return field_from_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flip_spec(text: str) -> tuple[str, int, int, int]:
    """An --inject-flip value: EDGE:N:ROW:COL."""
    try:
        edge, n, row, col = text.split(":")
        return edge, int(n), int(row), int(col)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected EDGE:N:ROW:COL, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauergraph",
        description="Exact computations over the algebra of a Brauer graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text")):
        p.add_argument("--input", required=True, help="graph file (.bg.json)")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("quiver", help="the quiver of the algebra")
    common(p, formats=("json", "dot"))
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("relations", help="defining relations")
    common(p)
    p.add_argument("--minimal", action="store_true",
                   help="only a minimal generating set")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("classify", help="regularity classes of the algebra")
    common(p)
    p.add_argument("--explain", action="store_true",
                   help="attach reasons and witnesses")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("resolve", help="explicit minimal projective resolution")
    common(p, formats=("json",))
    p.add_argument("--edge", required=True)
    p.add_argument("--max", type=_degree, default=4)
    p.add_argument("--graded", action="store_true",
                   help="attach generation degrees to summands")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("syzygy", help="syzygy descriptors of a simple module")
    common(p)
    p.add_argument("--edge", required=True)
    p.add_argument("--max", type=_degree, default=6)
    p.set_defaults(func=cmd_syzygy)

    p = sub.add_parser("walk", help="walk between truncated edges")
    common(p)
    p.add_argument("--edge", required=True)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("ext", help="cohomology dimensions between two simples")
    common(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--max", type=_degree, default=6)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("verify", help="cross-check everything against the oracle")
    inputs = p.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--input", help="graph file (.bg.json)")
    inputs.add_argument("--input-dir", help="verify every .bg.json in a directory")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--field", type=_field, default="q", help="q or fp:<prime>")
    p.add_argument("--max", type=_degree, default=4)
    p.add_argument("--inject-flip", type=_flip_spec, metavar="EDGE:N:ROW:COL",
                   help="testing hook: flip one differential sign")
    p.add_argument("--inject-drop", type=int, metavar="K",
                   help="testing hook: drop the K-th relation from the oracle")
    p.set_defaults(func=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first ``run``


def run(argv: list[str]) -> int:
    """Run one command; the parser is built once per process, and each call
    parses into a fresh namespace."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrauerGraphError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_INVALID
    except (HypothesisError, OracleSizeError) as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_HYPOTHESIS


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
