"""Cross-checks between the combinatorial layer and the brute-force oracle.

``verify_graph`` runs every check applicable to the input's regimes, read
off ``BrauerGraph.regimes``, and returns a structured diff; an empty diff
means full agreement.  Faults can be injected - flipping one differential
sign, dropping one relation from the oracle's algebra - to confirm that
the harness actually detects corruption.

The graph is presented once per ``verify_graph`` call, and the oracle's
algebra is built once from that presentation; the minimal-generator check
reads the algebra's verdict on each kind-two relation
(``FiniteDimAlgebra.redundant``).  Under a drop fault those verdicts come
from a second algebra, of the full presentation.

Each simple is resolved once per ``verify_graph`` call: one oracle walk
(``ProjResolution.from_oracle``, grown to the deepest degree any check
reads), one string trace and one combinatorial complex per edge, shared
by every check that reads them.  A walk takes the syzygy under its
deepest cover only on the first read of ``syzygies``: the strings check
reads it, while the resolution, obstruction, Nakayama-degree and
linearity checks read only covers, summands and differentials, so a walk
grown by them alone never computes it.

The certificate check reads every certificate of an edge off one
follows-chain (``resolution.edge_certificates``), evaluates each element
once, and its Yoneda products, like the closure of the obstruction check,
read the lifts that the resolutions keep: each level of each basis
class's lift is solved once per call.  A certificate whose factors do not
compose, or whose lift fails through a complex that is not exact, is a
``certificate`` diff for its class, and the check goes on.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..classify import (
    d_homog_star_check,
    koszul_report,
    quadratic_family_check,
    two_d_conditions,
)
from ..graph import BrauerGraph, HypothesisError, validate
from ..presentation import present
from ..resolution import (
    delta,
    edge_certificates,
    explicit_resolver,
    ext_dim,
    generation_degrees,
    obstruction_element,
)
from ..strings import dimension, iterate_syzygy, realize, syzygy
from .algebra import build_algebra, expected_projective_dims
from .ext import (
    ExtElement,
    ProjResolution,
    canonical_element,
    element_in_span,
    yoneda_multiply,
)
from .fields import QQ
from .modules import Module


@dataclass
class Fault:
    """Deliberate corruption for harness self-tests.  ``verify_graph``
    raises HypothesisError for a fault that names no entry or relation of
    the graph, for a sign flip that cannot change anything or that lies
    above the degrees it checks, and for a dropped relation that still
    holds in the algebra of the others."""

    flip_sign: Optional[tuple[str, int, int, int]] = None  # edge, degree, row, col
    drop_relation: Optional[int] = None


@dataclass
class DiffReport:
    entries: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, check: str, detail: str):
        self.entries.append({"check": check, "detail": detail})

    def to_json(self) -> dict:
        return {"ok": self.ok, "diffs": self.entries}


def _flip(steps, flip: tuple[str, int, int, int]):
    """A copy of ``steps`` with the sign of one differential entry flipped."""
    _, n, row, col = flip
    for k, s in enumerate(steps):
        if s.degree == n and (row, col) in s.differential:
            diff = dict(s.differential)
            sign, path = diff[(row, col)]
            diff[(row, col)] = (-sign, path)
            return [*steps[:k], type(s)(s.degree, s.summands, diff, s.generation_degrees),
                    *steps[k + 1:]]
    raise HypothesisError(f"flip fault corrupts nothing: the differential in degree "
                          f"{n} has no entry ({row}, {col})")


def verify_graph(g: BrauerGraph, max_degree: int = 4, field_obj=QQ,
                 fault: Optional[Fault] = None) -> DiffReport:
    report = DiffReport()
    vr = validate(g)
    if not vr.ok:
        for v in vr.violations:
            report.add("validation", v)
        return report

    regimes = g.regimes
    resolver = explicit_resolver(g)
    flip = fault.flip_sign if fault is not None else None
    if flip is not None:
        if resolver is None:
            raise HypothesisError("flip fault corrupts nothing: the graph has no "
                                  "explicit resolution")
        if flip[0] not in g.edge_ids:
            raise HypothesisError(f"flip fault corrupts nothing: unknown edge {flip[0]!r}")
        if flip[1] > max_degree:
            raise HypothesisError(f"flip fault corrupts nothing: degree {flip[1]} is "
                                  f"above the checked degrees 0..{max_degree}")
        if field_obj.is_zero(field_obj.add(field_obj.one, field_obj.one)):
            raise HypothesisError("flip fault corrupts nothing: a sign flip is the "
                                  "identity in characteristic 2")

    pres = present(g)
    relations = list(pres.all_relations)
    drop = fault.drop_relation if fault is not None else None
    if drop is not None:
        if not 0 <= drop < len(relations):
            raise HypothesisError(f"drop fault corrupts nothing: no relation "
                                  f"{drop} among {len(relations)}")
        relations = [r for i, r in enumerate(relations) if i != drop]
    la = build_algebra(pres, field_obj, relations=relations)
    if drop is not None and la.relation_holds(pres.all_relations[drop]):
        raise HypothesisError(f"drop fault corrupts nothing: relation {drop} "
                              f"holds without it")

    # dimension formula
    expected = expected_projective_dims(g)
    actual = {v: len(la.basis_by_source[v]) for v in la.quiver.vertices}
    if expected != actual:
        report.add("projective-dimensions",
                   f"expected {expected}, oracle got {actual}")

    if not la.check_associativity():
        report.add("associativity", "multiplication table is not associative")

    # weak symmetry: every projective has simple socle isomorphic to its top;
    # each is read straight off the algebra's shared projective tables
    for e in g.edge_ids:
        P = Module(la, la.projective_degrees(e, 0), la.projective_action(e))
        top, soc = P.top(), P.socle()
        if dict(top) != {e: 1} or dict(soc) != {e: 1}:
            report.add("selfinjectivity",
                       f"projective at {e} has top {dict(top)} and socle {dict(soc)}")

    # minimal generating set against ideal membership, read off an algebra
    # of the full presentation: dropping a relation renumbers the others
    if not pres.a2_case:
        verdicts = (la if drop is None else build_algebra(pres, field_obj)).redundant
        retained_ids = {id(r) for r in pres.minimal_relations}
        for i, r in enumerate(pres.all_relations):
            if r.kind != "two":
                continue
            retained = id(r) in retained_ids
            redundant = verdicts[i]
            if retained == redundant:
                report.add(
                    "minimal-generators",
                    f"relation {i} at edge {r.edge}: combinatorics "
                    f"{'keeps' if retained else 'drops'} it but the oracle says "
                    f"{'redundant' if redundant else 'essential'}",
                )

    # classification consistency
    kr = koszul_report(g, pres)
    h = kr.homogeneity
    if (h.kind == "Quadratic") != quadratic_family_check(g):
        report.add("classification",
                   f"homogeneity {h} disagrees with the quadratic families")
    if h.kind == "TwoDHomogeneous" and two_d_conditions(g, h.d) == "Neither":
        report.add("classification",
                   f"{h} but neither two-degree shape condition holds")
    if h.kind == "DHomogeneous" and not d_homog_star_check(g, h.d):
        report.add("classification",
                   f"{h} but the graph is not a star of that degree")

    graded = regimes.length_graded and la.graded
    # oracle walks start empty; each check grows them to the depth it reads
    walks = {e: ProjResolution.from_oracle(la, e, -1) for e in g.edge_ids}
    traces = None

    if regimes.syzygies:
        traces = {e: iterate_syzygy(g, e, max_degree) for e in g.edge_ids}
        _check_strings(report, g, la, max_degree, traces, walks)

    if resolver is not None:
        steps = {e: resolver(g, e, max_degree + 1) for e in g.edge_ids}
        complexes = {e: ProjResolution.from_steps(la, e, steps[e]) for e in g.edge_ids}
        # the flip fault corrupts only the complexes examined by
        # _check_resolution, never the shared ones
        examined = dict(complexes)
        if flip is not None:
            examined[flip[0]] = ProjResolution.from_steps(la, flip[0],
                                                          _flip(steps[flip[0]], flip))
        _check_resolution(report, g, la, max_degree, examined, walks, traces)
        _check_certificates(report, g, la, min(4, max_degree), complexes)

    if regimes.syzygies and regimes.mixed:
        _check_obstruction(report, g, la, walks)

    if graded and regimes.truncated and h.kind == "DHomogeneous":
        _check_nakayama_degrees(report, g, max_degree, h.d, walks)

    if kr.is_koszul and graded:
        _check_linear(report, g, min(5, max_degree + 1), walks)

    return report


def _check_strings(report: DiffReport, g, la, n_max: int, traces, walks):
    for e in g.edge_ids:
        trace = traces[e]
        syzygies = walks[e].grow(n_max - 1).syzygies
        for n in range(1, n_max + 1):
            om = syzygies[n]
            pred = trace.descriptors[n]
            want = (dimension(g, pred), dict(pred.top()), dict(pred.socle()))
            got = (om.total_dim, dict(om.top()), dict(om.socle()))
            if want != got:
                report.add(
                    "string-syzygy",
                    f"degree {n} of the simple at {e}: descriptor predicts "
                    f"{want}, oracle kernel computes {got}",
                )
        # reversal compatibility along the trace; literal for genuine strings,
        # up to the reversal identification for the palindromic simples.  The
        # trace's next descriptor is the syzygy of this one.
        for n in range(n_max):
            sig = trace.descriptors[n]
            lhs, rhs = syzygy(g, sig.reverse()), trace.descriptors[n + 1].reverse()
            agree = (lhs.entries == rhs.entries if len(sig) > 1
                     else lhs.canonical() == rhs.canonical())
            if not agree:
                report.add("string-reversal",
                           f"syzygy does not commute with reversal at {sig}")
        # explicit realization of the first couple of descriptors
        for n in range(min(2, n_max) + 1):
            sig = trace.descriptors[n]
            m = realize(g, sig, la)
            if (m.total_dim, dict(m.top()), dict(m.socle())) != (
                dimension(g, sig), dict(sig.top()), dict(sig.socle())
            ):
                report.add("realize",
                           f"explicit module for {sig} disagrees with the descriptor")


def _check_resolution(report: DiffReport, g, la, n_max: int, complexes, walks, traces):
    """The complexes against the oracle walks."""
    for e in g.edge_ids:
        res = complexes[e]
        oracle = walks[e].grow(n_max)
        bad = res.complex_is_zero()
        if bad:
            report.add("complex",
                       f"differentials of the simple at {e} do not compose to "
                       f"zero in degrees {bad}")
        bad = res.exactness_defects(n_max)
        if bad:
            report.add("exactness",
                       f"resolution of the simple at {e} fails exactness at {bad}")
        bad = res.minimality_defects()
        if bad:
            report.add("minimality",
                       f"differential entries outside the radical in degrees {bad}")
        for n in range(n_max + 1):
            want = dict(res.summand_multiset(n))
            got = dict(oracle.summand_multiset(n))
            if want != got:
                report.add("summands",
                           f"degree {n} of {e}: matrix resolution uses {want}, "
                           f"oracle cover uses {got}")
        if la.graded:
            for n in range(n_max + 1):
                want = res.generation_degrees(n)
                got = oracle.generation_degrees(n)
                if want != got:
                    report.add("generation-degrees",
                               f"degree {n} of {e}: predicted {want}, oracle {got}")
                formula = generation_degrees(g, e, n)
                if want != formula:
                    report.add("generation-degrees",
                               f"degree {n} of {e}: summands say {want}, "
                               f"formula says {formula}")
                if want and max(want) > delta(n, g.regimes.degree):
                    report.add("delta-bound",
                               f"degree {n} of {e} exceeds the degree bound")
        if traces is not None:
            for n in range(n_max + 1):
                top = traces[e].descriptors[n].top()
                total = sum(top[t] for t in g.edge_ids)
                if total != n + 1:
                    report.add("ext-count",
                               f"degree {n} of {e}: canonical count {total} != {n + 1}")


def _check_certificates(report: DiffReport, g, la, cert_cap: int, resolutions):
    f = la.field
    products = {}
    for e in g.edge_ids:
        certs = edge_certificates(g, e, cert_cap)
        for n in range(1, cert_cap + 1):
            for i, cert in certs[n].items():
                try:
                    value = _evaluate(cert, resolutions, products)
                # the factors do not compose, or a lift fails through a
                # complex that is not exact
                except (ValueError, RuntimeError) as exc:
                    report.add("certificate",
                               f"degree {n} position {i} of {e}: {exc}")
                    continue
                target = canonical_element(resolutions[e], n, i)
                if not _scalar_multiple(value, target, f):
                    report.add(
                        "certificate",
                        f"degree {n} position {i} of {e}: the factored product "
                        f"is not a nonzero multiple of the canonical class",
                    )


def _evaluate(cert, resolutions, products):
    """The Yoneda product of the certificate's leaves.  ``products`` keeps it
    per element, since the left factor of a certificate is the certificate
    of a lower-degree element that is checked on its own."""
    el = cert.element
    if el not in products:
        if cert.is_leaf:
            products[el] = canonical_element(resolutions[el.source], el.degree, el.position)
        else:
            left, right = cert.factors
            products[el] = yoneda_multiply(_evaluate(right, resolutions, products),
                                           _evaluate(left, resolutions, products))
    return products[el]


def _scalar_multiple(value: ExtElement, target: ExtElement, f) -> bool:
    v, t = value.coeffs, target.coeffs
    if not v or set(v) != set(t):
        return False
    ratios = [f.mul(x, f.inv(t[i])) for i, x in v.items()]
    return all(f.is_zero(f.sub(x, ratios[0])) for x in ratios)


def _check_obstruction(report: DiffReport, g, la, walks):
    witness = obstruction_element(g)
    if witness is None:
        report.add("obstruction", "both edge kinds present but no walk witness")
        return
    n = witness["ext_degree"] - 1
    s0, sn = witness["from"], witness["to"]
    count = ext_dim(g, s0, sn, n + 1)
    if count != 1:
        report.add("obstruction", f"string count of the witness class is {count}")
    for res in walks.values():
        res.grow(n + 1)
    r0 = walks[s0]
    idxs = [i for i, (e, _, _) in enumerate(r0.summands[n + 1]) if e == sn]
    if len(idxs) != 1:
        report.add("obstruction",
                   f"oracle sees {len(idxs)} copies of the witness target")
        return
    w = ExtElement(r0, n + 1, {idxs[0]: la.field.one})
    if element_in_span(walks, w, n):
        report.add("obstruction",
                   "witness class lies in the subalgebra generated in degrees "
                   f"at most {n}")


def _check_nakayama_degrees(report: DiffReport, g, n_max: int, d: int, walks):
    for e in g.edge_ids:
        res = walks[e].grow(n_max)
        for n in range(n_max + 1):
            degs = res.generation_degrees(n)
            if degs != [delta(n, d)]:
                report.add("nakayama-degrees",
                           f"degree {n} of {e}: generated in {degs}, "
                           f"expected degree {delta(n, d)}")


def _check_linear(report: DiffReport, g, n_max: int, walks):
    for e in g.edge_ids:
        res = walks[e].grow(n_max)
        for n in range(n_max + 1):
            degs = res.generation_degrees(n)
            if degs and degs != [n]:
                report.add("linearity",
                           f"degree {n} of {e}: generated in {degs}, not linearly")
