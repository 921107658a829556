"""Decision procedures for the regularity classes of the algebra.

Each verdict is decided purely from the graph shape and comes with a
short reason and, where it helps, a witness (a truncated edge, a
violating vertex).  The classes fit together as

    2-d-Koszul  =>  2-d-determined  =>  2-d-homogeneous
    Koszul      =>  quadratic

and "generated in degrees 0, 1, 2" depends only on whether truncated and
nontruncated edges coexist.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graph import BrauerGraph, HypothesisError, is_length_graded, star_centers
from .presentation import Homogeneity, Presentation, far_successor_truncated, homogeneity


@dataclass
class KoszulReport:
    homogeneity: Homogeneity
    is_quadratic: bool
    is_koszul: bool
    d_koszul: Optional[int]          # d >= 3 when the algebra is d-homogeneous
    ext_generated_012: bool          # degrees 0, 1, 2 suffice to generate
    is_k2: Optional[bool]            # the graded label; None when not length graded
    is_2d_homogeneous: Optional[int]  # d when 2-d-homogeneous
    is_2d_determined: bool
    is_2d_koszul: bool
    conditional: bool                # nontrivial quantizer without a symbolic guarantee
    explanations: dict[str, str] = field(default_factory=dict)
    witnesses: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        h = {"kind": self.homogeneity.kind}
        if self.homogeneity.d is not None:
            h["d"] = self.homogeneity.d
        return {
            "homogeneity": h,
            "quadratic": self.is_quadratic,
            "koszul": self.is_koszul,
            "d_koszul": self.d_koszul,
            "ext_generated_in_degrees_012": self.ext_generated_012,
            "k2": self.is_k2,
            "two_d_homogeneous": self.is_2d_homogeneous,
            "two_d_determined": self.is_2d_determined,
            "two_d_koszul": self.is_2d_koszul,
            "conditional_on_field": self.conditional,
        }


def _path_multiplicities(g: BrauerGraph) -> Optional[list[int]]:
    """Multiplicities along a path graph from one end to the other.

    A connected graph with |E| = |V| - 1 is a tree, so it has no loop and
    no multiple edge.  The walk steps with ``follow`` from the first end."""
    if len(g.edge_ids) != len(g.vertex_ids) - 1 or not g.is_connected():
        return None
    valencies = {v: g.valency(v) for v in g.vertex_ids}
    if any(k > 2 for k in valencies.values()):
        return None
    ends = [v for v, k in valencies.items() if k == 1]
    if len(ends) != 2:
        return None
    order = [ends[0]]
    h = g.rotation[ends[0]][0].other()  # the first edge's half at its far end
    for _ in g.edge_ids:
        order.append(g.vertex_of(h))
        h = g.follow(h)
    return [g.multiplicity(v) for v in order]


def quadratic_family_check(g: BrauerGraph) -> bool:
    """Membership in the six graph shapes whose algebra is quadratic."""
    n_e = len(g.edge_ids)
    # single loop, multiplicity one
    if n_e == 1 and g.is_loop(g.edge_ids[0]):
        return g.multiplicity(g.vertex_ids[0]) == 1
    # circular graph, multiplicity one (includes the double edge)
    if (
        n_e == len(g.vertex_ids)
        and n_e >= 2
        and all(g.valency(v) == 2 for v in g.vertex_ids)
        and not any(g.is_loop(e) for e in g.edge_ids)
        and g.is_connected()
    ):
        return all(g.multiplicity(v) == 1 for v in g.vertex_ids)
    ms = _path_multiplicities(g)
    if ms is None:
        return False
    n = len(ms)  # number of vertices of the path
    interior_ok = all(m == 1 for m in ms[1:-1])
    if not interior_ok:
        return False
    first, last = ms[0], ms[-1]
    if n == 2 and first == 1 and last == 1:
        return True  # the single edge with trivial multiplicities
    if n >= 2 and first == 2 and last == 2:
        return True
    if n >= 3 and sorted((first, last)) == [1, 2]:
        return True
    if n >= 4 and first == 1 and last == 1:
        return True
    return False


def d_homog_star_check(g: BrauerGraph, d: int) -> bool:
    """Star with n edges, n dividing d-1, center multiplicity (d-1)/n,
    trivial outer multiplicities."""
    if d < 3:
        return False
    for c in star_centers(g):
        n = len(g.edge_ids)
        outers = [g.other_end(e, c) for e in g.edge_ids]
        if (
            (d - 1) % n == 0
            and g.multiplicity(c) == (d - 1) // n
            and all(g.multiplicity(t) == 1 for t in outers)
        ):
            return True
    return False


def two_d_conditions(g: BrauerGraph, d: int) -> str:
    """Which of the two shape conditions for a 2-d-homogeneous algebra holds:
    ``Cond1`` (every vertex has valency x multiplicity = d), ``Cond2``
    (a truncated edge exists, no truncated edge has a truncated far
    successor, every vertex has valency x multiplicity 1 or d), or
    ``Neither``."""
    if d < 3:
        raise HypothesisError("the two-degree conditions assume d > 2")
    if all(g.valency(v) * g.multiplicity(v) == d for v in g.vertex_ids):
        return "Cond1"
    if (
        g.has_truncated_edge()
        and not g.is_a2_trivial()
        and not any(far_successor_truncated(g, e)
                    for e in g.edge_ids if g.edge_is_truncated(e))
        and all(g.valency(v) * g.multiplicity(v) in (1, d) for v in g.vertex_ids)
    ):
        return "Cond2"
    return "Neither"


def koszul_report(g: BrauerGraph, pres: Optional[Presentation] = None) -> KoszulReport:
    """The verdicts of the paper for ``g``; ``pres``, when given, is its
    presentation, already built by the caller."""
    h = homogeneity(g, pres)
    quadratic = h.kind == "Quadratic"
    has_trunc = g.has_truncated_edge()
    has_nontrunc = g.has_nontruncated_edge()
    graded = is_length_graded(g)

    explanations: dict[str, str] = {}
    witnesses: dict[str, object] = {}

    koszul = quadratic and (g.is_a2_trivial() or not has_trunc)
    if quadratic:
        if koszul:
            explanations["koszul"] = (
                "quadratic, and either the single-edge case or free of truncated edges"
            )
        else:
            explanations["koszul"] = (
                "quadratic but a truncated edge forces a nonlinear resolution"
            )
            witnesses["koszul"] = next(
                e for e in g.edge_ids if g.edge_is_truncated(e)
            )
    else:
        explanations["koszul"] = "not quadratic"

    d_koszul = h.d if (h.kind == "DHomogeneous" and h.d and h.d >= 3) else None
    explanations["d_koszul"] = (
        f"homogeneous of degree {h.d}; such algebras are d-Koszul"
        if d_koszul
        else "not homogeneous of a single degree at least three"
    )

    gen012 = not (has_trunc and has_nontrunc)
    if gen012:
        explanations["ext_generated_in_degrees_012"] = (
            "truncated and nontruncated edges do not coexist"
        )
    else:
        t = next(e for e in g.edge_ids if g.edge_is_truncated(e))
        u = next(e for e in g.edge_ids if not g.edge_is_truncated(e))
        explanations["ext_generated_in_degrees_012"] = (
            "a truncated and a nontruncated edge coexist, which creates a "
            "cohomology class no low-degree products reach"
        )
        witnesses["ext_generated_in_degrees_012"] = {"truncated": t, "nontruncated": u}

    is_k2: Optional[bool] = gen012 if graded else None
    explanations["k2"] = (
        "length graded, so degree-0/1/2 generation is the graded property"
        if graded
        else "not length graded; the graded label does not apply"
    )

    two_d = h.d if h.kind == "TwoDHomogeneous" else None
    two_d_det = bool(two_d) and not has_trunc
    two_d_kos = two_d_det
    if two_d:
        explanations["two_d"] = (
            f"minimal relations in degrees 2 and {two_d}"
            + ("; no truncated edges, hence determined and with finitely "
               "generated cohomology" if two_d_det else
               "; a truncated edge breaks the degree bound in homological degree 3")
        )
        if not two_d_det:
            witnesses["two_d"] = next(
                e for e in g.edge_ids if g.edge_is_truncated(e)
            )

    conditional = False
    if not g.quantizer_trivial():
        if max(g.valency(v) for v in g.vertex_ids) > 2:
            conditional = True
            explanations["conditional"] = (
                "nontrivial quantizer at a vertex of valency above two: the "
                "degree claims hold only over fields with enough roots"
            )

    return KoszulReport(
        homogeneity=h,
        is_quadratic=quadratic,
        is_koszul=koszul,
        d_koszul=d_koszul,
        ext_generated_012=gen012,
        is_k2=is_k2,
        is_2d_homogeneous=two_d,
        is_2d_determined=two_d_det,
        is_2d_koszul=two_d_kos,
        conditional=conditional,
        explanations=explanations,
        witnesses=witnesses,
    )
