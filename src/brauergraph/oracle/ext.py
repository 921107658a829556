"""Cohomology over the oracle: explicit resolutions as complexes of
projectives, chain-map lifting, Yoneda products, and closure of the
subalgebra generated in low degrees.

``ProjResolution.from_oracle`` is the one cover-then-kernel walk over the
oracle, and ``grow`` extends it on demand, so a caller resolves each simple
once and reads syzygies, summands and generation degrees of any depth off
the same object.  The covers and the differentials between them are all a
walk needs to report generators and their degrees; the syzygy under the
deepest cover, the walk's deepest kernel, is needed only to go one
degree further.  So it is taken on the first read of ``syzygies`` (or by
the next ``grow``), and a walk that is never read below its deepest cover
never computes it.

Every map between the projectives of a resolution is a ``ModuleMap``
given by ``images``, those of the generators: the covers of an oracle
walk, the path matrices of ``from_steps`` (each column's generator goes to
the signed sum of its paths) and the chain maps of ``lift_through`` (each
generator goes to a solution of one linear system).  Lifting works on
generator rows: the right-hand side for a generator of Q^{n+k} is its
image under the differential followed by the previous level of the lift,
one product per generator, and a level's blocks are built only when the
next level composes through them.  A lift starts at level one, which
reads its right-hand side off the differential alone: psi_0 would be the
identity of the lifted class's summand onto the target's Q^0 and zero
elsewhere, so each image's entries in that summand, shifted to Q^0, are
the product, and psi_0 is never built.

A degree-n cohomology element of the simple at s is a functional on the
generators of the n-th projective in a fixed resolution of s; the basis
dual to the generators is the canonical basis.  Products are computed by
lifting one factor through the resolution of its target and composing.

Lifts are kept.  ``lift_through`` lifts one basis class, and each
resolution keeps in ``lifts`` the levels of the lift of each of its basis
classes, keyed by (degree, generator index, target resolution, held by a
weak reference); a level is solved only past the deepest one kept, and
every read of a level goes through ``lift_through``.  The lift is linear
in the class (level one's right-hand side is, composing is, and each level
solves against the kept elimination of the differential's block,
``ModuleMap.elimination``, whose solution is the unique one supported on
the block's greedy independent rows - those that are no combination of the
rows before them - and so linear in its right-hand side), so
``yoneda_multiply`` is bilinear: it reads y off level ``y.degree`` of each
basis class e_i's lift and sums over the coefficients of x, which equals
lifting x whole.  The elimination is kept with the differential, so each
block is eliminated once however many classes are lifted through it.  A
lift through a complex that is not exact fails with the same
``RuntimeError`` at the level that cannot be solved.

Every vector here - a generator image, a lifting level's right-hand side
or solution, the coefficients of an ``ExtElement`` - is a dict of its
nonzeros, the oracle's one row form (``oracle/linalg.py``).

The subalgebra generated in low degrees is the direct sum of its (source,
target) slices, since every product of basis classes has one source and
one target.  ``element_in_span`` closes only the slice of the class it
tests, and ``generated_subalgebra_dims`` sums the slices from every source
to every target (``_Slices``).  A slice in degree d is spanned by the
products y o g of a generator g from its source with the classes y of
the slice of degree d - deg g from g's target, read recursively, so a
generator is lifted only when such a y exists, and once, however many
products read it.
"""
from __future__ import annotations

import weakref
from collections import Counter
from typing import Optional

from ..resolution import ResolutionStep
from . import linalg
from .algebra import FiniteDimAlgebra
from .modules import (
    Module,
    ModuleMap,
    ProjectiveSum,
    kernel_module,
    projective_cover,
    simple_module,
)


class ProjResolution:
    """Explicit complex of projectives over a simple module.

    ``modules[n]`` is the n-th projective, a ``ProjectiveSum`` whose
    ``generators`` place each summand's generator; ``summands[n]`` lists
    (edge, generation degree or None, position or None) per summand.  An
    oracle resolution also has ``syzygies[n]``, the n-th syzygy of the
    simple (``syzygies[0]`` is the simple itself).  Each syzygy is the
    kernel of the cover above it, and the one under the deepest cover is
    taken on the first read of ``syzygies``.
    """

    def __init__(self, la: FiniteDimAlgebra, source: str):
        self.la = la
        self.source = source
        self.modules: list[ProjectiveSum] = []
        self.maps: list[Optional[ModuleMap]] = [None]  # maps[n]: Q^n -> Q^{n-1}
        self.summands: list[list[tuple[str, Optional[int], Optional[int]]]] = []
        self._syzygies: list[Module] = []
        # the cover of the last syzygy taken, whose kernel is taken on the
        # first read of ``syzygies``
        self._pending: Optional[ModuleMap] = None
        self._inclusion: Optional[ModuleMap] = None  # last syzygy -> Q^{n-1}
        # the levels psi_1, psi_2, ... of the lift of each basis class, kept
        # by lift_through: (degree, generator index, weak reference to the
        # target resolution) -> levels; a weak key ties no resolution to
        # another, so no reference cycle outlives a verify call
        self.lifts: dict[tuple[int, int, weakref.ref], list[ModuleMap]] = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_steps(cls, la: FiniteDimAlgebra, source: str,
                   steps: list[ResolutionStep]) -> "ProjResolution":
        res = cls(la, source)
        for step in steps:
            gen_by_pos = dict(step.generation_degrees or ())
            info = [(edge, gen_by_pos.get(pos), pos) for pos, edge in step.summands]
            P = ProjectiveSum(la, [(edge, deg) for edge, deg, _ in info])
            if res.modules:
                Q = res.modules[-1]
                res.maps.append(ModuleMap(
                    P, Q, images=_path_images(P, Q, step.differential)))
            res.modules.append(P)
            res.summands.append(info)
        return res

    @classmethod
    def from_oracle(cls, la: FiniteDimAlgebra, source: str, n_max: int) -> "ProjResolution":
        """Minimal resolution of the simple at ``source`` through degree
        ``n_max`` by projective covers of kernels; ``n_max = -1`` starts an
        empty walk for ``grow``."""
        res = cls(la, source)
        res._syzygies.append(simple_module(la, source))
        return res.grow(n_max)

    def grow(self, n_max: int) -> "ProjResolution":
        """Extend an oracle resolution through degree ``n_max``; degrees
        already walked are kept as they are.  The kernel of the deepest
        cover stays pending until ``syzygies`` is read."""
        for _ in range(len(self.modules), n_max + 1):
            P, cover, summ = projective_cover(self.syzygies[-1])
            self.modules.append(P)
            self.summands.append([(e, d, None) for e, d in summ])
            if self._inclusion is not None:
                self.maps.append(cover.compose(self._inclusion))
            self._pending = cover
        return self

    @property
    def syzygies(self) -> list[Module]:
        """The syzygies of the simple, ``syzygies[0]`` the simple itself:
        n + 2 of them once an oracle walk has grown through degree n (none
        for ``from_steps``).  The last is taken, as the kernel of the
        deepest cover, on the first read."""
        if self._pending is not None:
            K, self._inclusion = kernel_module(self._pending)
            self._syzygies.append(K)
            self._pending = None
        return self._syzygies

    # -- checks ----------------------------------------------------------

    def complex_is_zero(self) -> list[int]:
        """Degrees n where f^{n-1} o f^n fails to vanish."""
        bad = []
        for n in range(2, len(self.modules)):
            comp = self.maps[n].compose(self.maps[n - 1])
            if not comp.is_zero():
                bad.append(n)
        return bad

    def exactness_defects(self, n_max: int) -> list[int]:
        """Degrees n <= ``n_max`` with dim ker f^n != dim im f^{n+1} (f^0 the
        augmentation)."""
        bad = []
        for n in range(0, n_max + 1):
            if n == 0:
                ker = self.modules[0].total_dim - 1
            else:
                ker = self.maps[n].total_kernel_dim()
            im = self.maps[n + 1].total_image_dim()
            if ker != im:
                bad.append(n)
        return bad

    def minimality_defects(self) -> list[int]:
        """Degrees whose differential has an entry outside the radical."""
        return [
            n for n in range(1, len(self.modules))
            if any(gi in row
                   for gv, gi in self.modules[n - 1].generators
                   for row in self.maps[n].blocks[gv])
        ]

    def summand_multiset(self, n: int) -> Counter:
        return Counter(e for e, _, _ in self.summands[n])

    def generation_degrees(self, n: int) -> list[int]:
        return sorted({d for _, d, _ in self.summands[n] if d is not None})


def _path_images(P: ProjectiveSum, Q: ProjectiveSum, differential: dict) -> list[dict]:
    """Generator images of a sparse path matrix P -> Q: the generator of
    column ``col`` goes to the sum over rows of sign times the path, read in
    the summand ``row`` of Q."""
    la = P.la
    f = la.field
    images: list[dict] = [{} for _ in P.generators]
    for (row, col), (sign, path) in differential.items():
        offset = Q.offsets[row][P.generators[col][0]]
        image = images[col]
        for j, c in la.path_form(path).items():
            k = offset + la.word_position[j]
            c = c if sign > 0 else f.neg(c)
            image[k] = f.add(image[k], c) if k in image else c
    return [{k: x for k, x in image.items() if not f.is_zero(x)} for image in images]


# ----------------------------------------------------------------------
# cohomology elements and products


class ExtElement:
    """A functional on the generators of one projective of one resolution;
    ``coeffs`` holds its nonzero coefficients, generator index ->
    coefficient, the zeros given to it dropped here."""

    def __init__(self, res: ProjResolution, degree: int, coeffs: dict[int, object]):
        self.res = res
        self.degree = degree
        f = res.la.field
        self.coeffs = {i: c for i, c in coeffs.items() if not f.is_zero(c)}

    @property
    def source(self) -> str:
        return self.res.source

    def targets(self) -> set[str]:
        return {self.res.summands[self.degree][i][0] for i in self.coeffs}


def canonical_element(res: ProjResolution, degree: int, position: int) -> ExtElement:
    for i, (_, _, pos) in enumerate(res.summands[degree]):
        if pos == position:
            return ExtElement(res, degree, {i: res.la.field.one})
    raise ValueError(f"no summand at position {position} in degree {degree}")


def lift_through(src: ProjResolution, n: int, i: int, target_res: ProjResolution,
                 m: int) -> ModuleMap:
    """Level m of the lift of basis class i of degree n of ``src`` through
    ``target_res``: the chain map Q^{n+m} of ``src`` -> Q^m of the target's.

    Summand i must be the target resolution's simple, and m at least 1.
    The levels from 1 up are kept in ``src.lifts``, and only those past the
    deepest one kept are solved."""
    if src.summands[n][i][0] != target_res.source:
        raise ValueError("element does not map into the requested simple")
    if m < 1:
        raise ValueError(f"a lift starts at level 1, not {m}")
    levels = src.lifts.setdefault((n, i, weakref.ref(target_res)), [])
    for k in range(len(levels) + 1, m + 1):
        levels.append(_lift_level(src, n, i, target_res, k, levels[-1] if levels else None))
    return levels[m - 1]


def _lift_level(src: ProjResolution, n: int, i: int, target_res: ProjResolution,
                k: int, psi: Optional[ModuleMap]) -> ModuleMap:
    """Level k of the lift of basis class i of degree n, from level k - 1
    ``psi`` (None at k = 1): each generator of Q^{n+k} goes to a solution
    against the target's differential of its image under the differential
    and psi_{k-1}.

    At k = 1 that image is read off the differential alone: psi_0 is the
    identity of summand i onto the target's Q^0, the one projective at
    summand i's edge, and zero on every other summand, so each image is the
    generator's image under the differential cut to summand i and shifted
    to Q^0."""
    if k == 1:
        rhs = _summand_part(src.maps[n + 1], i)
    else:
        # composing reads psi's blocks, so every level but the deepest builds them
        rhs = src.maps[n + k].compose(psi).images
    g = target_res.maps[k]
    generators = src.modules[n + k].generators
    # one system per vertex: every generator there solves against g's block,
    # whose elimination g keeps for every class lifted through it
    by_vertex: dict[str, list[int]] = {}
    for j, (gv, _) in enumerate(generators):
        by_vertex.setdefault(gv, []).append(j)
    images: list = [None] * len(generators)
    for gv, js in by_vertex.items():
        ys = g.elimination(gv).solve([rhs[j] for j in js])
        if ys is None:
            raise RuntimeError("comparison lifting failed; complex not exact?")
        for j, y in zip(js, ys):
            images[j] = y
    return ModuleMap(src.modules[n + k], target_res.modules[k], images=images)


def _summand_part(phi: ModuleMap, i: int) -> list[dict]:
    """The generator images of ``phi``, rows of its target Q at the
    generators' edges, cut to summand i of Q and shifted to the projective
    of summand i's edge alone, whose words at each vertex are laid out as
    the summand's are."""
    Q = phi.target
    words = Q.la.projective_words[Q.generators[i][0]]
    parts = []
    for (gv, _), image in zip(phi.source.generators, phi.images):
        lo = Q.offsets[i][gv]
        hi = lo + len(words[gv])
        parts.append({p - lo: c for p, c in image.items() if lo <= p < hi})
    return parts


def yoneda_multiply(y: ExtElement, x: ExtElement) -> ExtElement:
    """Composite class y o x where x ends at the simple y starts from.

    Q^0 has one generator, so a degree-0 ``y`` is c times the identity and
    y o x = c x.  Otherwise the product is bilinear: the sum, over the
    nonzero coefficients c_i of ``x``, of c_i times ``y`` read off level
    ``y.degree`` of the lift of the basis class e_i, kept by ``lift_through``."""
    src, n, m = x.res, x.degree, y.degree
    f = src.la.field
    for t in x.targets():
        if y.res.source != t:
            raise ValueError("factors not composable")
    if m == 0:
        c = y.coeffs.get(0, f.zero)
        return ExtElement(src, n, {j: f.mul(a, c) for j, a in x.coeffs.items()})
    # y's coefficients per vertex: (position in the block there, coefficient)
    y_at: dict[str, list[tuple[int, object]]] = {}
    for i, c in y.coeffs.items():
        tgv, tgi = y.res.modules[m].generators[i]
        y_at.setdefault(tgv, []).append((tgi, c))
    lifts = [(a, lift_through(src, n, i, y.res, m).images) for i, a in x.coeffs.items()]
    totals = {}
    for j, (gv, _) in enumerate(src.modules[n + m].generators):
        total = f.zero
        for a, images in lifts:
            row = images[j]
            for tgi, c in y_at.get(gv, ()):
                if tgi in row:
                    total = f.add(total, f.mul(a, f.mul(c, row[tgi])))
        totals[j] = total
    return ExtElement(src, n + m, totals)


def generated_subalgebra_dims(resolutions: dict[str, ProjResolution],
                              max_gen_degree: int, n_max: int) -> dict[int, int]:
    """Total dimension, per degree up to ``n_max``, of the subalgebra of the
    cohomology ring generated by classes of degree at most ``max_gen_degree``:
    the slices from every source that end anywhere, summed."""
    slices = _Slices(resolutions, set(resolutions), max_gen_degree)
    return {d: sum(len(slices.span(s, d)) for s in resolutions) for d in range(1, n_max + 1)}


def full_ext_dims(resolutions: dict[str, ProjResolution], n_max: int) -> dict[int, int]:
    return {
        d: sum(len(res.summands[d]) for res in resolutions.values())
        for d in range(1, n_max + 1)
    }


def element_in_span(resolutions: dict[str, ProjResolution], elem: ExtElement,
                    max_gen_degree: int) -> bool:
    """Is the class in the subalgebra generated below ``max_gen_degree``?
    Only its slice is closed: the classes from its source that end in its
    targets."""
    slices = _Slices(resolutions, elem.targets(), max_gen_degree)
    reducer = linalg.SparseReducer(elem.res.la.field)
    for x in slices.span(elem.source, elem.degree):
        reducer.add(x.coeffs)
    return reducer.contains(elem.coeffs)


class _Slices:
    """The slices of the subalgebra generated in degrees at most
    ``max_gen_degree`` that end in ``targets``: ``span(s, d)`` lists
    independent classes spanning the degree-d classes from s that end in
    ``targets``, each slice closed once, on first read.

    Every product of basis classes has one source and one target, so the
    subalgebra is the direct sum of its (source, target) slices.  In a
    generator degree the slice is its basis classes, and no products are
    formed.  Above, every word in the generators ends in a generator and
    the product is bilinear, so the slice is spanned by the products y o g
    with g a basis class of degree k <= max_gen_degree from s, which has
    one target t, and y in the slice of degree d - k from t; g is lifted
    only when that slice is not empty.
    """

    def __init__(self, resolutions: dict[str, ProjResolution], targets: set[str],
                 max_gen_degree: int):
        self.resolutions = resolutions
        self.targets = targets
        self.max_gen_degree = max_gen_degree
        self.field = next(iter(resolutions.values())).la.field
        self.spans: dict[tuple[str, int], list[ExtElement]] = {}

    def span(self, s: str, d: int) -> list[ExtElement]:
        if (s, d) in self.spans:
            return self.spans[s, d]
        f, res = self.field, self.resolutions[s]
        if d <= self.max_gen_degree:
            out = [ExtElement(res, d, {i: f.one})
                   for i, (t, _, _) in enumerate(res.summands[d]) if t in self.targets]
        else:
            reducer = linalg.SparseReducer(f)
            out = []
            for k in range(1, min(d, self.max_gen_degree + 1)):
                for i, (t, _, _) in enumerate(res.summands[k]):
                    g = ExtElement(res, k, {i: f.one})
                    for y in self.span(t, d - k):
                        cand = yoneda_multiply(y, g)
                        if reducer.add(cand.coeffs):
                            out.append(cand)
        self.spans[s, d] = out
        return out
