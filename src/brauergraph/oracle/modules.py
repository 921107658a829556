"""Right modules over the oracle algebra as explicit representations.

A module assigns to each quiver vertex a based vector space and to each
arrow a matrix acting on row vectors.  The matrix is stored in one form
only, sparse: ``action[name]`` has one row per basis vector of the arrow's
source block, and each row is the tuple of its (column, coefficient)
nonzeros.  Everything needed downstream - tops, socles, projective covers,
kernels, minimal resolutions - reduces to exact rank computations, and the
dense rows those need are written out from the sparse ones where they are
used: ``radical_rows`` (the rank of the top, the pivots of a cover),
``socle`` (one left kernel per vertex) and the images of a kernel basis in
``kernel_module``.

When the algebra is length graded, basis vectors carry degrees, arrows
raise degree by one, and kernels are computed degreewise so that graded
generation degrees come out exactly.

A sum of indecomposable projectives is a ``ProjectiveSum``, which records
per summand only its edge, its offsets and its generator; the word layout
of each projective is ``FiniteDimAlgebra.projective_words``.  Its arrow
rows are those of ``FiniteDimAlgebra.projective_action``, computed once per
algebra and edge, with each summand's columns shifted by its offset.  A
module map out of such a sum is fixed by where each generator goes, and
``map_from_generators`` is the one constructor that turns generator images
into such a map: projective covers here, and the path-matrix differentials
and lifted chain maps of ``oracle/ext.py``, are all built by it.  The map
keeps the images, one dense row per generator, and pushes them along each
summand's basis words into per-vertex blocks only when the blocks are first
read; every pushed prefix is a sparse vector, multiplied by the target's
sparse rows over its nonzeros, and a block row is written out dense only
when it is stored in the block.  Composing multiplies each generator image
by one block of the next map, and such a map is zero exactly when every
image is; the ranks of a map's blocks are computed once and shared by its
image and kernel dimensions.

``projective_cover`` and ``kernel_module`` are the two steps of a minimal
resolution; the walk that alternates them is ``ProjResolution.from_oracle``
in ``oracle/ext.py``, and ``min_resolution`` here is a view of that walk.
The kernel inclusion is the one map whose source is not projective, and it
is given by its blocks: the reduced kernel basis, dense.  Each basis row
has a 1 at its free position and every other row a 0 there, so the syzygy
action is read off the arrow images (each basis row times the projective's
sparse rows) at those positions, and multiplying back checks that the
kernel is closed under the action.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Optional

from . import linalg
from .algebra import FiniteDimAlgebra


class Module:
    def __init__(self, la: FiniteDimAlgebra,
                 degrees: dict[str, list[Optional[int]]],
                 action: dict[str, list[tuple]]):
        self.la = la
        self.degrees = degrees  # per quiver vertex, one entry per basis vector
        # per arrow name, one row per basis vector at the arrow's source: the
        # (column, coefficient) nonzeros of its image at the arrow's target
        self.action = action

    def dim(self, v: str) -> int:
        return len(self.degrees.get(v, ()))

    @property
    def total_dim(self) -> int:
        return sum(len(x) for x in self.degrees.values())

    def dim_vector(self) -> dict[str, int]:
        return {v: self.dim(v) for v in self.la.quiver.vertices if self.dim(v)}

    # -- structure ------------------------------------------------------

    def radical_rows(self) -> dict[str, list[list]]:
        """Spanning rows of M * rad inside each vertex block, dense."""
        f = self.la.field
        rows: dict[str, list[list]] = {v: [] for v in self.degrees}
        for a in self.la.quiver.arrows:
            n = self.dim(a.target)
            for row in self.action[a.name]:
                if row:
                    rows.setdefault(a.target, []).append(_dense(row, n, f))
        return rows

    def top(self) -> Counter:
        out = Counter()
        rad = self.radical_rows()
        for v in self.degrees:
            n = self.dim(v)
            if n == 0:
                continue
            out[v] = n - linalg.rank(rad.get(v, []), self.la.field)
            if out[v] == 0:
                del out[v]
        return out

    def socle(self) -> Counter:
        out = Counter()
        f = self.la.field
        for v in self.degrees:
            n = self.dim(v)
            if n == 0:
                continue
            arrows = self.la.quiver.arrows_from.get(v, ())
            width = sum(self.dim(a.target) for a in arrows)
            if width == 0:
                out[v] = n
                continue
            # the arrows out of v side by side, each in its own columns
            stacked = linalg.zeros(n, width, f)
            col0 = 0
            for a in arrows:
                for i, row in enumerate(self.action[a.name]):
                    for j, x in row:
                        stacked[i][col0 + j] = x
                col0 += self.dim(a.target)
            k = len(linalg.left_kernel(stacked, f))
            if k:
                out[v] = k
        return out

    def descriptor(self) -> tuple:
        """Dimension vector, top, socle: the isomorphism test used here."""
        return (
            tuple(sorted(self.dim_vector().items())),
            tuple(sorted(self.top().items())),
            tuple(sorted(self.socle().items())),
        )


class ModuleMap:
    """Per-vertex matrices (row convention) commuting with the arrow action.

    A map out of a ``ProjectiveSum`` is stored as ``images``, one target row
    per generator, and its ``blocks`` are pushed from them on first read; a
    map out of any other module (a kernel inclusion) is given by its blocks
    and has no images.
    """

    def __init__(self, source: Module, target: Module,
                 blocks: Optional[dict[str, list[list]]] = None,
                 images: Optional[list[list]] = None):
        self.source = source
        self.target = target
        self.images = images
        if blocks is not None:
            self.blocks = blocks

    @cached_property
    def blocks(self) -> dict[str, list[list]]:
        """Each summand's basis word w goes to its generator's image times w."""
        source, target = self.source, self.target
        la = source.la
        f = la.field
        blocks: dict[str, list[list]] = {v: [] for v in la.quiver.vertices}
        dims = {v: target.dim(v) for v in la.quiver.vertices}
        for (e, _), image in zip(source.generators, self.images):
            start = {j: x for j, x in enumerate(image) if not f.is_zero(x)}
            pushed = {(): start}
            for v, words in la.projective_words[e].items():
                n = dims[v]
                if not start:  # a generator sent to zero sends every word to zero
                    blocks[v].extend([f.zero] * n for _ in words)
                    continue
                blocks[v].extend(_dense(_push(target, pushed, la.basis[i][1]).items(), n, f)
                                 for i in words)
        return blocks

    @cached_property
    def ranks(self) -> dict[str, int]:
        """Rank of each nonempty block, computed once per map."""
        f = self.source.la.field
        return {v: linalg.rank(m, f) for v, m in self.blocks.items() if m}

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        """This map, out of a sum of projectives, followed by ``then``: each
        generator image times ``then``'s block at the generator's edge."""
        f = self.source.la.field
        images = []
        for (e, _), image in zip(self.source.generators, self.images):
            b = then.blocks[e]
            images.append(linalg.vec_mul(image, b, f) if b
                          else [f.zero] * then.target.dim(e))
        return map_from_generators(self.source, then.target, images)

    def is_zero(self) -> bool:
        """A map out of a sum of projectives is zero exactly when it kills
        every generator."""
        f = self.source.la.field
        return all(f.is_zero(x) for image in self.images for x in image)

    def total_image_dim(self) -> int:
        return sum(self.ranks.values())

    def total_kernel_dim(self) -> int:
        return sum(self.source.dim(v) - r for v, r in self.ranks.items())


def simple_module(la: FiniteDimAlgebra, e: str) -> Module:
    """The simple at ``e``, in degree 0 when the algebra is graded."""
    degrees = {v: ([0 if la.graded else None] if v == e else [])
               for v in la.quiver.vertices}
    action = {a.name: [()] * len(degrees[a.source]) for a in la.quiver.arrows}
    return Module(la, degrees, action)


class ProjectiveSum(Module):
    """Direct sum of indecomposable projectives, one per (edge, generation
    degree or None) in ``summands``.

    Summand k starts at ``offsets[k][v]`` in the block of each vertex v; its
    generator is row ``generators[k][1]`` of the block of its edge
    ``generators[k][0]``.  Its arrow rows are ``la.projective_action`` of
    its edge, shifted by its offset at the arrow's target.
    """

    def __init__(self, la: FiniteDimAlgebra, summands: list[tuple[str, Optional[int]]]):
        degrees: dict[str, list[Optional[int]]] = {v: [] for v in la.quiver.vertices}
        self.offsets: list[dict[str, int]] = []
        self.generators: list[tuple[str, int]] = []
        for e, d in summands:
            offsets = {v: len(degrees[v]) for v in degrees}
            self.offsets.append(offsets)
            self.generators.append(
                (e, offsets[e] + la.word_position[la.basis_index[(e, ())]]))
            for v, words in la.projective_words[e].items():
                degrees[v].extend(((d or 0) + la.degree(i)) if la.graded else None
                                  for i in words)
        action: dict[str, list[tuple]] = {a.name: [] for a in la.quiver.arrows}
        for (e, _), offsets in zip(self.generators, self.offsets):
            rows_at = la.projective_action(e)
            for a in la.quiver.arrows:
                rows = rows_at[a.name]
                col0 = offsets[a.target]
                action[a.name].extend(
                    rows if col0 == 0 else
                    [tuple((col0 + j, x) for j, x in row) for row in rows])
        super().__init__(la, degrees, action)


def projective_module(la: FiniteDimAlgebra, e: str) -> ProjectiveSum:
    """The right ideal at the vertex of ``e``: basis are normal words from e."""
    return ProjectiveSum(la, [(e, 0)])


def map_from_generators(source: ProjectiveSum, target: Module,
                        images: list[list]) -> ModuleMap:
    """The module map out of a sum of projectives that sends the generator of
    summand k to ``images[k]``, a row vector in the target's block at that
    summand's edge; each basis word w of the summand goes to ``images[k]``
    times w when the blocks are first read."""
    return ModuleMap(source, target, images=images)


def _push(mod: Module, pushed: dict[tuple, dict], arrows: tuple[int, ...]) -> dict:
    """``pushed[()]`` times the path ``arrows`` in ``mod``, as a sparse vector;
    ``pushed`` keeps the image of every prefix walked so far."""
    if arrows not in pushed:
        vec = _push(mod, pushed, arrows[:-1])
        a = mod.la.quiver.arrows[arrows[-1]]
        pushed[arrows] = _times(vec, mod.action[a.name], mod.la.field) if vec else vec
    return pushed[arrows]


def _times(vec: dict, rows: list[tuple], f) -> dict:
    """The sparse vector ``vec`` (index -> nonzero coefficient) times the
    sparse rows ``rows``, over the nonzeros of both."""
    out: dict = {}
    for i, x in vec.items():
        for j, y in rows[i]:
            out[j] = f.add(out[j], f.mul(x, y)) if j in out else f.mul(x, y)
    return {j: x for j, x in out.items() if not f.is_zero(x)}


def _dense(pairs, n: int, f) -> list:
    """The (column, coefficient) pairs ``pairs`` as a dense row of width n."""
    row = [f.zero] * n
    for j, x in pairs:
        row[j] = x
    return row


def projective_cover(mod: Module) -> tuple[ProjectiveSum, ModuleMap, list[tuple]]:
    """Cover by projectives indexed by the top; returns (P, map, summands)
    with one (vertex, generation degree) per summand."""
    la = mod.la
    f = la.field
    rad = mod.radical_rows()
    summands: list[tuple[str, Optional[int]]] = []
    images: list[list] = []
    for v in la.quiver.vertices:
        n = mod.dim(v)
        if n == 0:
            continue
        _, pivots = linalg.rref(rad.get(v, []), f)
        for i in range(n):
            if i not in pivots:
                summands.append((v, mod.degrees[v][i]))
                unit = [f.zero] * n
                unit[i] = f.one
                images.append(unit)
    P = ProjectiveSum(la, summands)
    return P, map_from_generators(P, mod, images), summands


def kernel_module(phi: ModuleMap) -> tuple[Module, ModuleMap]:
    """Kernel with its inclusion, computed degreewise; an ungraded module
    has the single degree None."""
    P, M = phi.source, phi.target
    la = P.la
    f = la.field
    basis_rows: dict[str, list[list]] = {}
    nonzeros: dict[str, list[dict]] = {}  # the same rows, as sparse vectors
    degrees: dict[str, list[Optional[int]]] = {}
    for v in la.quiver.vertices:
        n = P.dim(v)
        degrees[v] = []
        basis_rows[v] = []
        nonzeros[v] = []
        if n == 0:
            continue
        block = phi.blocks[v]
        slots: dict[Optional[int], list[int]] = {}
        for i, d in enumerate(P.degrees[v]):
            slots.setdefault(d, []).append(i)
        tgt_slots: dict[Optional[int], list[int]] = {}
        for j, d in enumerate(M.degrees[v]):
            tgt_slots.setdefault(d, []).append(j)
        for d in sorted(slots, key=lambda x: (x is None, x)):
            rows = slots[d]
            cols = tgt_slots.get(d, [])
            if cols:
                kern = linalg.left_kernel([[block[i][j] for j in cols] for i in rows], f)
            else:
                kern = linalg.identity(len(rows), f)
            for kv in kern:
                nonzero = {i: x for i, x in zip(rows, kv) if not f.is_zero(x)}
                nonzeros[v].append(nonzero)
                basis_rows[v].append(_dense(nonzero.items(), n, f))
                degrees[v].append(d)
    # a kernel basis row has a 1 at its free position, its last nonzero, and
    # every other row of its vertex a 0 there: the coordinates of a vector in
    # their span are its entries at the free positions
    free = {v: [max(row) for row in rows] for v, rows in nonzeros.items()}
    action = {}
    for a in la.quiver.arrows:
        images = [_dense(_times(b, P.action[a.name], f).items(), P.dim(a.target), f)
                  for b in nonzeros[a.source]]
        coords = [[image[i] for i in free[a.target]] for image in images]
        back = (linalg.mat_mul(coords, basis_rows[a.target], f) if basis_rows[a.target]
                else [[f.zero] * P.dim(a.target) for _ in images])
        if back != images:
            raise RuntimeError("kernel is not closed under the action")
        action[a.name] = [tuple((k, x) for k, x in enumerate(row) if not f.is_zero(x))
                          for row in coords]
    K = Module(la, degrees, action)
    incl = ModuleMap(K, P, blocks=basis_rows)
    return K, incl


def min_resolution(la: FiniteDimAlgebra, e: str, n: int) -> list[dict]:
    """Resolution data of the simple at ``e``: per degree, cover summands
    with generation degrees and the syzygy descriptor, read off
    ``ProjResolution.from_oracle``."""
    from .ext import ProjResolution

    res = ProjResolution.from_oracle(la, e, n)
    return [
        {
            "degree": k,
            "summands": res.summand_multiset(k),
            "generation_degrees": sorted(
                {d for _, d, _ in res.summands[k]}, key=lambda x: (x is None, x)
            ),
            "syzygy_descriptor": res.syzygies[k + 1].descriptor(),
            "syzygy_dim": res.syzygies[k + 1].total_dim,
        }
        for k in range(n + 1)
    ]
