"""Right modules over the oracle algebra as explicit representations.

A module assigns to each quiver vertex a based vector space and to each
arrow a matrix acting on row vectors.  Every vector here is one sparse row,
the dict of its nonzeros (column -> coefficient), and no vector is ever
written out dense:

- an arrow's action: ``action[name]`` has one row per basis vector of the
  arrow's source block, in the target's block;
- a module map's blocks: ``blocks[v]`` has one row per basis vector of the
  source at v, in the target's block at v;
- the generator images of a map out of projectives: one row per generator,
  in the target's block at the generator's edge.

Everything needed downstream - tops, socles, projective covers, kernels,
minimal resolutions - reduces to row reductions of these sparse rows, and
all of them happen in ``oracle/linalg.py``: the top and the pivots of a
cover are the pivot columns of the arrow rows into each vertex, read once
per module off one forward step (``Module.top_positions``), the socle is n
minus the rank of the arrow rows out of a vertex side by side, the
exactness ranks are those of the blocks, and a kernel is one left kernel
per vertex, of the cover's whole block there.  Ranks and tops need only
pivot columns, so they run the untracked forward step alone.  Kernels and
solves read the tracked one, ``linalg.Elimination``: a map builds it for
a block on first read (``ModuleMap.elimination``) and keeps it, so the
kernel of a cover reads its block's elimination, and every lift through a
differential solves against the one elimination of the differential's
block there.

When the algebra is length graded, basis vectors carry degrees and arrows
raise degree by one.  A cover is then homogeneous, so the reduced kernel
of a block splits by degree: each kernel row lies in the degree of its
free position, and the rows are listed in degree order, so that graded
generation degrees come out exactly.

A sum of indecomposable projectives is a ``ProjectiveSum``, which records
per summand only its edge, its offsets and its generator; the word layout
of each projective is ``FiniteDimAlgebra.projective_words``.  Its arrow
rows and degree lists are the algebra's shared ones: each summand's arrow
rows are ``FiniteDimAlgebra.shifted_rows`` of its edge at its offset, and
its degrees ``FiniteDimAlgebra.projective_degrees`` of its edge and
generation degree, each built once per algebra, so a sum only extends its
lists with them.  A module is not changed after it is built: its rows may
be shared with other modules and with the algebra, and every reader,
``oracle/linalg.py`` included, copies a row before it rewrites it.  A
module map out of such a sum is fixed by where each generator goes, and
``ModuleMap(source, target, images=...)`` is the one constructor of such
a map, from the generator images: projective covers here, and the
path-matrix differentials and lifted chain maps of ``oracle/ext.py``, are
all built by it.  The map keeps the images and pushes them along each
summand's basis words into per-vertex blocks only when the blocks are
first read.  The pushing follows the algebra's plan for the summand's
edge (``FiniteDimAlgebra.push_plan``, built once per algebra): a flat
list of steps, shortest word first, each multiplying the sparse vector
of a shorter word by one arrow's rows of the target over its nonzeros;
the vectors of the basis words are the block rows.  Composing multiplies
each generator image by the block rows of the next map at its edge, and
such a map is zero exactly when every image is; the ranks of a map's
blocks are computed once and shared by its image and kernel dimensions.

``projective_cover`` and ``kernel_module`` are the two steps of a minimal
resolution; the walk that alternates them is ``ProjResolution.from_oracle``
in ``oracle/ext.py``, and ``min_resolution`` here is a view of that walk.
The kernel inclusion is the one map whose source is not projective, and it
is given by its blocks: the reduced kernel basis, read off the
elimination of the cover's block at each vertex.  Each basis row has a 1
at its free position and no other row an entry there, so the syzygy
action is read off the arrow images (each basis row times the projective's
arrow rows) at those positions, and multiplying the coordinates back by
the basis rows checks that the kernel is closed under the action.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Optional

from . import linalg
from .algebra import FiniteDimAlgebra


class Module:
    """A right module given by its basis degrees and arrow rows; it is not
    changed after it is built, so its top is computed once."""

    def __init__(self, la: FiniteDimAlgebra,
                 degrees: dict[str, list[Optional[int]]],
                 action: dict[str, list[dict]]):
        self.la = la
        self.degrees = degrees  # per quiver vertex, one entry per basis vector
        # per arrow name, one row per basis vector at the arrow's source: its
        # image at the arrow's target
        self.action = action

    def dim(self, v: str) -> int:
        return len(self.degrees.get(v, ()))

    @property
    def total_dim(self) -> int:
        return sum(len(x) for x in self.degrees.values())

    def dim_vector(self) -> dict[str, int]:
        return {v: self.dim(v) for v in self.la.quiver.vertices if self.dim(v)}

    # -- structure ------------------------------------------------------

    @cached_property
    def top_positions(self) -> dict[str, list[int]]:
        """Per vertex, the basis positions that are no pivot column of
        M * rad there, which the arrow rows into the vertex span: their
        classes are a basis of the top.  The arrow rows into each vertex go
        through one forward step, whose pivot columns are those of the
        reduced form; computed once per module."""
        f = self.la.field
        pivots: dict[str, dict] = {v: {} for v in self.degrees}
        for a in self.la.quiver.arrows:
            linalg._forward(pivots[a.target], self.action[a.name], f)
        return {v: [i for i in range(self.dim(v)) if i not in pivots[v]]
                for v in self.degrees}

    def top(self) -> Counter:
        return Counter({v: len(p) for v, p in self.top_positions.items() if p})

    def socle(self) -> Counter:
        """Per vertex, n minus the rank of the arrow rows out of it, the
        arrows side by side, each in its own columns."""
        out = Counter()
        for v in self.degrees:
            n = self.dim(v)
            if n == 0:
                continue
            stacked: list[dict] = [{} for _ in range(n)]
            col0 = 0
            for a in self.la.quiver.arrows_from.get(v, ()):
                for row, image in zip(stacked, self.action[a.name]):
                    for j, x in image.items():
                        row[col0 + j] = x
                col0 += self.dim(a.target)
            k = n - linalg.rank(stacked, self.la.field)
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

    ``blocks[v]`` has one row per basis vector of the source at v, in the
    target's block at v; rows may be shared and are never changed.  A map
    out of a ``ProjectiveSum`` is given by ``images``: ``images[k]`` is the
    image of summand k's generator, a row in the target's block at the
    summand's edge, and each basis word w of the summand goes to
    ``images[k]`` times w when the blocks are pushed, on first read.  A map
    out of any other module (a kernel inclusion) is given by its blocks and
    has no images.  The tracked elimination of a block is built on first read
    and kept with the map.
    """

    def __init__(self, source: Module, target: Module,
                 blocks: Optional[dict[str, list[dict]]] = None,
                 images: Optional[list[dict]] = None):
        self.source = source
        self.target = target
        self.images = images
        if blocks is not None:
            self.blocks = blocks

    @cached_property
    def blocks(self) -> dict[str, list[dict]]:
        """Each summand's basis word w goes to its generator's image times w,
        pushed along the algebra's plan for the summand's edge
        (``FiniteDimAlgebra.push_plan``): each step multiplies the vector of
        a shorter word by one arrow's rows in the target."""
        source, target = self.source, self.target
        la = source.la
        f, action = la.field, target.action
        blocks: dict[str, list[dict]] = {v: [] for v in la.quiver.vertices}
        for (e, _), image in zip(source.generators, self.images):
            steps, slots = la.push_plan(e)
            if not image:  # a generator sent to zero sends every word to zero
                for v, at in slots.items():
                    blocks[v].extend({} for _ in at)
                continue
            vecs = [image]
            for parent, a in steps:
                vec = vecs[parent]
                vecs.append(_times(vec, action[a], f) if vec else vec)
            for v, at in slots.items():
                blocks[v].extend([vecs[k] for k in at])
        return blocks

    @cached_property
    def _eliminations(self) -> dict[str, linalg.Elimination]:
        """The eliminations built so far, per vertex; most maps, the kept
        lift levels among them, never build one."""
        return {}

    def elimination(self, v: str) -> linalg.Elimination:
        """The tracked elimination of the block at ``v``, built on first
        read and kept for the map's life: the kernel and every solve
        against the block read it."""
        elim = self._eliminations.get(v)
        if elim is None:
            elim = linalg.Elimination(self.blocks[v], self.source.la.field)
            self._eliminations[v] = elim
        return elim

    @cached_property
    def ranks(self) -> dict[str, int]:
        """Rank of each nonempty block, computed once per map."""
        f = self.source.la.field
        return {v: linalg.rank(m, f) for v, m in self.blocks.items() if m}

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        """This map, out of a sum of projectives, followed by ``then``: each
        generator image times ``then``'s block at the generator's edge."""
        f = self.source.la.field
        images = [_times(image, then.blocks[e], f)
                  for (e, _), image in zip(self.source.generators, self.images)]
        return ModuleMap(self.source, then.target, images=images)

    def is_zero(self) -> bool:
        """A map out of a sum of projectives is zero exactly when it kills
        every generator."""
        return not any(self.images)

    def total_image_dim(self) -> int:
        return sum(self.ranks.values())

    def total_kernel_dim(self) -> int:
        return sum(self.source.dim(v) - r for v, r in self.ranks.items())


def simple_module(la: FiniteDimAlgebra, e: str) -> Module:
    """The simple at ``e``, in degree 0 when the algebra is graded."""
    degrees = {v: ([0 if la.graded else None] if v == e else [])
               for v in la.quiver.vertices}
    action = {a.name: [{} for _ in degrees[a.source]] for a in la.quiver.arrows}
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
        action: dict[str, list[dict]] = {a.name: [] for a in la.quiver.arrows}
        self.offsets: list[dict[str, int]] = []
        self.generators: list[tuple[str, int]] = []
        for e, d in summands:
            offsets = {v: len(degrees[v]) for v in degrees}
            self.offsets.append(offsets)
            self.generators.append(
                (e, offsets[e] + la.word_position[la.basis_index[(e, ())]]))
            # an arrow out of a vertex the projective does not occupy has no rows
            for v, words in la.projective_words[e].items():
                if words:
                    for a in la.quiver.arrows_from[v]:
                        action[a.name].extend(la.shifted_rows(e, a.name, offsets[a.target]))
            for v, degs in la.projective_degrees(e, d).items():
                degrees[v].extend(degs)
        super().__init__(la, degrees, action)


def _times(vec: dict, rows: list[dict], f) -> dict:
    """The sparse row ``vec`` times the sparse rows ``rows``, over the
    nonzeros of both.  A product of two nonzeros is nonzero, so only an
    entry that is summed can vanish, and it is dropped there."""
    out: dict = {}
    for i, x in vec.items():
        for j, y in rows[i].items():
            if j in out:
                z = f.add(out[j], f.mul(x, y))
                if f.is_zero(z):
                    del out[j]
                else:
                    out[j] = z
            else:
                out[j] = f.mul(x, y)
    return out


def projective_cover(mod: Module) -> tuple[ProjectiveSum, ModuleMap, list[tuple]]:
    """Cover by projectives indexed by the top; returns (P, map, summands)
    with one (vertex, generation degree) per summand."""
    la = mod.la
    f = la.field
    tops = mod.top_positions
    summands: list[tuple[str, Optional[int]]] = []
    images: list[dict] = []
    for v in la.quiver.vertices:
        for i in tops.get(v, ()):
            summands.append((v, mod.degrees[v][i]))
            images.append({i: f.one})
    P = ProjectiveSum(la, summands)
    return P, ModuleMap(P, mod, images=images), summands


def kernel_module(phi: ModuleMap) -> tuple[Module, ModuleMap]:
    """Kernel with its inclusion: one left kernel per vertex, read off the
    elimination of ``phi``'s block there, its rows in degree order.
    ``phi`` is a cover, so it is homogeneous: the block row of a basis word
    in degree d lies in the target's degree d.  So the reduced kernel of a
    vertex's block splits by degree, and each kernel row lies in the degree
    of its free position, its largest index, which the elimination lists
    with it.  The rows are listed by (degree, free position); an ungraded
    module has the single degree None."""
    P = phi.source
    la = P.la
    f = la.field
    basis: dict[str, list[dict]] = {}  # per vertex, the kernel basis rows
    degrees: dict[str, list[Optional[int]]] = {}
    free: dict[str, dict[int, int]] = {}  # per vertex, free position -> basis index
    for v in la.quiver.vertices:
        degs = P.degrees[v]
        elim = phi.elimination(v)
        # the kernel rows come by free position; a stable sort by the degree
        # there gives the order (degree, free position)
        order = sorted(zip(elim.free, elim.kernel),
                       key=lambda fr: (degs[fr[0]] is None, degs[fr[0]]))
        basis[v] = [row for _, row in order]
        degrees[v] = [degs[i] for i, _ in order]
        free[v] = {i: k for k, (i, _) in enumerate(order)}
    # a kernel basis row has a 1 at its free position and every other row of
    # its vertex no entry there: the coordinates of a vector in their span
    # are its entries at the free positions
    action = {}
    for a in la.quiver.arrows:
        at = free[a.target]
        action[a.name] = []
        for b in basis[a.source]:
            image = _times(b, P.action[a.name], f)
            coords = {at[i]: x for i, x in image.items() if i in at}
            if _times(coords, basis[a.target], f) != image:
                raise RuntimeError("kernel is not closed under the action")
            action[a.name].append(coords)
    K = Module(la, degrees, action)
    incl = ModuleMap(K, P, blocks=basis)
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
