"""Right modules over the oracle algebra as explicit representations.

A module assigns to each quiver vertex a based vector space and to each
arrow a matrix acting on row vectors.  Everything needed downstream -
tops, socles, projective covers, kernels, minimal resolutions - reduces
to exact rank computations on these matrices.

When the algebra is length graded, basis vectors carry degrees, arrows
raise degree by one, and kernels are computed degreewise so that graded
generation degrees come out exactly.

``projective_cover`` and ``kernel_module`` are the two steps of a minimal
resolution; the walk that alternates them is ``ProjResolution.from_oracle``
in ``oracle/ext.py``, and ``min_resolution`` here is a view of that walk.
"""
from __future__ import annotations

from collections import Counter
from typing import Optional

from . import linalg
from .algebra import FiniteDimAlgebra


class Module:
    def __init__(self, la: FiniteDimAlgebra,
                 degrees: dict[str, list[Optional[int]]],
                 action: dict[str, list[list]]):
        self.la = la
        self.degrees = degrees  # per quiver vertex, one entry per basis vector
        self.action = action    # per arrow name, row-convention matrix

    def dim(self, v: str) -> int:
        return len(self.degrees.get(v, ()))

    @property
    def total_dim(self) -> int:
        return sum(len(x) for x in self.degrees.values())

    def dim_vector(self) -> dict[str, int]:
        return {v: self.dim(v) for v in self.la.quiver.vertices if self.dim(v)}

    def arrow_matrix(self, arrow) -> list[list]:
        return self.action[arrow.name]

    # -- structure ------------------------------------------------------

    def radical_rows(self) -> dict[str, list[list]]:
        """Spanning rows of M * rad inside each vertex block."""
        rows: dict[str, list[list]] = {v: [] for v in self.degrees}
        for a in self.la.quiver.arrows:
            m = self.action[a.name]
            tgt = a.target
            for row in m:
                if any(not self.la.field.is_zero(x) for x in row):
                    rows.setdefault(tgt, []).append(list(row))
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
            stacked: list[list] = []
            width = 0
            for a in self.la.quiver.arrows_from.get(v, ()):
                m = self.action[a.name]
                cols = len(m[0]) if m else 0
                for i in range(n):
                    if len(stacked) <= i:
                        stacked.append([])
                for i in range(n):
                    stacked[i] = stacked[i] + list(m[i])
                width += cols
            if width == 0:
                out[v] = n
                continue
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
    """Per-vertex matrices (row convention) commuting with the arrow action."""

    def __init__(self, source: Module, target: Module, blocks: dict[str, list[list]]):
        self.source = source
        self.target = target
        self.blocks = blocks

    def block(self, v: str) -> list[list]:
        return self.blocks.get(v, [])

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        f = self.source.la.field
        blocks = {}
        for v in self.blocks:
            a, b = self.blocks[v], then.blocks.get(v, [])
            blocks[v] = linalg.mat_mul(a, b, f) if a and b else []
        return ModuleMap(self.source, then.target, blocks)

    def is_zero(self) -> bool:
        f = self.source.la.field
        for m in self.blocks.values():
            for row in m:
                if any(not f.is_zero(x) for x in row):
                    return False
        return True

    def image_dims(self) -> dict[str, int]:
        f = self.source.la.field
        return {v: linalg.rank(m, f) for v, m in self.blocks.items() if m}

    def total_image_dim(self) -> int:
        return sum(self.image_dims().values())

    def total_kernel_dim(self) -> int:
        f = self.source.la.field
        total = 0
        for v in self.blocks:
            n = self.source.dim(v)
            if n == 0:
                continue
            total += n - linalg.rank(self.blocks[v], f)
        return total


def zero_module(la: FiniteDimAlgebra) -> Module:
    degrees = {v: [] for v in la.quiver.vertices}
    action = {a.name: [] for a in la.quiver.arrows}
    return Module(la, degrees, action)


def simple_module(la: FiniteDimAlgebra, e: str, degree: int = 0) -> Module:
    degrees = {v: ([degree] if v == e else []) for v in la.quiver.vertices}
    action = {}
    for a in la.quiver.arrows:
        rows = len(degrees[a.source])
        cols = len(degrees[a.target])
        action[a.name] = linalg.zeros(rows, cols, la.field)
    return Module(la, degrees, action)


def projective_module(la: FiniteDimAlgebra, e: str, gen_degree: int = 0) -> Module:
    """The right ideal at the vertex of ``e``: basis are normal words from e."""
    words = la.basis_by_source[e]
    by_vertex: dict[str, list[int]] = {v: [] for v in la.quiver.vertices}
    for i in words:
        by_vertex[la.word_target(la.basis[i])].append(i)
    pos: dict[int, int] = {}
    degrees: dict[str, list[Optional[int]]] = {}
    for v, idxs in by_vertex.items():
        degrees[v] = [
            (gen_degree + la.degree(i)) if la.graded else None for i in idxs
        ]
        for k, i in enumerate(idxs):
            pos[i] = k
    f = la.field
    action = {}
    for a in la.quiver.arrows:
        src, tgt = by_vertex[a.source], by_vertex[a.target]
        m = linalg.zeros(len(src), len(tgt), f)
        ai = la.quiver.arrow_index[a]
        for r, i in enumerate(src):
            word = la.basis[i]
            vec = la.word_to_vec(word[0], word[1] + (ai,))
            for j, c in vec.items():
                m[r][pos[j]] = c
        action[a.name] = m
    mod = Module(la, degrees, action)
    mod._proj_edge = e  # noqa: SLF001 - bookkeeping for covers
    mod._proj_words = by_vertex
    mod._proj_pos = pos
    return mod


def direct_sum(mods: list[Module]) -> tuple[Module, list[dict[str, int]]]:
    """Concatenate blocks; returns per-summand offsets at each vertex."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use zero_module")
    la = mods[0].la
    f = la.field
    offsets: list[dict[str, int]] = []
    degrees: dict[str, list[Optional[int]]] = {v: [] for v in la.quiver.vertices}
    for m in mods:
        offsets.append({v: len(degrees[v]) for v in degrees})
        for v in degrees:
            degrees[v].extend(m.degrees.get(v, []))
    action = {}
    for a in la.quiver.arrows:
        rows = len(degrees[a.source])
        cols = len(degrees[a.target])
        big = linalg.zeros(rows, cols, f)
        for k, m in enumerate(mods):
            sub = m.action[a.name]
            ro, co = offsets[k][a.source], offsets[k][a.target]
            for i, row in enumerate(sub):
                for j, x in enumerate(row):
                    big[ro + i][co + j] = x
        action[a.name] = big
    return Module(la, degrees, action), offsets


def generator_index(proj: Module, offsets: dict[str, int]) -> int:
    """Index of a projective's generator in its vertex block of a direct sum
    that places ``proj`` at ``offsets``."""
    e = proj._proj_edge
    return offsets[e] + proj._proj_pos[proj.la.basis_index[(e, ())]]


def projective_cover(mod: Module) -> tuple[Module, "ModuleMap", list[tuple]]:
    """Cover by projectives indexed by the top; returns (P, map, summands)
    with one (vertex, generation degree, generator index) per summand."""
    la = mod.la
    f = la.field
    rad = mod.radical_rows()
    summands: list[tuple[str, Optional[int]]] = []
    lifts: list[tuple[str, list]] = []
    for v in la.quiver.vertices:
        n = mod.dim(v)
        if n == 0:
            continue
        red, pivots = linalg.rref(rad.get(v, []), f)
        free = [i for i in range(n) if i not in set(pivots)]
        for i in free:
            deg = mod.degrees[v][i]
            summands.append((v, deg))
            unit = [f.zero] * n
            unit[i] = f.one
            lifts.append((v, unit))
    if not summands:
        return zero_module(la), ModuleMap(zero_module(la), mod, {}), []
    projs = [projective_module(la, e, gen_degree=(d if d is not None else 0))
             for e, d in summands]
    big, offsets = direct_sum(projs)
    blocks: dict[str, list[list]] = {
        v: linalg.zeros(big.dim(v), mod.dim(v), f) for v in la.quiver.vertices
    }
    for k, (proj, (v_gen, lift)) in enumerate(zip(projs, lifts)):
        for v, idxs in proj._proj_words.items():
            for local, i in enumerate(idxs):
                word = la.basis[i]
                arrows = [la.quiver.arrows[t] for t in word[1]]
                _, img = _apply(mod, v_gen, lift, arrows)
                row = offsets[k][v] + local
                blocks[v][row] = img
    cover = ModuleMap(big, mod, blocks)
    return big, cover, [(v, d, generator_index(proj, offsets[k]))
                        for k, ((v, d), proj) in enumerate(zip(summands, projs))]


def _apply(mod: Module, v: str, vec: list, arrows: list) -> tuple[str, list]:
    f = mod.la.field
    cur_v, cur = v, list(vec)
    for a in arrows:
        m = mod.action[a.name]
        ncols = len(m[0]) if m else mod.dim(a.target)
        out = [f.zero] * ncols
        for i, x in enumerate(cur):
            if f.is_zero(x):
                continue
            row = m[i]
            for j, y in enumerate(row):
                if not f.is_zero(y):
                    out[j] = f.add(out[j], f.mul(x, y))
        cur_v, cur = a.target, out
    return cur_v, cur


def kernel_module(phi: ModuleMap) -> tuple[Module, ModuleMap]:
    """Kernel with its inclusion; degreewise when the algebra is graded."""
    P, M = phi.source, phi.target
    la = P.la
    f = la.field
    basis_rows: dict[str, list[list]] = {}
    degrees: dict[str, list[Optional[int]]] = {}
    for v in la.quiver.vertices:
        n = P.dim(v)
        degrees[v] = []
        basis_rows[v] = []
        if n == 0:
            continue
        block = phi.blocks.get(v) or linalg.zeros(n, M.dim(v), f)
        if la.graded:
            slots: dict[Optional[int], list[int]] = {}
            for i, d in enumerate(P.degrees[v]):
                slots.setdefault(d, []).append(i)
            tgt_slots: dict[Optional[int], list[int]] = {}
            for j, d in enumerate(M.degrees[v]):
                tgt_slots.setdefault(d, []).append(j)
            for d in sorted(slots, key=lambda x: (x is None, x)):
                rows = slots[d]
                cols = tgt_slots.get(d, [])
                sub = [[block[i][j] for j in cols] for i in rows]
                if cols:
                    kern = linalg.left_kernel(sub, f)
                else:
                    kern = linalg.identity(len(rows), f)
                for kv in kern:
                    full = [f.zero] * n
                    for local, i in enumerate(rows):
                        full[i] = kv[local]
                    basis_rows[v].append(full)
                    degrees[v].append(d)
        else:
            kern = linalg.left_kernel(block, f) if M.dim(v) else linalg.identity(n, f)
            for kv in kern:
                basis_rows[v].append(list(kv))
                degrees[v].append(None)
    action = {}
    for a in la.quiver.arrows:
        src_basis = basis_rows[a.source]
        tgt_basis = basis_rows[a.target]
        m = linalg.zeros(len(src_basis), len(tgt_basis), f)
        amat = P.action[a.name]
        for i, kv in enumerate(src_basis):
            _, img = _apply(P, a.source, kv, [a])
            if tgt_basis:
                coords = linalg.solve_left(tgt_basis, img, f)
                if coords is None:
                    raise RuntimeError("kernel is not closed under the action")
                m[i] = coords
            elif any(not f.is_zero(x) for x in img):
                raise RuntimeError("kernel is not closed under the action")
        action[a.name] = m
    K = Module(la, degrees, action)
    incl = ModuleMap(K, P, {v: basis_rows[v] for v in basis_rows})
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
