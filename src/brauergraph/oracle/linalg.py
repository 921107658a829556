"""Dense and sparse exact linear algebra over a field object.

Matrices are lists of row lists.  Linear maps between right modules are
stored in the row-vector convention: a map sends the row vector v to v*A,
so its kernel is the left kernel of A and its image is the row space.
"""
from __future__ import annotations

from typing import Optional


def zeros(nrows: int, ncols: int, field) -> list[list]:
    return [[field.zero] * ncols for _ in range(nrows)]


def identity(n: int, field) -> list[list]:
    out = zeros(n, n, field)
    for i in range(n):
        out[i][i] = field.one
    return out


def vec_mul(v: list, b: list[list], field) -> list:
    """The row vector v times the matrix b; a b with no rows has width 0."""
    out = [field.zero] * (len(b[0]) if b else 0)
    for x, brow in zip(v, b, strict=True):
        if field.is_zero(x):
            continue
        for j, y in enumerate(brow):
            if not field.is_zero(y):
                out[j] = field.add(out[j], field.mul(x, y))
    return out


def mat_mul(a: list[list], b: list[list], field) -> list[list]:
    return [vec_mul(row, b, field) for row in a]


def transpose(a: list[list]) -> list[list]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: list[list], field) -> int:
    return len(rref(rows, field)[0])


def right_kernel(rows: list[list], ncols: int, field) -> list[list]:
    """Basis of {x : A x = 0}, x of length ncols."""
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][fc])
        basis.append(vec)
    return basis


def left_kernel(a: list[list], field) -> list[list]:
    """Basis of {v : v A = 0}, v of length nrows(a)."""
    return right_kernel(transpose(a), len(a), field)


def solve_left(a: list[list], bs: list[list], field) -> Optional[list[list]]:
    """One solution v of v A = b for every row b of ``bs``, or None when any
    of them is inconsistent.

    A is row reduced once, transposed with every b appended as one more
    column; a pivot in the columns of A does not depend on the columns after
    it, so each solution is the one a reduction with b alone would give.
    """
    nrows = len(a)
    if nrows == 0:
        if any(not field.is_zero(x) for b in bs for x in b):
            return None
        return [[] for _ in bs]
    aug = [row + list(rhs) for row, rhs in zip(transpose(a), zip(*bs))]
    red, pivots = rref(aug, field)
    if pivots and pivots[-1] >= nrows:
        return None
    solutions = []
    for k in range(nrows, nrows + len(bs)):
        v = [field.zero] * nrows
        for i, pc in enumerate(pivots):
            x = red[i][k]
            if not field.is_zero(x):  # keep the shared zero: results are stored densely
                v[pc] = x
        solutions.append(v)
    return solutions


class SparseReducer:
    """Incremental row reduction of sparse vectors keyed by arbitrary columns.

    Rows are dicts column -> coefficient.  Used for the word-space quotients
    of the oracle where the ambient basis is large but rows touch few
    columns.
    """

    def __init__(self, field):
        self.field = field
        self.pivot_rows: dict = {}

    def reduce(self, row: dict) -> dict:
        f = self.field
        row = {c: x for c, x in row.items() if not f.is_zero(x)}
        while True:
            hit = None
            for c in row:
                if c in self.pivot_rows:
                    hit = c
                    break
            if hit is None:
                return row
            coeff = row[hit]
            for c, x in self.pivot_rows[hit].items():
                val = f.sub(row.get(c, f.zero), f.mul(coeff, x))
                if f.is_zero(val):
                    row.pop(c, None)
                else:
                    row[c] = val

    def add(self, row: dict) -> bool:
        """Reduce and insert; returns True when the row enlarged the span."""
        f = self.field
        row = self.reduce(row)
        if not row:
            return False
        pivot = self._pick_pivot(row)
        inv = f.inv(row[pivot])
        row = {c: f.mul(inv, x) for c, x in row.items()}
        for pc, prow in self.pivot_rows.items():
            if pivot in prow:
                coeff = prow[pivot]
                for c, x in row.items():
                    val = f.sub(prow.get(c, f.zero), f.mul(coeff, x))
                    if f.is_zero(val):
                        prow.pop(c, None)
                    else:
                        prow[c] = val
        self.pivot_rows[pivot] = row
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def _pick_pivot(self, row: dict):
        # prefer eliminating "larger" columns so small ones stay as normal forms
        return max(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)
