"""Exact linear algebra over a field object, on sparse rows.

A row is stored as its nonzeros: a dict column -> coefficient with no zero
coefficient.  ``rref`` and ``rank`` also take a row as a tuple of
(column, coefficient) pairs, the form of a module's arrow action.  Linear
maps between right modules are stored in the row-vector convention: a map
sends the row vector v to v*A, so its kernel is the left kernel of A and
its image is the row space.

Every elimination of the oracle's modules and maps happens in one row
reduction, ``rref``: it pivots each row on its least column, eliminates
forward and then back-substitutes, giving the reduced row echelon form,
which is unique.  Ranks, tops, socles and the pivots of a projective cover
read its pivot columns; ``left_kernel`` and ``solve_left`` read the rows
of the reduced transpose.  ``SparseReducer`` is the incremental reduction
of the word-space quotients and of the Ext closure.
"""
from __future__ import annotations

from typing import Iterable, Optional


def _subtract(row: dict, x, prow: dict, f) -> None:
    """``row`` minus x times ``prow``, in place, keeping only nonzeros."""
    for j, y in prow.items():
        if j in row:
            z = f.sub(row[j], f.mul(x, y))
            if f.is_zero(z):
                del row[j]
            else:
                row[j] = z
        else:
            row[j] = f.neg(f.mul(x, y))


def rref(rows: Iterable, field) -> tuple[list[dict], list]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns,
    in increasing pivot order.

    Forward, each row is reduced by the pivot rows found so far until its
    least column is no pivot, and then becomes the pivot row of that
    column, scaled to 1 there.  Back-substitution runs from the last pivot
    row up: every pivot row below the current one is already reduced, so
    clearing one of its pivot columns touches no other pivot column."""
    f = field
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                x = r[c]
                if x != f.one:
                    inv = f.inv(x)
                    r = {j: f.mul(inv, y) for j, y in r.items()}
                pivots[c] = r
                break
            _subtract(r, r[c], p, f)
    cols = sorted(pivots)
    for c in reversed(cols):
        r = pivots[c]
        for j in [j for j in r if j != c and j in pivots]:
            _subtract(r, r[j], pivots[j], f)
    return [pivots[c] for c in cols], cols


def rank(rows: Iterable, field) -> int:
    return len(rref(rows, field)[1])


def _columns(rows: list[dict]) -> dict:
    """The transpose: column -> {row index: coefficient}."""
    columns: dict = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns.setdefault(j, {})[i] = x
    return columns


def left_kernel(rows: list[dict], field) -> list[dict]:
    """Reduced basis of {v : v A = 0}, A the rows, v over the row indices.

    There is one basis vector per row index that is no pivot of the
    transposed reduced form, in increasing order: it has a 1 there, its
    largest index, and minus that column of the reduced form at the
    pivots."""
    f = field
    red, pivots = rref(_columns(rows).values(), f)
    basis = {i: {i: f.one} for i in range(len(rows))}
    for pc in pivots:
        del basis[pc]
    for r, pc in zip(red, pivots):
        for i, x in r.items():
            if i != pc:
                basis[i][pc] = f.neg(x)
    return list(basis.values())


def solve_left(a: list[dict], bs: list[list], field) -> Optional[list[list]]:
    """One solution v of v A = b for every dense row b of ``bs``, or None
    when any of them is inconsistent; each v is dense, of length len(a).

    A is row reduced once, transposed, with every b as one more column
    after A's rows; a pivot in the columns of A does not depend on the
    columns after it, so each solution is the one a reduction with b alone
    would give, and a pivot in a column of b makes that b inconsistent.
    """
    f = field
    nrows = len(a)
    columns = _columns(a)
    for k, b in enumerate(bs, nrows):
        for j, x in enumerate(b):
            if not f.is_zero(x):
                columns.setdefault(j, {})[k] = x
    red, pivots = rref(columns.values(), f)
    if pivots and pivots[-1] >= nrows:
        return None
    solutions = [[f.zero] * nrows for _ in bs]
    for r, pc in zip(red, pivots):
        for k, x in r.items():
            if k >= nrows:
                solutions[k - nrows][pc] = x
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
