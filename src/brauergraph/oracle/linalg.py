"""Exact linear algebra over a field object, on sparse rows.

A row, here and everywhere in the oracle, is stored as its nonzeros: a
dict column -> coefficient with no zero coefficient.  Every function here
takes and returns rows in that form only.  Linear maps between right
modules are stored in the row-vector convention: a map sends the row
vector v to v*A, so its kernel is the left kernel of A and its image is
the row space.

Every elimination of the oracle runs one forward step, ``_forward``: it
reduces each row by the pivot rows found so far until its least column is
no pivot, and makes it the pivot row of that column.  Its pivot columns
are those of the reduced row echelon form, since back-substitution changes
no pivot column.  So the readers that need only the pivot columns run the
forward step alone: ``rank`` (the socles of modules and the ranks of a
map's blocks), ``Module.top_positions`` (tops and the pivots of a
projective cover) and ``SparseReducer``, which asks whether a row enlarges
a span, for the Ext closure.  ``rref`` is the forward step followed by one
back-substitution, giving the reduced row echelon form, which is unique;
it serves the readers of the reduced rows: ``left_kernel`` and
``solve_left``, which read the rows of the reduced transpose, and the
algebra's normal forms, which read its pivot rows.
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


def _forward(pivots: dict, rows: Iterable, f) -> None:
    """Insert each row into ``pivots`` (pivot column -> pivot row): reduce it
    by the pivot rows until its least column is no pivot, and make it the
    pivot row of that column, scaled to 1 there; a row that reduces to zero
    is dropped, and an empty row is skipped uncopied.  No pivot row
    changes, and no row of ``rows``."""
    for row in rows:
        if not row:
            continue
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


def rref(rows: Iterable, field, pivots: Optional[dict] = None) -> tuple[list[dict], list]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns,
    in increasing pivot order.  ``pivots``, when given, holds rows already
    put through ``_forward``, and the forward step starts from them; the
    dict and its rows are rewritten in place.

    After the forward step, back-substitution runs from the last pivot row
    up: every pivot row below the current one is already reduced, so
    clearing one of its pivot columns touches no other pivot column."""
    f = field
    pivots = {} if pivots is None else pivots
    _forward(pivots, rows, f)
    cols = sorted(pivots)
    for c in reversed(cols):
        r = pivots[c]
        for j in [j for j in r if j != c and j in pivots]:
            _subtract(r, r[j], pivots[j], f)
    return [pivots[c] for c in cols], cols


def rank(rows: Iterable, field) -> int:
    """The number of pivot columns, read off the forward step."""
    pivots: dict = {}
    _forward(pivots, rows, field)
    return len(pivots)


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


def solve_left(a: list[dict], bs: list[dict], field) -> Optional[list[dict]]:
    """One solution v of v A = b for every row b of ``bs``, or None when any
    of them is inconsistent; each v is a row over the indices of A's rows.

    A is row reduced once, transposed, with every b as one more column
    after A's rows; a pivot in the columns of A does not depend on the
    columns after it, so each solution is the one a reduction with b alone
    would give, and a pivot in a column of b makes that b inconsistent.
    """
    f = field
    nrows = len(a)
    columns = _columns(a)
    for k, b in enumerate(bs, nrows):
        for j, x in b.items():
            columns.setdefault(j, {})[k] = x
    red, pivots = rref(columns.values(), f)
    if pivots and pivots[-1] >= nrows:
        return None
    solutions: list[dict] = [{} for _ in bs]
    for r, pc in zip(red, pivots):
        for k, x in r.items():
            if k >= nrows:
                solutions[k - nrows][pc] = x
    return solutions


class SparseReducer:
    """A growing span of sparse rows, keyed by any comparable columns.

    Both questions run the forward step on one row: ``add`` on the span's
    own pivot rows, and ``contains`` on a copy of them, so the span does not
    grow."""

    def __init__(self, field):
        self.field = field
        self._pivots: dict = {}

    def _insert(self, pivots: dict, row: dict) -> bool:
        """Does the row enlarge the span of ``pivots``?  It is inserted."""
        n = len(pivots)
        _forward(pivots, [row], self.field)
        return len(pivots) > n

    def add(self, row: dict) -> bool:
        """Insert the row; returns True when it enlarged the span."""
        return self._insert(self._pivots, row)

    def contains(self, row: dict) -> bool:
        return not self._insert(dict(self._pivots), row)
