"""Exact linear algebra over a field object, on sparse rows.

A row, here and everywhere in the oracle, is stored as its nonzeros: a
dict column -> coefficient with no zero coefficient.  Every function here
takes and returns rows in that form only.  Linear maps between right
modules are stored in the row-vector convention: a map sends the row
vector v to v*A, so its kernel is the left kernel of A and its image is
the row space.

Every elimination of the oracle is a forward step, in one of two forms.
The untracked one, ``_forward``, reduces each row by the pivot rows found
so far until its least column is no pivot, and makes it the pivot row of
that column.  Its pivot columns are those of the reduced row echelon form,
since back-substitution changes no pivot column.  So the readers that need
only the pivot columns run it alone: ``rank`` (the socles of modules and
the ranks of a map's blocks), ``Module.top_positions`` (tops and the
pivots of a projective cover) and ``SparseReducer``, which asks whether a
row enlarges a span, for the Ext closure.  ``rref`` is this forward step
followed by one back-substitution, giving the reduced row echelon form,
which is unique; the algebra reads its normal forms off its pivot rows.

The tracked one, ``Elimination``, runs the same step over the rows of a
matrix in index order and keeps, with each pivot row, its combination of
the original rows.  It answers the left kernel and any number of left
solves against one matrix without transposing it: the rows that reduce to
zero give the reduced kernel basis, and a solve reduces its right-hand
side by the kept pivot rows.  ``solve_left`` is a one-shot reader of
it; the module maps of ``oracle/modules.py`` keep one per block, so the
kernel of a cover and every lift through a differential read the same
elimination.
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


class Elimination:
    """The tracked forward step over the rows of a matrix A, kept to answer
    its left kernel and any number of left solves.

    The rows are eliminated in index order, each with its combination of
    the original rows (a dict row index -> coefficient): a row is reduced by
    the pivot rows found so far until its least column is no pivot, and its
    combination by the same multiples of theirs.  A row that stays nonzero
    becomes the pivot row of that column, scaled to 1 there together with
    its combination, so a pivot row is always its combination times A.  The
    pivot rows come from the greedy independent rows, those that are no
    combination of the rows before them, and every combination is supported
    on those rows.

    A row i that reduces to zero is a combination of the independent rows
    before it: its combination is a kernel row, 1 at its free position i,
    its largest index, and supported on i and the independent rows.  These
    rows, one per dependent row in increasing order, are the reduced basis
    of {v : v A = 0} (``kernel``, with their free positions in ``free``).

    A solve of v A = b reduces b by the pivot rows and sums their
    combinations with the same multiples; b is in the row space exactly
    when it reduces to zero.  The solution is supported on the independent
    rows, so it is the unique one there, and linear in b.

    The rows given are read, never rewritten: a row is copied before it is
    first reduced, and one that becomes a pivot row as it is, needing no
    reduction and no scaling, is kept shared."""

    def __init__(self, rows: list[dict], field):
        f = field
        self.field = f
        # pivot column -> (pivot row, its combination of the rows of A)
        self._pivots: dict[object, tuple[dict, dict]] = {}
        self.kernel: list[dict] = []
        self.free: list[int] = []
        pivots = self._pivots
        for i, row in enumerate(rows):
            r, comb = row, {i: f.one}
            while r:
                c = min(r)
                p = pivots.get(c)
                if p is None:
                    x = r[c]
                    if x != f.one:
                        inv = f.inv(x)
                        r = {j: f.mul(inv, y) for j, y in r.items()}
                        comb = {j: f.mul(inv, y) for j, y in comb.items()}
                    pivots[c] = (r, comb)
                    break
                if r is row:  # copied before its first subtraction
                    r = dict(row)
                x = r[c]
                _subtract(r, x, p[0], f)
                _subtract(comb, x, p[1], f)
            else:
                self.free.append(i)
                self.kernel.append(comb)

    def solve(self, bs: Iterable) -> Optional[list[dict]]:
        """One solution v of v A = b for every row b of ``bs``, supported on
        the independent rows, or None when any b is not in the row space."""
        f = self.field
        pivots = self._pivots
        solutions = []
        for b in bs:
            r, v = dict(b), {}
            while r:
                c = min(r)
                p = pivots.get(c)
                if p is None:
                    return None
                x = r[c]
                _subtract(r, x, p[0], f)
                _subtract(v, f.neg(x), p[1], f)
            solutions.append(v)
        return solutions


def solve_left(a: list[dict], bs: list[dict], field) -> Optional[list[dict]]:
    """One solution v of v A = b for every row b of ``bs``, or None when any
    of them is inconsistent; each v is a row over the indices of A's rows,
    supported on its independent rows, read off one ``Elimination``."""
    return Elimination(a, field).solve(bs)


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
