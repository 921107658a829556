"""The sparse row reduction and the span membership built on its forward
step, against a dense Gauss-Jordan elimination written out here, over Q
(with fractional entries), F2 and F3."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brauergraph.oracle import linalg
from brauergraph.oracle.fields import QQ, PrimeField

FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3)}


def _entries(f):
    if f is QQ:
        fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        return st.one_of(st.just(Fraction(0)), fractions).map(QQ.from_fraction)
    return st.integers(0, f.p - 1)


@st.composite
def _system(draw, f):
    """A dense matrix with up to 5 rows and columns, and up to 3 right-hand
    sides of its width."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    row = st.lists(_entries(f), min_size=ncols, max_size=ncols)
    return ncols, draw(st.lists(row, min_size=nrows, max_size=nrows)), \
        draw(st.lists(row, max_size=3))


def _sparse(rows, f):
    return [{j: x for j, x in enumerate(row) if not f.is_zero(x)} for row in rows]


def _dense(row: dict, n: int, f) -> list:
    out = [f.zero] * n
    for j, x in row.items():
        out[j] = x
    return out


def _gauss_jordan(rows, ncols, f):
    """Reduced row echelon form, column by column: the nonzero rows and the
    pivot columns."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if not f.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not f.is_zero(m[i][c]):
                x = m[i][c]
                m[i] = [f.sub(y, f.mul(x, z)) for y, z in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def _reference_left_kernel(rows, ncols, f):
    """One vector per free column of the transposed reduced form: 1 there,
    minus that column at the pivots."""
    red, pivots = _gauss_jordan(_transpose(rows, ncols), len(rows), f)
    basis = []
    for fc in (c for c in range(len(rows)) if c not in pivots):
        v = [f.zero] * len(rows)
        v[fc] = f.one
        for r, pc in zip(red, pivots):
            v[pc] = f.neg(r[fc])
        basis.append(v)
    return basis


def _reference_solve(rows, ncols, b, f):
    """The solution of v A = b with every free coordinate zero, or None."""
    aug = [col + [x] for col, x in zip(_transpose(rows, ncols), b)]
    red, pivots = _gauss_jordan(aug, len(rows) + 1, f)
    if pivots and pivots[-1] == len(rows):
        return None
    v = [f.zero] * len(rows)
    for r, pc in zip(red, pivots):
        v[pc] = r[-1]
    return v


@pytest.mark.parametrize("name", list(FIELDS))
@given(data=st.data())
def test_sparse_reduction_matches_gauss_jordan(name, data):
    f = FIELDS[name]
    ncols, rows, bs = data.draw(_system(f))
    sparse = _sparse(rows, f)
    red, pivots = linalg.rref(sparse, f)
    want_red, want_pivots = _gauss_jordan(rows, ncols, f)
    assert pivots == want_pivots
    assert [_dense(r, ncols, f) for r in red] == want_red
    assert all(not f.is_zero(x) for r in red for x in r.values())
    assert linalg.rank(sparse, f) == len(want_pivots)
    kernel = linalg.left_kernel(sparse, f)
    assert [_dense(v, len(rows), f) for v in kernel] == _reference_left_kernel(rows, ncols, f)
    got = linalg.solve_left(sparse, _sparse(bs, f), f)
    want = [_reference_solve(rows, ncols, b, f) for b in bs]
    if any(v is None for v in want):
        assert got is None
        return
    assert all(not f.is_zero(x) for v in got for x in v.values())
    got = [_dense(v, len(rows), f) for v in got]
    assert got == want
    for v, b in zip(got, bs):
        product = [f.zero] * ncols
        for x, row in zip(v, rows):
            product = [f.add(p, f.mul(x, y)) for p, y in zip(product, row)]
        assert product == b


@pytest.mark.parametrize("name", list(FIELDS))
@given(data=st.data())
def test_reducer_membership_matches_gauss_jordan(name, data):
    """``add`` returns True exactly when the rank grows, and ``contains``
    exactly when it would not; every row is given as its nonzeros."""
    f = FIELDS[name]
    ncols, rows, probes = data.draw(_system(f))

    def rank(dense):
        return len(_gauss_jordan(dense, ncols, f)[1])

    reducer = linalg.SparseReducer(f)
    span: list = []
    for row in rows:
        grows = rank(span + [row]) > rank(span)
        (sparse,) = _sparse([row], f)
        assert reducer.contains(sparse) is not grows
        assert reducer.add(sparse) is grows
        span.append(row)
    for b, sparse in zip(probes, _sparse(probes, f)):
        assert reducer.contains(sparse) is (rank(span + [b]) == rank(span))


@pytest.mark.parametrize("name", list(FIELDS))
def test_sparse_reduction_edge_cases(name):
    """Empty input, all-zero rows and zero width."""
    f = FIELDS[name]
    one = f.one
    assert linalg.rref([], f) == ([], [])
    assert linalg.rank([], f) == 0
    assert linalg.left_kernel([], f) == []
    assert linalg.solve_left([], [], f) == []
    zero_rows = [{}, {}, {}]
    assert linalg.rref(zero_rows, f) == ([], [])
    assert linalg.rank(zero_rows, f) == 0
    # rows of width 0 are zero rows: every unit vector is in the left kernel
    assert linalg.left_kernel(zero_rows, f) == [{0: one}, {1: one}, {2: one}]
    assert linalg.solve_left(zero_rows, [{}, {}], f) == [{}, {}]
    assert linalg.solve_left(zero_rows, [{1: one}], f) is None
    # the caller's rows are read, never rewritten: they may be shared, as the
    # block rows of module maps are; these need scaling and subtraction
    two = f.add(one, one)
    rows = [{j: x for j, x in row.items() if not f.is_zero(x)}
            for row in ({0: two, 1: one}, {0: one, 1: one, 2: one}, {1: two, 2: one})]
    bs = [dict(rows[0]), {2: one}]
    before = [dict(row) for row in rows + bs]
    linalg.rref(rows, f)
    linalg.rref(rows[1:], f, {0: {0: one, 2: one}})
    linalg.rank(rows, f)
    linalg.left_kernel(rows, f)
    linalg.solve_left(rows, bs, f)
    assert rows + bs == before
