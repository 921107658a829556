"""The sparse row reduction and the span membership built on its forward
step, against a dense Gauss-Jordan elimination written out here, and the
sparse product of ``oracle/modules.py`` against a dense one, over Q (with
fractional entries), F2 and F3."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brauergraph.oracle import linalg
from brauergraph.oracle.fields import QQ, PrimeField
from brauergraph.oracle.modules import _times

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
    kernel = linalg.Elimination(sparse, f).kernel
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


def _right_hand_sides(f, rows, ncols):
    """Rows of width ``ncols``: combinations of ``rows``, always consistent,
    and arbitrary rows, mostly not."""
    def combination(coeffs):
        b = [f.zero] * ncols
        for c, row in zip(coeffs, rows):
            b = [f.add(x, f.mul(c, y)) for x, y in zip(b, row)]
        return b

    consistent = st.lists(_entries(f), min_size=len(rows),
                          max_size=len(rows)).map(combination)
    arbitrary = st.lists(_entries(f), min_size=ncols, max_size=ncols)
    return st.one_of(consistent, arbitrary)


@pytest.mark.parametrize("name", list(FIELDS))
@given(data=st.data())
def test_kept_elimination_answers_interleaved_batches(name, data):
    """One kept ``Elimination`` answers batch after batch of right-hand
    sides, some consistent and some not, with its kernel read between them:
    each batch gets the dense references' solutions, or None when one of
    its rows is inconsistent; the kernel is the reference kernel, each row
    1 at its free position, its largest index; and neither the caller's
    rows nor the right-hand sides are rewritten."""
    f = FIELDS[name]
    ncols, rows, _ = data.draw(_system(f))
    sparse = _sparse(rows, f)
    before = [dict(row) for row in sparse]
    elim = linalg.Elimination(sparse, f)
    want_kernel = _reference_left_kernel(rows, ncols, f)
    batches = data.draw(st.lists(st.lists(_right_hand_sides(f, rows, ncols), max_size=3),
                                 min_size=1, max_size=4))
    for batch in batches:
        assert [_dense(v, len(rows), f) for v in elim.kernel] == want_kernel
        assert all(max(v) == i and v[i] == f.one for i, v in zip(elim.free, elim.kernel))
        bs = _sparse(batch, f)
        bs_before = [dict(b) for b in bs]
        got = elim.solve(bs)
        assert bs == bs_before
        want = [_reference_solve(rows, ncols, b, f) for b in batch]
        if any(v is None for v in want):
            assert got is None
            continue
        assert all(not f.is_zero(x) for v in got for x in v.values())
        assert [_dense(v, len(rows), f) for v in got] == want
    assert [_dense(v, len(rows), f) for v in elim.kernel] == want_kernel
    assert sparse == before


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
    assert linalg.Elimination([], f).kernel == []
    assert linalg.solve_left([], [], f) == []
    zero_rows = [{}, {}, {}]
    assert linalg.rref(zero_rows, f) == ([], [])
    assert linalg.rank(zero_rows, f) == 0
    # rows of width 0 are zero rows: every unit vector is in the left kernel
    assert linalg.Elimination(zero_rows, f).kernel == [{0: one}, {1: one}, {2: one}]
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
    linalg.Elimination(rows, f)
    linalg.solve_left(rows, bs, f)
    assert rows + bs == before


def _nonzero(f):
    if f is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
            bool).map(QQ.from_fraction)
    return st.integers(1, f.p - 1)


def _sparse_rows(f, max_rows=6):
    """Sparse rows over at most 6 columns: with so few columns, rows repeat
    and cancel often, in F2 as 1 + 1 = 0."""
    row = st.dictionaries(st.integers(0, 5), _nonzero(f), max_size=4)
    return st.lists(row, max_size=max_rows)


@pytest.mark.parametrize("name", list(FIELDS))
@given(data=st.data())
def test_forward_step_reads_the_pivot_columns_of_rref(name, data):
    """The pivot columns of the forward step alone are those of the reduced
    form, and ``rank`` is its number of rows; the rows given are not
    rewritten, and an empty row is skipped."""
    f = FIELDS[name]
    rows = data.draw(_sparse_rows(f))
    before = [dict(row) for row in rows]
    pivots: dict = {}
    linalg._forward(pivots, rows, f)
    red, cols = linalg.rref(rows, f)
    assert sorted(pivots) == cols
    assert linalg.rank(rows, f) == len(red)
    assert all(not f.is_zero(x) for p in pivots.values() for x in p.values())
    assert all(p[c] == f.one for c, p in pivots.items())
    assert rows == before


def _dense_times(vec: dict, rows: list, ncols: int, f) -> dict:
    """``vec`` times ``rows`` column by column, summed densely, zeros
    dropped at the end."""
    out = [f.zero] * ncols
    for i, x in vec.items():
        for j in range(ncols):
            out[j] = f.add(out[j], f.mul(x, rows[i].get(j, f.zero)))
    return {j: x for j, x in enumerate(out) if not f.is_zero(x)}


@pytest.mark.parametrize("name", list(FIELDS))
@given(data=st.data())
def test_times_matches_a_dense_product(name, data):
    """The sparse product of ``modules._times`` equals the dense one and
    holds no zero coefficient, also where summed entries cancel."""
    f = FIELDS[name]
    rows = data.draw(_sparse_rows(f, max_rows=5).filter(bool))
    vec = data.draw(st.dictionaries(st.integers(0, len(rows) - 1), _nonzero(f)))
    got = _times(vec, rows, f)
    assert got == _dense_times(vec, rows, 6, f)
    assert all(not f.is_zero(x) for x in got.values())


@pytest.mark.parametrize("name", list(FIELDS))
def test_times_drops_cancelled_entries(name):
    """Summed entries that cancel are dropped: in F2, 1 + 1 = 0; an entry
    that cancels and is summed again comes back."""
    f = FIELDS[name]
    one, minus = f.one, f.neg(f.one)
    rows = [{0: one, 1: one}, {0: minus, 2: one}, {0: one}]
    assert _times({0: one, 1: one}, rows, f) == {1: one, 2: one}
    assert _times({0: one, 1: one, 2: one}, rows, f) == {0: one, 1: one, 2: one}
    two = f.add(one, one)
    want = {} if f.is_zero(two) else {0: two}
    assert _times({0: one, 1: one}, [{0: one}, {0: one}], f) == want
