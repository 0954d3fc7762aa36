from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extbound.exactla import (
    DimensionMismatchError, Echelon, FieldMismatchError, FieldSpec, Matrix,
    column_space_basis, express_in_columns, hstack, inverse, kernel_basis,
    rank, rref, solve,
)
from extbound.modules import _unit_completion

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F101 = FieldSpec.prime(101)
Q = FieldSpec.rationals()


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec.prime(2**31 + 11)
    assert FieldSpec.prime(2147483647).p == 2147483647  # largest 31-bit prime


def test_field_coerce_and_fmt():
    assert F5.coerce("-1") == 4
    assert F5.coerce(7) == 2
    assert Q.coerce("2/3") == Fraction(2, 3)
    assert Q.fmt(Fraction(-1, 2)) == "-1/2"
    assert F101.coerce("1/2") == F101.mul(1, F101.inv(2))


def test_field_coerce_accepts_only_exact_values():
    for fld in (F5, Q):
        for bad in (1.5, 0.1, 2.0, True, None):
            with pytest.raises(TypeError):
                fld.coerce(bad)
        with pytest.raises(TypeError):
            Matrix.from_rows(fld, [[1, 0.1]])
        with pytest.raises(TypeError):
            Matrix.identity(fld, 2).scale(0.5)
    assert Matrix.from_rows(Q, [["0.1", 3, Fraction(1, 3)]]).entries == \
        (Fraction(1, 10), Fraction(3), Fraction(1, 3))
    assert all(type(x) is Fraction for x in Matrix.from_rows(Q, [[1, "2"]]).entries)
    assert Matrix.from_rows(F5, [["0.5", -1, Fraction(3, 2), Fraction(10, 1)]]).entries == \
        (3, 4, 4, 0)
    assert all(type(x) is int for x in Matrix.from_rows(F5, [[Fraction(6), "7"]]).entries)


def test_rref_identity_f5():
    m = Matrix.identity(F5, 2)
    red, pivots, rk = rref(m)
    assert red == m and rk == 2 and pivots == (0, 1)


def test_rref_char2_cancellation():
    m = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    red, _, rk = rref(m)
    assert red.to_rows() == [[1, 1], [0, 0]] and rk == 1


def test_rref_proportional_rows_rationals():
    m = Matrix.from_rows(Q, [[2, 4], [1, 2]])
    red, _, rk = rref(m)
    assert red.to_rows() == [[1, 2], [0, 0]] and rk == 1


def test_kernel_single_equation_f3():
    m = Matrix.from_rows(F3, [[1, 1]])
    assert kernel_basis(m) == [(2, 1)]  # free-variable-unit convention


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(F5, 3)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(Matrix.zeros(F5, 2, 3))
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_solve_identity():
    m = Matrix.identity(F5, 3)
    assert solve(m, (1, 2, 3)) == (1, 2, 3)


def test_solve_free_variable_zero():
    m = Matrix.from_rows(F2, [[1, 1]])
    assert solve(m, (1,)) == (1, 0)


def test_solve_inconsistent():
    m = Matrix.from_rows(F5, [[0]])
    assert solve(m, (1,)) is None


def test_mixed_field_error():
    a = Matrix.identity(F5, 2)
    b = Matrix.identity(F3, 2)
    with pytest.raises(FieldMismatchError):
        a @ b


def test_zero_dimension_matrices():
    a = Matrix.zeros(F5, 0, 3)
    b = Matrix.zeros(F5, 3, 2)
    assert (a @ b).rows == 0 and (a @ b).cols == 2
    assert rank(a) == 0
    assert kernel_basis(Matrix.zeros(F5, 0, 2)) == [(1, 0), (0, 1)]


def test_express_and_inverse():
    b = Matrix.from_rows(F5, [[1, 0], [1, 1], [0, 2]])
    target = Matrix.from_rows(F5, [[2, 0], [3, 1], [2, 2]])
    x = express_in_columns(b, target)
    assert (b @ x).entries == target.entries
    sq = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    assert (sq @ inverse(sq)).entries == Matrix.identity(F5, 2).entries
    assert inverse(Matrix.from_rows(F5, [[1, 2], [2, 4]])) is None


def test_column_space_basis_spans():
    m = Matrix.from_rows(F3, [[1, 2, 0], [2, 1, 0], [0, 0, 0]])
    b = column_space_basis(m)
    assert b.cols == rank(m)
    assert express_in_columns(b, m) is not None


FIELDS = [F2, F5, F101, Q]


def matrices(max_dim=4, square=False):
    def build(draw):
        fld = draw(st.sampled_from(FIELDS))
        rows = draw(st.integers(0, max_dim))
        cols = rows if square else draw(st.integers(0, max_dim))
        data = draw(st.lists(st.integers(-6, 6), min_size=rows * cols,
                             max_size=rows * cols))
        return Matrix(fld, rows, cols, tuple(fld.coerce(x) for x in data))
    return st.composite(build)()


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rref_idempotent(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m):
        assert all(x == 0 for x in m.apply(vec))


@settings(deadline=None, max_examples=60)
@given(matrices(), st.lists(st.integers(-6, 6), min_size=0, max_size=4))
def test_solve_consistency(m, raw):
    b = tuple(m.field.coerce(x) for x in (raw + [0] * m.rows)[:m.rows])
    x = solve(m, b)
    if x is not None:
        assert m.apply(x) == b
    else:
        aug = hstack([m, Matrix(m.field, m.rows, 1, b)])
        assert rank(aug) > rank(m)


@settings(deadline=None, max_examples=80)
@given(matrices(square=True))
def test_inverse_exactly_when_full_rank(m):
    inv = inverse(m)
    if rank(m) < m.rows:
        assert inv is None
    else:
        assert (inv @ m).entries == Matrix.identity(m.field, m.rows).entries
        assert (m @ inv).entries == Matrix.identity(m.field, m.rows).entries


def reference_rref(m):
    """Textbook Gauss-Jordan: pivot on the first row with a nonzero entry in
    each column, using only the FieldSpec operations."""
    fld = m.field
    work = m.to_rows()
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = fld.inv(work[r][c])
        if inv != fld.one:
            work[r] = [fld.mul(inv, x) for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    flat = tuple(x for row in work for x in row)
    return Matrix(fld, m.rows, m.cols, flat), tuple(pivots)


@settings(deadline=None, max_examples=200)
@given(matrices(max_dim=6))
def test_rref_matches_reference(m):
    red, pivots, rk = rref(m)
    ref, ref_pivots = reference_rref(m)
    assert red == ref and pivots == ref_pivots and rk == len(ref_pivots)
    assert [type(x) for x in red.entries] == [type(x) for x in ref.entries]


@settings(deadline=None, max_examples=100)
@given(matrices(max_dim=6))
def test_rank_counts_the_pivots_of_rref(m):
    assert rank(m) == rref(m).rank == len(reference_rref(m)[1])


@settings(deadline=None, max_examples=100)
@given(matrices(max_dim=5), st.lists(st.integers(-6, 6), min_size=5, max_size=5))
def test_echelon_add_and_reduce(m, raw):
    ech = Echelon(m.field)
    vecs = [m.row_list(i) for i in range(m.rows)]
    for vec in vecs:
        inside = ech.contains(vec)
        assert (ech.add(vec) is None) == inside
        assert ech.contains(vec)
    assert ech.pivots == sorted(ech.pivots) and len(ech.pivots) == rank(m)
    for vec in vecs + [[m.field.coerce(x) for x in raw[:m.cols]]]:
        once = ech.reduce(vec)
        assert ech.reduce(once) == once
        assert all(once[pc] == 0 for pc in ech.pivots)


def greedy_unit_completion(basis, limit=None):
    """Units e_j, in coordinate order, that raise the rank of the columns so far."""
    fld, d = basis.field, basis.rows
    chosen, cur = [], basis
    for j in range(d):
        if len(chosen) == limit:
            break
        unit = [fld.one if i == j else fld.zero for i in range(d)]
        cand = hstack([cur, Matrix.from_columns(fld, [unit], nrows=d)])
        if rank(cand) > cur.cols:
            chosen.append(j)
            cur = cand
    return chosen


@settings(deadline=None, max_examples=100)
@given(matrices(max_dim=5), st.integers(0, 5))
def test_unit_completion_matches_greedy_rank(m, limit):
    basis = column_space_basis(m)
    assert _unit_completion(basis) == greedy_unit_completion(basis)
    assert _unit_completion(basis, limit) == greedy_unit_completion(basis, limit)


# ----- arithmetic kernels against the plain per-entry loops ------------------

F_BIG = FieldSpec.prime(2147483647)
KERNEL_FIELDS = [F2, F101, F_BIG, Q]


def ref_matmul(a, b):
    fld, n, k, m = a.field, a.rows, a.cols, b.cols
    out = []
    for i in range(n):
        for j in range(m):
            acc = fld.zero
            for t in range(k):
                acc = fld.add(acc, fld.mul(a.entry(i, t), b.entry(t, j)))
            out.append(acc)
    return out


def ref_apply(a, vec):
    fld = a.field
    out = []
    for i in range(a.rows):
        acc = fld.zero
        for t in range(a.cols):
            acc = fld.add(acc, fld.mul(a.entry(i, t), vec[t]))
        out.append(acc)
    return out


def assert_canonical(fld, values):
    for x in values:
        if fld.kind == "prime":
            assert type(x) is int and 0 <= x < fld.p, x
        else:
            assert type(x) is Fraction, x


def entry_values(fld, raw):
    """Integers for GF(p), possibly outside 0..p-1 when raw; Fractions (or
    plain ints when raw) over the rationals."""
    if fld.kind == "prime":
        return st.integers(-2 * fld.p, 2 * fld.p) if raw else st.integers(0, fld.p - 1)
    if raw:
        return st.integers(-30, 30)
    return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))


def kernel_matrix(draw, fld, rows, cols, raw):
    """A sparse (at most two nonzero entries) or dense matrix built with the
    plain constructor, so raw entries stay as they were drawn."""
    size = rows * cols
    values = entry_values(fld, raw)
    if draw(st.booleans()):
        entries = [0 if raw else fld.zero] * size
        for pos in draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=2 if size else 0)):
            entries[pos] = draw(values)
    else:
        entries = draw(st.lists(values, min_size=size, max_size=size))
    return Matrix(fld, rows, cols, tuple(entries))


@st.composite
def kernel_operands(draw):
    fld = draw(st.sampled_from(KERNEL_FIELDS))
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    a = kernel_matrix(draw, fld, n, k, draw(st.booleans()))
    b = kernel_matrix(draw, fld, k, m, draw(st.booleans()))
    c = kernel_matrix(draw, fld, n, k, draw(st.booleans()))
    vec = draw(st.lists(entry_values(fld, draw(st.booleans())), min_size=k, max_size=k))
    scalar = draw(st.integers(-3 * 2**31, 3 * 2**31) if fld.kind == "prime"
                  else entry_values(fld, draw(st.booleans())))
    return a, b, c, vec, scalar


@settings(deadline=None, max_examples=300, derandomize=True)
@given(kernel_operands())
def test_kernels_match_reference_loops(ops):
    a, b, c, vec, scalar = ops
    fld = a.field
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert list(prod.entries) == ref_matmul(a, b)
    assert list(a.apply(vec)) == ref_apply(a, vec)
    assert list((a + c).entries) == [fld.add(x, y) for x, y in zip(a.entries, c.entries)]
    assert list((a - c).entries) == [fld.sub(x, y) for x, y in zip(a.entries, c.entries)]
    assert list((-a).entries) == [fld.neg(x) for x in a.entries]
    assert list(a.scale(scalar).entries) == [fld.mul(fld.coerce(scalar), x) for x in a.entries]
    for result in (prod, a + c, a - c, -a, a.scale(scalar)):
        assert result.field is fld and len(result.entries) == result.rows * result.cols
        assert_canonical(fld, result.entries)
    assert_canonical(fld, a.apply(vec))


@pytest.mark.parametrize("shapes", [((0, 3), (3, 2)), ((2, 0), (0, 3)), ((2, 3), (3, 0)),
                                    ((0, 0), (0, 0))])
def test_empty_products_check_field_and_shape_first(shapes):
    (n, k), (k2, m) = shapes
    a = Matrix.zeros(F5, n, k)
    with pytest.raises(FieldMismatchError):
        a @ Matrix.zeros(F3, k2, m)
    with pytest.raises(DimensionMismatchError):
        a @ Matrix.zeros(F5, k2 + 1, m)
    with pytest.raises(FieldMismatchError):
        a + Matrix.zeros(F3, n, k)
    with pytest.raises(DimensionMismatchError):
        a + Matrix.zeros(F5, n, k + 1)
    with pytest.raises(DimensionMismatchError):
        a - Matrix.zeros(F5, n + 1, k)
    prod = a @ Matrix.zeros(F5, k2, m)
    assert (prod.rows, prod.cols, prod.entries) == (n, m, (0,) * (n * m))


@pytest.mark.parametrize("c", [-1, -7, 5, 12, -(10**20) - 3, 10**20 + 3])
def test_scale_by_unreduced_int_is_canonical(c):
    m = Matrix.from_rows(F5, [[1, 2, 0], [3, 4, 1]])
    scaled = m.scale(c)
    assert scaled.entries == tuple(c * x % 5 for x in m.entries)
    assert_canonical(F5, scaled.entries)
    assert_canonical(Q, Matrix(Q, 1, 2, (1, 2)).scale(c).entries)
