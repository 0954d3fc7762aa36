"""Exact dense linear algebra over prime fields GF(p) and the rationals.

Entries are plain Python integers (canonical representatives 0..p-1) for a
prime field, and `fractions.Fraction` values for the rationals.  Everything
is exact; nothing in this package ever rounds.  All routines are pure
functions of their inputs and produce canonical (hence bit-stable) output:
the reduced row echelon form of a matrix is unique, whatever order the rows
are eliminated in, and kernel and solution bases follow the free-variable
unit/zero convention.

The arithmetic kernels of `Matrix` (`@`, `apply`, `+`, `-`, negation and
`scale`) share one contract:

* zero-skipping: a product adds a[i,t] * (row t of b) into the output row
  only for the nonzero a[i,t], and `apply` skips zero matrix entries;
* one reduction per entry: over GF(p) the sums are taken in Python integers
  and each output entry is reduced mod p once; over the rationals nothing
  is reduced;
* canonical entry types: every result entry is an `int` in 0..p-1 over
  GF(p) and a `Fraction` over the rationals, even when an operand was built
  from raw (unreduced or integer) entries.

The field is looked up once per call, not once per entry.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]


class FieldMismatchError(ValueError):
    """Operands belong to different coefficient fields."""


class DimensionMismatchError(ValueError):
    """Matrix or vector shapes are incompatible."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; this witness set is exact for all n < 3.3e24
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for a prime 2 <= p < 2**31, or the rationals."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "prime":
            if not isinstance(self.p, int) or not (2 <= self.p < 2**31):
                raise ValueError(f"prime field characteristic out of range: {self.p!r}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.kind == "rationals":
            if self.p is not None:
                raise ValueError("rationals take no characteristic")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    @property
    def zero(self) -> Scalar:
        return 0 if self.kind == "prime" else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.kind == "prime" else Fraction(1)

    def coerce(self, value: int | str | Fraction) -> Scalar:
        """Normalize an int, Fraction or decimal/fraction string to an element.

        Anything else raises TypeError: a float is inexact and a bool is not a
        number here (the file loaders reject both the same way)."""
        cls = value.__class__
        if cls is int:
            return value % self.p if self.p is not None else Fraction(value)
        if cls is str:
            value = Fraction(value)
        elif not isinstance(value, Fraction):
            raise TypeError(f"field elements are int, str or Fraction, not {cls.__name__}")
        if self.p is None:
            return value
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.kind == "prime" else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.kind == "prime" else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.kind == "prime" else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, -1, self.p) if self.kind == "prime" else 1 / a

    def fmt(self, a: Scalar) -> str:
        """Canonical string form, inverse of coerce on strings."""
        return str(a)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; entries in row-major order over a FieldSpec.

    Zero-row and zero-column matrices are legal and behave as expected under
    multiplication and stacking.
    """

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple = dc_field(default=())

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def _trusted(cls, field: FieldSpec, rows: int, cols: int, entries: tuple) -> "Matrix":
        # skip the shape check for kernel results whose shape is right by construction
        obj = object.__new__(cls)
        d = obj.__dict__
        d["field"], d["rows"], d["cols"], d["entries"] = field, rows, cols, entries
        return obj

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (field.zero,) * (rows * cols))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Iterable]) -> "Matrix":
        data = [[field.coerce(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise DimensionMismatchError("ragged rows")
        return cls(field, len(data), ncols, tuple(x for row in data for x in row))

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        if not cols:
            if nrows is None:
                raise DimensionMismatchError("from_columns needs nrows when empty")
            return cls.zeros(field, nrows, 0)
        n = len(cols[0])
        if nrows is not None and nrows != n:
            raise DimensionMismatchError(f"columns of length {n}, expected {nrows}")
        if n == 0:
            return cls.zeros(field, 0, len(cols))
        return cls.from_rows(field, [[col[i] for col in cols] for i in range(n)])

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list]:
        return [self.row_list(i) for i in range(self.rows)]

    def _check_field(self, other: "Matrix") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(f"fields differ: {self.field} vs {other.field}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        fld = self.field
        n, k, m = self.rows, self.cols, other.cols
        if not (n and m):
            return Matrix._trusted(fld, n, m, ())
        if not k:
            return Matrix.zeros(fld, n, m)
        p = fld.p
        a, b = self.entries, other.entries
        zero_row = [fld.zero] * m
        out = []
        for base in range(0, n * k, k):
            # row i of the product: sum of a[i,t] * (row t of b) over nonzero a[i,t]
            acc = zero_row
            for t, x in enumerate(a[base:base + k]):
                if x:
                    acc = [u + x * y for u, y in zip(acc, b[t * m:t * m + m])]
            if p is None or acc is zero_row:
                out += acc
            else:
                out += [u % p for u in acc]
        return Matrix._trusted(fld, n, m, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in addition")
        p = self.field.p
        if p is None:
            out = _fractions([x + y for x, y in zip(self.entries, other.entries)])
        else:
            out = tuple([(x + y) % p for x, y in zip(self.entries, other.entries)])
        return Matrix._trusted(self.field, self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        p = self.field.p
        if p is None:
            out = _fractions([-x for x in self.entries])
        else:
            out = tuple([-x % p for x in self.entries])
        return Matrix._trusted(self.field, self.rows, self.cols, out)

    def scale(self, c: Scalar) -> "Matrix":
        fld = self.field
        c, p = fld.coerce(c), fld.p
        if p is None:
            out = tuple([c * x for x in self.entries])
        else:
            out = tuple([c * x % p for x in self.entries])
        return Matrix._trusted(fld, self.rows, self.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(self.entries[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def apply(self, vec: Sequence[Scalar]) -> tuple:
        """Matrix-vector product."""
        k = self.cols
        if len(vec) != k:
            raise DimensionMismatchError("vector length mismatch")
        a, p, zero = self.entries, self.field.p, self.field.zero
        sums = [sum([x * v for x, v in zip(a[i * k:i * k + k], vec) if x], zero)
                for i in range(self.rows)]
        return tuple(sums) if p is None else tuple([s % p for s in sums])


def _fractions(values: list) -> tuple:
    # entries over the rationals are Fractions even when an operand held ints
    return tuple([x if x.__class__ is Fraction else Fraction(x) for x in values])


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionMismatchError("hstack of nothing")
    rows = mats[0].rows
    fld = mats[0].field
    for m in mats:
        if m.rows != rows:
            raise DimensionMismatchError("hstack row mismatch")
        if m.field != fld:
            raise FieldMismatchError("hstack field mismatch")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row_list(i))
    return Matrix(fld, rows, sum(m.cols for m in mats), tuple(out))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionMismatchError("vstack of nothing")
    cols = mats[0].cols
    fld = mats[0].field
    out = []
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatchError("vstack column mismatch")
        if m.field != fld:
            raise FieldMismatchError("vstack field mismatch")
        out.extend(m.entries)
    return Matrix(fld, sum(m.rows for m in mats), cols, tuple(out))


class Echelon:
    """Incremental reduced row echelon form of a growing row space.

    The rows are kept fully reduced (each pivot column is zero outside its
    own row) and in ascending pivot order, so after any sequence of adds they
    are the reduced row echelon form of the span, which is unique.  Rows are
    updated in place when later rows are added: a caller that keeps a row
    returned by add must copy it.
    """

    __slots__ = ("rows", "pivots", "_p")

    def __init__(self, field: FieldSpec):
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self._p = field.p  # None over the rationals

    def _subtract(self, target: list, c: Scalar, row: list, start: int) -> None:
        # target -= c * row in place; both are zero before start
        p = self._p
        if p is None:
            target[start:] = [x - c * y for x, y in zip(target[start:], row[start:])]
        else:
            target[start:] = [(x - c * y) % p for x, y in zip(target[start:], row[start:])]

    def reduce(self, vec: Sequence[Scalar]) -> list:
        """The unique vector of vec + span that is zero on every pivot column."""
        vec = list(vec)
        subtract = self._subtract
        for pc, row in zip(self.pivots, self.rows):
            c = vec[pc]
            if c:
                subtract(vec, c, row, pc)
        return vec

    def add(self, vec: Sequence[Scalar]) -> list | None:
        """Insert a vector; returns its new reduced row, or None if dependent."""
        row = self.reduce(vec)
        for pivot, lead in enumerate(row):
            if lead:
                break
        else:
            return None
        if lead != 1:
            p = self._p
            if p is None:
                inv = 1 / lead
                row[pivot:] = [x * inv for x in row[pivot:]]
            else:
                inv = pow(lead, -1, p)
                row[pivot:] = [x * inv % p for x in row[pivot:]]
        at = bisect(self.pivots, pivot)
        subtract = self._subtract
        for other in self.rows[:at]:  # later rows are zero on this pivot column
            c = other[pivot]
            if c:
                subtract(other, c, row, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, row)
        return row

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return not any(self.reduce(vec))

    def kernel_basis(self, width: int) -> list[tuple]:
        """Canonical basis of the vectors of length width that every row
        annihilates: each free column f contributes one vector, a unit at f
        and minus the entry at f of each row at that row's pivot column."""
        p = self._p
        zero, one = (0, 1) if p is not None else (Fraction(0), Fraction(1))
        pivot_set = set(self.pivots)
        pivot_rows = list(zip(self.pivots, self.rows))
        basis = []
        for f in range(width):
            if f in pivot_set:
                continue
            vec = [zero] * width
            vec[f] = one
            for pc, row in pivot_rows:
                c = row[f]
                if c:
                    vec[pc] = -c if p is None else -c % p
            basis.append(tuple(vec))
        return basis


class RrefResult(NamedTuple):
    matrix: Matrix
    pivots: tuple[int, ...]
    rank: int


def _row_echelon(m: Matrix) -> Echelon:
    """The Echelon of the rows of m, which stops adding once the rank is full."""
    cols = m.cols
    ech = Echelon(m.field)
    for i in range(m.rows):
        if len(ech.pivots) == cols:
            break
        ech.add(m.entries[i * cols:(i + 1) * cols])
    return ech


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with the pivot column list and the rank.

    The reduced form of a matrix is unique, so the result is a deterministic
    function of the input; rows beyond the rank are zero.
    """
    fld, cols = m.field, m.cols
    ech = _row_echelon(m)
    rk = len(ech.pivots)
    flat = [x for row in ech.rows for x in row]
    flat.extend([fld.zero] * ((m.rows - rk) * cols))
    return RrefResult(Matrix(fld, m.rows, cols, tuple(flat)), tuple(ech.pivots), rk)


def rank(m: Matrix) -> int:
    """The pivot count of the echelon form rref reads, without the padded
    reduced matrix."""
    return len(_row_echelon(m).pivots)


def kernel_basis(m: Matrix) -> list[tuple]:
    """Canonical basis of the right null space (Echelon.kernel_basis).

    Each free column contributes one basis vector with a unit in that free
    position; pivot coordinates are read off the reduced echelon form.
    """
    return _row_echelon(m).kernel_basis(m.cols)


def solve(m: Matrix, b: Sequence[Scalar]) -> tuple | None:
    """One particular solution of m x = b, or None when inconsistent.

    Free variables are set to zero, so the solution is canonical.
    """
    if len(b) != m.rows:
        raise DimensionMismatchError(f"rhs length {len(b)} != {m.rows} rows")
    bcol = Matrix(m.field, m.rows, 1, tuple(m.field.coerce(x) for x in b))
    x = express_in_columns(m, bcol)
    return None if x is None else x.column(0)


def column_space_basis(m: Matrix) -> Matrix:
    """Canonical basis of the column space, returned as the columns of a matrix."""
    red, _, rk = rref(m.transpose())
    cols = [red.row_list(i) for i in range(rk)]
    return Matrix.from_columns(m.field, cols, nrows=m.rows)


def express_in_columns(basis: Matrix, targets: Matrix) -> Matrix | None:
    """Solve basis @ X = targets columnwise; None when some column is outside the span."""
    if basis.rows != targets.rows:
        raise DimensionMismatchError("express_in_columns row mismatch")
    red, pivots, _ = rref(hstack([basis, targets]))
    if any(pc >= basis.cols for pc in pivots):
        return None
    fld = basis.field
    out = [[fld.zero] * targets.cols for _ in range(basis.cols)]
    for row_idx, pc in enumerate(pivots):
        for j in range(targets.cols):
            out[pc][j] = red.entry(row_idx, basis.cols + j)
    return Matrix.from_rows(fld, out) if out else Matrix.zeros(fld, 0, targets.cols)


def inverse(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular (then some unit
    vector lies outside the column span)."""
    if m.rows != m.cols:
        return None
    return express_in_columns(m, Matrix.identity(m.field, m.rows))
