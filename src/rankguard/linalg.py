"""Matrix algebra over F_q and F_{q^m}.

One Matrix class serves both field levels: anything exposing the small
field protocol of gf.PrimeField / gf.FieldCtx (zero, one, add, sub, neg,
mul, inv) can be the entry domain.  Rows are tuples of ints, matrices are
immutable, and RREF is the canonical form.  One incremental echelon,
extend_echelon, serves canonical forms (Matrix.rref), ranks (rank_of_rows)
and the profile spans of rank_metrics; an RREF matrix knows it is one, so
it is not eliminated again.  Subspaces of F_{q^m}^n are codes.LinearCode
values, compared by their RREF bases.

Vectors are plain tuples and are always treated as row vectors.  For
batched work an F_{q^m} vector is its base-q digit array instead (an
element's int is its digits, least significant first; field_digits and
field_values convert): RowImages maps many vectors through base-field rows
named by row id, one row at a time, and rank_mod_q ranks a stack of small
base-field matrices by one elimination over the stack.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import xor
from typing import Iterable, Sequence

import numpy as np

from .bitrank import pack_key, rank_bits
from .errors import DimensionMismatch, PreconditionError, json_agrees, json_field, json_ints
from .gf import FieldCtx, PrimeField


class Matrix:
    """Immutable row-major matrix over a field context."""

    def __init__(self, field, rows: Iterable[Sequence[int]], ncols: int | None = None):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows:
            ncols_seen = {len(r) for r in self.rows}
            if len(ncols_seen) != 1:
                raise DimensionMismatch("ragged rows")
            self.ncols = ncols_seen.pop()
            if ncols is not None and ncols != self.ncols:
                raise DimensionMismatch("ncols does not match rows")
        else:
            if ncols is None:
                raise DimensionMismatch("empty matrix needs an explicit ncols")
            self.ncols = ncols
        self.nrows = len(self.rows)
        self._rref_cache = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        return Matrix._canonical(field, rows, n, tuple(range(n)))

    @staticmethod
    def zeros(field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, [[field.zero] * ncols for _ in range(nrows)], ncols)

    # -- structure ----------------------------------------------------------

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.field, [()] * self.ncols, 0)
        return Matrix(self.field, list(zip(*self.rows)), self.nrows)

    def stack(self, other: "Matrix") -> "Matrix":
        if other.ncols != self.ncols:
            raise DimensionMismatch("stack needs equal ncols")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def augment(self, other: "Matrix") -> "Matrix":
        if other.nrows != self.nrows:
            raise DimensionMismatch("augment needs equal nrows")
        return Matrix(self.field, [a + b for a, b in zip(self.rows, other.rows)],
                      self.ncols + other.ncols)

    def submatrix(self, rows: Sequence[int] | None = None,
                  cols: Sequence[int] | None = None) -> "Matrix":
        rsel = list(range(self.nrows)) if rows is None else list(rows)
        csel = list(range(self.ncols)) if cols is None else list(cols)
        return Matrix(self.field, [[self.rows[i][j] for j in csel] for i in rsel], len(csel))

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("add needs equal shapes")
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matmul inner dimensions differ")
        f = self.field
        ot = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        out = []
        for row in self.rows:
            out_row = []
            for col in ot:
                acc = f.zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(f, out, other.ncols)

    # -- canonical form -------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Unique reduced row-echelon form: (matrix, rank, pivot columns).

        The rows pass through extend_echelon, each pivot row is cleared at
        the pivots after it (reduce_row), and the zero rows follow.  The
        result, like row_basis(), records that it is its own RREF by rank
        and pivots only (no reference to itself, so no cycle)."""
        if self._rref_cache is None:
            f = self.field
            echelon = reduce(lambda pivots, row: extend_echelon(f, pivots, row), self.rows, ())
            rows = [reduce_row(f, echelon[i + 1:], row) for i, (_, row) in enumerate(echelon)]
            rows += [(f.zero,) * self.ncols] * (self.nrows - len(rows))
            pivots = tuple(c for c, _ in echelon)
            self._rref_cache = (Matrix._canonical(f, rows, self.ncols, pivots), len(pivots), pivots)
        red, rank, pivots = self._rref_cache
        return self if red is None else red, rank, pivots

    @staticmethod
    def _canonical(field, rows, ncols: int, pivots: tuple[int, ...]) -> "Matrix":
        """Rows already in RREF with these pivot columns, recorded as such."""
        red = Matrix(field, rows, ncols)
        red._rref_cache = (None, len(pivots), pivots)
        return red

    def rank(self) -> int:
        if isinstance(self.field, PrimeField) and self.field.q == 2:
            return rank_bits(pack_key(r, 1) for r in self.rows)
        return self.rref()[1]

    def row_basis(self) -> "Matrix":
        """RREF with zero rows dropped: the canonical basis of the row space."""
        red, rank, pivots = self.rref()
        if rank == red.nrows:
            return red
        return Matrix._canonical(self.field, red.rows[:rank], self.ncols, pivots)

    def right_kernel(self) -> "Matrix":
        """Canonical basis (rows) of {y : M y^T = 0}."""
        f = self.field
        red, rank, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [f.zero] * self.ncols
            vec[fc] = f.one
            for r, pc in enumerate(pivots):
                vec[pc] = f.neg(red.rows[r][fc])
            basis.append(vec)
        return Matrix(f, basis, self.ncols).row_basis()

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and other.field == self.field
                and other.ncols == self.ncols and other.rows == self.rows)

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {self.rows})"

    def to_json(self) -> dict:
        if isinstance(self.field, FieldCtx):
            entries = [[list(self.field.coeffs(a)) for a in row] for row in self.rows]
        else:
            entries = [list(row) for row in self.rows]
        return {"rows": self.nrows, "cols": self.ncols, "entries": entries}

    @staticmethod
    def from_json(field, data: dict) -> "Matrix":
        entries = json_field(data, "entries", list)
        if not all(isinstance(row, list) for row in entries):
            raise PreconditionError("matrix entries must be a list of rows")
        if isinstance(field, FieldCtx):
            rows = [[field.from_coeffs(json_ints(e, "coefficient vector", field.q)) for e in row]
                    for row in entries]
            if any(len(e) != field.m for row in entries for e in row):
                raise PreconditionError(f"each coefficient vector must have m = {field.m} digits")
        else:
            rows = [json_ints(row, "matrix row", field.q) for row in entries]
        matrix = Matrix(field, rows, json_field(data, "cols", int))
        json_agrees(data, {"rows": matrix.nrows}, "matrix")
        return matrix


# -- vector helpers -----------------------------------------------------------

def vec_add(field, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    if len(x) != len(y):
        raise DimensionMismatch("vector lengths differ")
    return tuple(field.add(a, b) for a, b in zip(x, y))


def vec_sub(field, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    if len(x) != len(y):
        raise DimensionMismatch("vector lengths differ")
    return tuple(field.sub(a, b) for a, b in zip(x, y))


def vec_mat(field, x: Sequence[int], M: Matrix) -> tuple[int, ...]:
    """Row vector times matrix: x M."""
    if len(x) != M.nrows:
        raise DimensionMismatch("x M needs len(x) == M.nrows")
    out = [field.zero] * M.ncols
    for a, row in zip(x, M.rows):
        if a == field.zero:
            continue
        for j, b in enumerate(row):
            if b:
                out[j] = field.add(out[j], field.mul(a, b))
    return tuple(out)


def solve_right(M: Matrix, y: Sequence[int]):
    """Some x with x M = y, free variables set to 0; None if inconsistent."""
    f = M.field
    if len(y) != M.ncols:
        raise DimensionMismatch("target length must equal M.ncols")
    aug = M.transpose().augment(Matrix(f, [[v] for v in y], 1))
    red, rank, pivots = aug.rref()
    if M.nrows in pivots:
        return None
    x = [f.zero] * M.nrows
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][M.nrows]
    return tuple(x)


def ext_vec_times_base_transpose(ctx: FieldCtx, x: Sequence[int], A: Matrix) -> tuple[int, ...]:
    """x A^T where x is over F_{q^m} and A is over the base field F_q."""
    if A.ncols != len(x):
        raise DimensionMismatch("A ncols must equal len(x)")
    ints = (int, np.integer)  # what operator.index takes: a float, even 1.0, is refused
    if not all(isinstance(c, ints) and 0 <= c < ctx.q for row in A.rows for c in row):
        raise PreconditionError(f"A must have base-field entries in 0..{ctx.q - 1}")
    out = []
    for row in A.rows:
        acc = ctx.zero
        for c, xv in zip(row, x):
            if c and xv:
                acc = ctx.add(acc, ctx.scalar_mul(c, xv))
        out.append(acc)
    return tuple(out)


def reduce_row(field, pivots: tuple, row: Sequence[int]) -> Sequence[int]:
    """row cleared at each of pivots' leading columns in their order, which
    never refills a cleared column: all zero exactly when row lies in their span."""
    mul = field.mul
    sub = xor if field.q == 2 else field.sub  # in characteristic 2, a - b = a ^ b
    for c, pivot in pivots:
        f = row[c]
        if f:
            row = [sub(a, mul(f, b)) if b else a for a, b in zip(row, pivot)]
    return row


def extend_echelon(field, pivots: tuple, row: Sequence[int]) -> tuple:
    """Add row to pivots, (leading column, row with a one there) pairs sorted
    by column: reduce it, and insert what is left at its leading column,
    scaled to one.  A dependent row returns pivots itself."""
    row, mul = reduce_row(field, pivots, row), field.mul
    for c, a in enumerate(row):
        if a:  # no two pivots share a leading column, so sorting compares columns only
            scale = field.inv(a)
            return tuple(sorted((*pivots, (c, [mul(scale, b) for b in row]))))
    return pivots


def rank_of_rows(field, rows: Iterable[Sequence[int]]) -> int:
    """Rank over any field of the small protocol, on plain lists with no Matrix."""
    return len(reduce(lambda pivots, row: extend_echelon(field, pivots, row), rows, ()))


# -- base <-> extension bridges ------------------------------------------------

def expand_to_base(ctx: FieldCtx, x: Sequence[int]) -> Matrix:
    """m x n base-field matrix whose column j is the coefficient vector of x_j.

    Its rank over F_q is the rank weight of x.
    """
    cols = [ctx.coeffs(v) for v in x]
    rows = [[col[r] for col in cols] for r in range(ctx.m)]
    return Matrix(ctx.base, rows, len(x))


def embed_base_matrix(ctx: FieldCtx, M: Matrix) -> Matrix:
    """Lift a base-field matrix entrywise into the extension field."""
    return Matrix(ctx, [[ctx.embed(a) for a in row] for row in M.rows], M.ncols)


# -- base-field digit arrays ---------------------------------------------------

def field_digits(values, q: int, m: int) -> np.ndarray:
    """The m base-q digits of F_{q^m} elements, least significant first, on a
    new leading axis: shape (m,) + values.shape, the smallest unsigned dtype
    holding q - 1."""
    values = np.asarray(values, dtype=np.int64)
    digits = np.empty((m,) + values.shape, np.min_scalar_type(q - 1))
    for d in range(m):  # one digit at a time: no int64 temporary of the full shape
        digits[d] = values // q**d % q
    return digits


def field_values(digits: np.ndarray, q: int) -> np.ndarray:
    """The F_{q^m} elements whose base-q digits, least significant first, lie
    on the leading axis of digits: field_digits inverted, in the smallest
    unsigned dtype holding q^m - 1."""
    values = np.zeros(digits.shape[1:], np.min_scalar_type(q ** len(digits) - 1))
    for digit in digits[::-1]:  # Horner's rule, from the most significant digit
        values *= q
        values += digit
    return values


class RowImages:
    """Digits of x b^T for many vectors x over F_{q^m} and a base-field row b
    named by its row id (b's base-q digits, least significant first): from
    digits of shape m x n x count, each image has shape m x count.  The unit
    id q^j has digit column j as its image, and an image steps from a known
    one by linearity, T[b] = T[b'] + sum_j (b_j - b'_j) T[q^j] mod q (an XOR
    at q = 2), so ids that differ in one digit, as consecutive canonical rows
    mostly do, cost one operation on m x count digits.  Nothing is kept but
    the digits: callers hold the images they step from."""

    def __init__(self, digits: np.ndarray, q: int):
        self.digits, self.q = digits, q
        self.zero = np.zeros((digits.shape[0], digits.shape[2]), digits.dtype)
        self._acc = np.min_scalar_type(q * (q - 1))  # d times a unit digit, or a sum of two digits

    def step(self, image: np.ndarray, frm: int, to: int) -> np.ndarray:
        """The image of row id to, from image, the image of row id frm.  A sum
        s of two digits reduces as min(s, s - q): below q, s - q wraps past
        every digit in the unsigned dtype."""
        q, j = self.q, 0
        while frm != to:
            d = (to - frm) % q  # digit j of to minus digit j of frm, mod q
            unit = self.digits[:, j]
            if d and q == 2:
                image = image ^ unit
            elif d:
                unit = unit.astype(self._acc)
                if d > 1:
                    unit = unit * self._acc.type(d) % q
                total = image + unit
                image = np.minimum(total, total - self._acc.type(q)).astype(image.dtype)
            frm, to, j = frm // q, to // q, j + 1
        return image

    def of(self, ids: Sequence[int]) -> np.ndarray:
        """The images of ids, stacked (len(ids) x m x count), each stepped
        from the one before: ascending ids keep the steps short."""
        table = np.empty((len(ids),) + self.zero.shape, self.zero.dtype)
        image, frm = self.zero, 0
        for i, b in enumerate(ids):
            table[i] = image = self.step(image, frm, b)
            frm = b
        return table


@lru_cache(maxsize=16)
def _inverses(q: int) -> np.ndarray:
    """inverses[x] = x^-1 over F_q for x != 0, and inverses[0] = 0."""
    return np.array([pow(x, q - 2, q) if x else 0 for x in range(q)], np.min_scalar_type(q * q - 1))


def rank_mod_q(mats: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q (q prime) of a stack of matrices, shape (..., rows, cols)
    -> (...), by one Gauss elimination over the whole stack, a row of the
    shorter side at a time: its first nonzero entry is the pivot, cleared
    from every later row; the rank counts the pivots.  Empty shapes rank 0.
    The stack is held matrices-last, in the smallest unsigned dtype holding
    q^2 - 1: a later row r with f = r[pivot column] / pivot becomes
    r + (q - f) * pivot row, which is r - f * pivot row mod q, never negative."""
    if mats.shape[-2] > mats.shape[-1]:
        mats = np.swapaxes(mats, -1, -2)
    *batch, rows, cols = mats.shape
    count = math.prod(batch)
    a = np.moveaxis(mats.reshape(count, rows, cols), 0, -1).astype(np.min_scalar_type(q * q - 1))
    rank, every = np.zeros(count, dtype=np.intp), np.arange(count)
    for i in range(rows):
        row = a[i]  # (cols, count)
        p = (row != 0).argmax(axis=0)  # column 0 of a zero row, whose inverse 0 clears nothing
        pivot = row[p, every]
        rank += pivot != 0
        if i + 1 < rows:
            later = a[i + 1:]
            f = later[:, p, every] * _inverses(q)[pivot] % q
            later += (q - f)[:, None] * row
            later %= q
    return rank.reshape(batch)
