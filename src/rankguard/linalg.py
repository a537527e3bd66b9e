"""Matrix algebra over F_q and F_{q^m}.

One Matrix class serves both field levels: anything exposing the small
field protocol of gf.PrimeField / gf.FieldCtx (zero, one, add, sub, neg,
mul, inv) can be the entry domain.  Rows are tuples of ints, matrices are
immutable, and RREF is the canonical form.  Subspaces of F_{q^m}^n are
codes.LinearCode values, compared by their RREF bases.

Vectors are plain tuples and are always treated as row vectors.
"""

from __future__ import annotations

from operator import xor
from typing import Iterable, Sequence

from .bitrank import rank_bits
from .errors import DimensionMismatch, PreconditionError, json_field, json_ints
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
        one, zero = field.one, field.zero
        return Matrix(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

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

    def scale(self, c: int) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.rows], self.ncols)

    # -- canonical form -------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Unique reduced row-echelon form: (matrix, rank, pivot columns)."""
        if self._rref_cache is not None:
            return self._rref_cache
        f = self.field
        rows = [list(r) for r in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c] != f.zero), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = f.inv(rows[r][c])
            if inv != f.one:
                rows[r] = [f.mul(inv, a) for a in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != f.zero:
                    factor = rows[i][c]
                    rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        result = (Matrix(f, rows, self.ncols), r, tuple(pivots))
        self._rref_cache = result
        return result

    def rank(self) -> int:
        if isinstance(self.field, PrimeField) and self.field.q == 2:
            return rank_bits(pack_row_bits(r) for r in self.rows)
        return self.rref()[1]

    def row_basis(self) -> "Matrix":
        """RREF with zero rows dropped: the canonical basis of the row space."""
        red, rank, _ = self.rref()
        return Matrix(self.field, red.rows[:rank], self.ncols)

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
        else:
            rows = [json_ints(row, "matrix row", field.q) for row in entries]
        return Matrix(field, rows, json_field(data, "cols", int))


def pack_row_bits(row: Sequence[int]) -> int:
    acc = 0
    for i, v in enumerate(row):
        if v:
            acc |= 1 << i
    return acc


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
    if not all(0 <= c < ctx.q for row in A.rows for c in row):
        raise PreconditionError(f"A must have base-field entries in 0..{ctx.q - 1}")
    out = []
    for row in A.rows:
        acc = ctx.zero
        for c, xv in zip(row, x):
            if c and xv:
                acc = ctx.add(acc, ctx.scalar_mul(c, xv))
        out.append(acc)
    return tuple(out)


def rank_of_rows(field, rows: Iterable[Sequence[int]]) -> int:
    """Rank over any field of the small protocol, by elimination on plain lists
    with no Matrix: each nonzero row in turn clears its leading column from the rest."""
    mul = field.mul
    sub = xor if field.q == 2 else field.sub  # in characteristic 2, a - b = a ^ b
    rows, rank = [r for r in rows if any(r)], 0
    while rows:
        pivot = rows.pop()
        c = 0
        while not pivot[c]:
            c += 1
        scale = field.inv(pivot[c])
        rank += 1
        left = []
        for r in rows:
            if r[c]:
                f = mul(r[c], scale)
                r = [sub(a, mul(f, b)) for a, b in zip(r, pivot)]
            if any(r):
                left.append(r)
        rows = left
    return rank


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

