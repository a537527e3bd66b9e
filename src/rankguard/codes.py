"""Linear codes over F_{q^m}: Gabidulin construction, dual, puncture, shorten.

A LinearCode stores its generator in canonical RREF, so codes compare and
hash by value.  The zero code (k = 0) is a valid value: shortening may
produce it and the second member of a nested pair is allowed to be {0}.
It is also the one subspace type: a wiretap or Frobenius-invariant subspace
V of F_{q^m}^n is a LinearCode, with sums, intersections and the dual
(the orthogonal complement) defined here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientMismatch,
    DegreeTooSmall,
    DependentPoints,
    DimensionMismatch,
    EmptyIndexSet,
    EnumerationTooLarge,
    NotASubcode,
    NotSystematizable,
    PreconditionError,
    json_field,
)
from .gf import FieldCtx, ctx_from_json
from .linalg import Matrix, expand_to_base, solve_right, vec_mat

#: Exhaustive codeword scans refuse above this many codewords.
DEFAULT_SCAN_CAP = 2**20


class LinearCode:
    """An [n, k] linear code over F_{q^m}, canonical generator, k >= 0."""

    def __init__(self, ctx: FieldCtx, gen: Matrix | Iterable[Sequence[int]], n: int | None = None):
        self.ctx = ctx
        if not isinstance(gen, Matrix):
            gen = Matrix(ctx, gen, n)
        if n is not None and gen.ncols != n:
            raise DimensionMismatch("generator width disagrees with n")
        self.n = gen.ncols
        self.gen = gen.row_basis()
        self.k = self.gen.nrows
        self._dual: LinearCode | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx: FieldCtx, n: int) -> "LinearCode":
        return LinearCode(ctx, Matrix(ctx, [], n))

    @staticmethod
    def full(ctx: FieldCtx, n: int) -> "LinearCode":
        return LinearCode(ctx, Matrix.identity(ctx, n))

    # -- basic structure -----------------------------------------------------

    def messages(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(self.ctx.elements(), repeat=self.k)

    def codeword_count(self) -> int:
        return self.ctx.order**self.k

    def codewords(self) -> Iterator[tuple[int, ...]]:
        if self.codeword_count() > DEFAULT_SCAN_CAP:
            raise EnumerationTooLarge(
                f"(q^m)^k = {self.codeword_count()} exceeds cap {DEFAULT_SCAN_CAP}")
        for u in self.messages():
            yield self.encode(u)

    def encode(self, u: Sequence[int]) -> tuple[int, ...]:
        if len(u) != self.k:
            raise DimensionMismatch("message length must be k")
        return vec_mat(self.ctx, u, self.gen)

    def contains_word(self, v: Sequence[int]) -> bool:
        if len(v) != self.n:
            raise DimensionMismatch("word length must be n")
        if self.k == 0:
            return all(x == 0 for x in v)
        return solve_right(self.gen, v) is not None

    def contains(self, other: "LinearCode") -> bool:
        self._check(other)
        return all(self.contains_word(row) for row in other.gen.rows)

    def _check(self, other: "LinearCode") -> None:
        if other.n != self.n or other.ctx != self.ctx:
            raise AmbientMismatch("codes live in different spaces")

    # -- derived codes ---------------------------------------------------------

    def dual(self) -> "LinearCode":
        """The dual code, computed once and kept, as a code never changes; it
        holds no link back, so no reference cycle keeps the pair alive."""
        if self._dual is None:
            self._dual = (LinearCode.full(self.ctx, self.n) if self.k == 0
                          else LinearCode(self.ctx, self.gen.right_kernel()))
        return self._dual

    def sum_with(self, other: "LinearCode") -> "LinearCode":
        self._check(other)
        return LinearCode(self.ctx, self.gen.stack(other.gen))

    def intersect(self, other: "LinearCode") -> "LinearCode":
        """Computed through duals: the dual of the sum of the duals."""
        self._check(other)
        return self.dual().sum_with(other.dual()).dual()

    def puncture(self, keep: Sequence[int]) -> "LinearCode":
        keep = sorted(set(keep))
        if not keep:
            raise EmptyIndexSet("puncturing onto the empty index set")
        if keep[0] < 0 or keep[-1] >= self.n:
            raise PreconditionError("puncture indices out of range")
        return LinearCode(self.ctx, self.gen.submatrix(cols=keep))

    def shorten(self, keep: Sequence[int]) -> "LinearCode":
        keep = sorted(set(keep))
        if any(j < 0 or j >= self.n for j in keep):
            raise PreconditionError("shorten indices out of range")
        drop = [j for j in range(self.n) if j not in keep]
        if self.k == 0 or not keep:
            return LinearCode.zero(self.ctx, len(keep))
        if not drop:
            return LinearCode(self.ctx, self.gen)
        # messages u with (u G) vanishing on the dropped coordinates
        constraint = self.gen.submatrix(cols=drop).transpose()
        kernel = constraint.right_kernel()
        rows = [vec_mat(self.ctx, u, self.gen) for u in kernel.rows]
        return LinearCode(self.ctx, Matrix(self.ctx, rows, self.n).submatrix(cols=keep))

    def systematic_form(self) -> tuple["LinearCode", Matrix]:
        """Generator as [I | P] plus the basis-change applied to self.gen.

        Columns are never permuted: if the first k columns are dependent the
        caller gets NotSystematizable and must permute explicitly.
        """
        lead = self.gen.submatrix(cols=range(self.k))
        if lead.rref()[1] < self.k:
            raise NotSystematizable("leading k columns of the generator are singular")
        red, _, _ = lead.augment(Matrix.identity(self.ctx, self.k)).rref()
        transform = red.submatrix(cols=range(self.k, 2 * self.k))
        return LinearCode(self.ctx, transform.matmul(self.gen)), transform

    def subfield_subcode(self) -> Matrix:
        """Basis (rows, over F_q) of the base-field words lying in the code."""
        base = self.ctx.base
        h = self.dual().gen
        if h.nrows == 0:
            return Matrix.identity(base, self.n)
        # each dual row gives m base-field equations in the n base unknowns
        rows = [r for hrow in h.rows for r in expand_to_base(self.ctx, hrow).rows]
        return Matrix(base, rows, self.n).right_kernel()

    # -- metrics -----------------------------------------------------------------

    def min_rank_distance(self, method: str = "auto") -> int:
        """Minimum rank weight of a nonzero codeword; zero code has none."""
        if self.k == 0:
            raise PreconditionError("the zero code has no minimum distance")
        if method == "auto":
            method = "scan" if self.codeword_count() <= DEFAULT_SCAN_CAP else "profile"
        if method == "scan":
            from .rank_metrics import rank_weight
            best = None
            for u in self.messages():
                if all(x == 0 for x in u):
                    continue
                w = rank_weight(self.ctx, self.encode(u))
                if best is None or w < best:
                    best = w
                    if best == 1:
                        break
            return best
        if method == "profile":
            from .rank_metrics import rgrw
            return rgrw(self, LinearCode.zero(self.ctx, self.n)).at(1)
        raise PreconditionError(f"unknown method {method!r}")

    # -- plumbing ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"version": 1, **self.ctx.params(), "n": self.n, "k": self.k,
                "generator": self.gen.to_json()}

    @staticmethod
    def from_json(data: dict, ctx: FieldCtx | None = None) -> "LinearCode":
        if ctx is None:
            ctx = ctx_from_json(data)
        return LinearCode(ctx, Matrix.from_json(ctx, json_field(data, "generator", dict)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearCode) and other.ctx == self.ctx
                and other.n == self.n and other.gen.rows == self.gen.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.gen.rows))

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}] over F_{self.ctx.q}^{self.ctx.m}"


def quotient_dim(c1: LinearCode, c2: LinearCode) -> int:
    """dim C1/C2 of a nested pair; C2 must be a proper subcode of C1."""
    if not c1.contains(c2) or c2.k >= c1.k:
        raise NotASubcode("need C2 a proper subcode of C1")
    return c1.k - c2.k


def gabidulin(ctx: FieldCtx, n: int, k: int, points: Sequence[int] | None = None) -> LinearCode:
    """The [n, k] Gabidulin code: generator rows are Frobenius iterates of
    base-field-independent evaluation points.  MRD whenever m >= n."""
    if ctx.m < n:
        raise DegreeTooSmall(f"Gabidulin needs m >= n (m={ctx.m}, n={n})")
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= n, got k={k}")
    if points is None:
        points = [ctx.pow(ctx.alpha, j) for j in range(n)]
    points = tuple(points)
    if len(points) != n:
        raise DimensionMismatch("need n evaluation points")
    if expand_to_base(ctx, points).rank() != n:
        raise DependentPoints("evaluation points must be F_q-independent")
    rows = [[ctx.frobenius(g, i) for g in points] for i in range(k)]
    return LinearCode(ctx, Matrix(ctx, rows, n))
