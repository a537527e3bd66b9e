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
import weakref
from functools import cached_property, reduce
from operator import xor
from typing import Iterable, Iterator, Sequence

from .bitrank import pack_key
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
    json_agrees,
    json_field,
)
from .gf import FieldCtx, ctx_from_json
from .linalg import Matrix, expand_to_base, vec_mat

#: Listings of F_{q^m} vectors (codewords, messages, coset members, a joint
#: support) refuse above this many vectors.
DEFAULT_SCAN_CAP = 2**20


def require_scan_cap(count: int) -> None:
    """Refuse a listing of count vectors of F_{q^m} past DEFAULT_SCAN_CAP."""
    if count > DEFAULT_SCAN_CAP:
        raise EnumerationTooLarge(
            f"scan cap: {count} vectors over F_(q^m) exceed cap {DEFAULT_SCAN_CAP}")


class _RowTable(dict):
    """Row id of a base-field row b (its base-q digits, least significant
    first) -> a tuple linear in b, filled when first read by linearity:
    T[b] = T[b - d q^j] + steps[j][d - 1] for b's top digit d at position j,
    one tuple addition per entry (an XOR at q = 2).  Dropping the top digit
    keeps the lowest nonzero one, so the rows of q-invariant bases (a leading
    1) fill at most (q^n - 1)/(q - 1) + 1 ids, and unit rows n + 1."""

    def __init__(self, q: int, zero: tuple, steps: list, add):
        super().__init__({0: zero})
        self.q, self.steps, self.add = q, steps, add

    def __missing__(self, row_id: int) -> tuple[int, ...]:
        q, d, j = self.q, row_id, 0
        while d >= q:
            d, j = d // q, j + 1
        col = self[row_id] = tuple(map(self.add, self[row_id - d * q**j], self.steps[j][d - 1]))
        return col


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
        self._dual_of: weakref.ref | None = None  # the code this one is the dual of

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
        require_scan_cap(self.codeword_count())
        for u in self.messages():
            yield self.encode(u)

    def encode(self, u: Sequence[int]) -> tuple[int, ...]:
        if len(u) != self.k:
            raise DimensionMismatch("message length must be k")
        return vec_mat(self.ctx, u, self.gen)

    def contains_word(self, v: Sequence[int]) -> bool:
        """v lies in the code iff v H^T = 0, H the cached dual's generator."""
        if len(v) != self.n:
            raise DimensionMismatch("word length must be n")
        ctx = self.ctx
        return not any(reduce(ctx.add, map(ctx.mul, v, h), ctx.zero)
                       for h in self.dual().gen.rows)

    def contains(self, other: "LinearCode") -> bool:
        self._check(other)
        return all(self.contains_word(row) for row in other.gen.rows)

    def _check(self, other: "LinearCode") -> None:
        if other.n != self.n or other.ctx != self.ctx:
            raise AmbientMismatch("codes live in different spaces")

    # -- derived codes ---------------------------------------------------------

    def dual(self) -> "LinearCode":
        """The dual code, computed once and kept, as a code never changes.  A
        dual links back to its source by a weak reference only, so no cycle
        keeps the pair alive, and its own dual is that source while it lives."""
        if self._dual is None:
            source = self._dual_of() if self._dual_of is not None else None
            if source is not None:
                return source
            self._dual = (LinearCode.full(self.ctx, self.n) if self.k == 0
                          else LinearCode(self.ctx, self.gen.right_kernel()))
            self._dual._dual_of = weakref.ref(self)
        return self._dual

    @cached_property
    def parity_columns(self) -> _RowTable:
        """H b^T by the row id of b, filled as ids are met and kept like the
        dual: steps[j][d - 1] = d h_j, h_j column j of H."""
        ctx = self.ctx
        return _RowTable(ctx.q, (ctx.zero,) * (self.n - self.k),
                         [[tuple(ctx.mul(d, a) for a in h) for d in range(1, ctx.q)]
                          for h in self.dual().gen.transpose().rows], xor if ctx.q == 2 else ctx.add)

    @cached_property
    def parity_keys(self) -> _RowTable:
        """At q = 2, the packed keys (bitrank.pack_key) of alpha^a H b^T, a < m,
        an F_2 basis of F_{2^m} H b^T when that is nonzero, kept the same way."""
        ctx, m, steps = self.ctx, self.ctx.m, []
        if ctx.q != 2:
            raise PreconditionError(f"packed parity keys need q = 2, got q = {ctx.q}")
        ones, fold = pack_key([1] * (self.n - self.k), m), ctx.mul(ctx.alpha, 1 << m - 1)
        for h in self.dual().gen.transpose().rows:
            keys = [pack_key(h, m)]
            for _ in range(1, m):  # x times a key: each entry shifted up, x^m folded back
                top = keys[-1] >> m - 1 & ones
                keys.append((keys[-1] ^ top << m - 1) << 1 ^ top * fold)
            steps.append([tuple(keys)])
        return _RowTable(2, (0,) * m, steps, xor)

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

    # -- metrics -----------------------------------------------------------------

    def min_rank_distance(self) -> int:
        """Minimum rank weight of a nonzero codeword, by a scan of codewords()
        (refused past DEFAULT_SCAN_CAP); the zero code has none."""
        if self.k == 0:
            raise PreconditionError("the zero code has no minimum distance")
        from .rank_metrics import rank_weight
        best = self.n  # no word of length n has a larger rank weight
        for v in self.codewords():
            if any(v):
                best = min(best, rank_weight(self.ctx, v))
                if best == 1:
                    break
        return best

    # -- plumbing ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"version": 1, **self.ctx.params(), "n": self.n, "k": self.k,
                "generator": self.gen.to_json()}

    @staticmethod
    def from_json(data: dict, ctx: FieldCtx | None = None) -> "LinearCode":
        if ctx is None:
            ctx = ctx_from_json(data)
        code = LinearCode(ctx, Matrix.from_json(ctx, json_field(data, "generator", dict)))
        json_agrees(data, {**ctx.params(), "n": code.n, "k": code.k}, "code")
        return code

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
