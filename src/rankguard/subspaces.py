"""Enumeration of the subspace families that the profile reductions range over.

Frobenius-invariant subspaces of F_{q^m}^n (those with V = V^q) are exactly
the subspaces admitting a basis of base-field vectors, so the i-dimensional
family is enumerated as the F_q-subspaces of F_q^n, one canonical RREF basis
each, lifted to the extension by the constant embedding.  Coordinate
subspaces E_I (unit-vector spans) are the sub-family behind the classical
Hamming-side profiles.

A basis is a tuple of row ids, the integers whose base-q digits (least
significant first) are the rows; E_I has the ids q^c, c in I.  One generator,
`base_subspace_ids`, yields them, a family streams them afresh on each pass,
and `enumerate_base_subspaces` lifts them to matrices.  The order is fixed:
RREF pivot patterns lexicographically, then a counter over the free entries
(row 0's first free column fastest), so reductions and golden files repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterator

from .codes import LinearCode
from .errors import EnumerationTooLarge, PreconditionError
from .gf import FieldCtx, PrimeField
from .linalg import Matrix

#: Enumerations of base-field objects (subspace families, wiretap row spaces,
#: error balls, raw matrices) refuse above this many rather than sample.
DEFAULT_ENUM_CAP = 10**6


def require_enum_cap(count: int, what: str) -> None:
    """Refuse an enumeration of count base-field objects past DEFAULT_ENUM_CAP."""
    if count > DEFAULT_ENUM_CAP:
        raise EnumerationTooLarge(f"enumeration cap: {count} {what} exceed cap {DEFAULT_ENUM_CAP}")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rank_r_count(q: int, nrows: int, ncols: int, r: int) -> int:
    """Number of nrows x ncols matrices over F_q of rank r: a row space of
    dimension r, then nrows-row coefficient matrices of full column rank r."""
    count = gaussian_binomial(ncols, r, q)
    for i in range(r):
        count *= q**nrows - q**i
    return count


def base_subspace_ids(q: int, n: int, i: int) -> Iterator[tuple[int, ...]]:
    """Row ids of the RREF basis of every i-dim subspace of F_q^n, canonical order."""
    for pivots in combinations(range(n), i):
        # each row: a one at its pivot, then free later non-pivot columns, first fastest
        rows = []
        for p in pivots:
            ids = [q**p]
            for c in range(p + 1, n):
                if c not in pivots:
                    ids = [b + d * q**c for d in range(q) for b in ids]
            rows.append(ids)
        for ids in product(*rows[::-1]):  # row 0 fastest
            yield ids[::-1]


def enumerate_base_subspaces(q: int, n: int, i: int) -> Iterator[Matrix]:
    """All i-dim subspaces of F_q^n as RREF basis matrices, canonical order."""
    base = PrimeField(q)
    for ids in base_subspace_ids(q, n, i):
        yield Matrix(base, [row_digits(b, q, n) for b in ids], n)


def row_digits(row_id: int, q: int, n: int) -> tuple[int, ...]:
    """The length-n base-field row whose base-q digits make up row_id."""
    return tuple(row_id // q**c % q for c in range(n))


@dataclass
class SubspaceFamily:
    """Family of i-dim subspaces spanned by base-field vectors; `bases` streams
    one row-id tuple per subspace: every Frobenius-invariant subspace (kind
    "qinvariant") or the coordinate subspaces E_I (kind "coordinate")."""

    ctx: FieldCtx
    n: int
    i: int
    kind: str = "qinvariant"

    def __post_init__(self):
        if not 0 <= self.i <= self.n:
            raise PreconditionError(f"need 0 <= i={self.i} <= n={self.n}")
        if self.kind == "qinvariant":
            count = gaussian_binomial(self.n, self.i, self.ctx.q)
        elif self.kind == "coordinate":
            count = comb(self.n, self.i)
        else:
            raise PreconditionError(f"unknown family kind {self.kind!r}")
        require_enum_cap(count, f"{self.kind} subspaces")
        self.count = count

    @property
    def bases(self) -> Iterator[tuple[int, ...]]:
        if self.kind == "coordinate":
            return combinations([self.ctx.q**c for c in range(self.n)], self.i)
        return base_subspace_ids(self.ctx.q, self.n, self.i)

    def __iter__(self) -> Iterator[LinearCode]:
        ctx, n = self.ctx, self.n
        for ids in self.bases:
            yield LinearCode(ctx, [row_digits(b, ctx.q, n) for b in ids], n)

