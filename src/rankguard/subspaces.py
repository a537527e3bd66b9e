"""Enumeration of the subspace families that the profile reductions range over.

Frobenius-invariant subspaces of F_{q^m}^n (those with V = V^q) are exactly
the subspaces admitting a basis of base-field vectors, so the i-dimensional
family is enumerated as the F_q-subspaces of F_q^n, one canonical RREF basis
each, lifted to the extension by the constant embedding.  Coordinate
subspaces E_I (unit-vector spans) are the sub-family behind the classical
Hamming-side profiles.

A family holds each basis as a tuple of row ids, the integers whose base-q
digits (least significant first) are the rows; E_I has the ids q^c, c in I.
The tuples are built once per (q, n, i, kind), after the cap check, into an
LRU cache of FAMILY_CACHE_SIZE families.  Enumeration order is deterministic:
lexicographic over RREF pivot patterns, then lexicographic over the free
entries, so streamed reductions and golden files are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator

from .codes import LinearCode
from .errors import EnumerationTooLarge, PreconditionError
from .gf import FieldCtx, PrimeField
from .linalg import Matrix

#: Families larger than this refuse to enumerate rather than silently sample.
DEFAULT_FAMILY_CAP = 10**6
#: Families whose row ids stay cached; the least recently used is evicted first.
FAMILY_CACHE_SIZE = 64


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


def enumerate_base_subspaces(q: int, n: int, i: int) -> Iterator[Matrix]:
    """All i-dim subspaces of F_q^n as RREF basis matrices, canonical order."""
    base = PrimeField(q)
    for pivots in combinations(range(n), i):
        # entry (r, c) is free iff c > pivots[r] and c is not a pivot column
        slots = [(r, c) for r in range(i) for c in range(pivots[r] + 1, n) if c not in pivots]
        for assign in range(q ** len(slots)):
            rows = [[int(c == p) for c in range(n)] for p in pivots]
            for j, (r, c) in enumerate(slots):
                rows[r][c] = assign // q**j % q
            yield Matrix(base, rows, n)


def row_digits(row_id: int, q: int, n: int) -> tuple[int, ...]:
    """The length-n base-field row whose base-q digits make up row_id."""
    return tuple(row_id // q**c % q for c in range(n))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family_bases(q: int, n: int, i: int, kind: str) -> tuple[tuple[int, ...], ...]:
    if kind == "coordinate":
        return tuple(tuple(q**c for c in idx) for idx in combinations(range(n), i))
    return tuple(tuple(sum(v * q**c for c, v in enumerate(row)) for row in B.rows)
                 for B in enumerate_base_subspaces(q, n, i))


@dataclass
class SubspaceFamily:
    """Family of i-dim subspaces spanned by base-field vectors, with `bases`
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
        if count > DEFAULT_FAMILY_CAP:
            raise EnumerationTooLarge(
                f"{self.kind} family of {count} subspaces exceeds cap {DEFAULT_FAMILY_CAP}")
        self.count = count
        self.bases = _family_bases(self.ctx.q, self.n, self.i, self.kind)

    def __iter__(self) -> Iterator[LinearCode]:
        ctx, n = self.ctx, self.n
        for ids in self.bases:
            yield LinearCode(ctx, [row_digits(b, ctx.q, n) for b in ids], n)

