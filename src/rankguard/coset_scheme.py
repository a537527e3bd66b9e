"""Nested coset coding: a code pair C2 < C1 plus a linear bijection from
messages onto the quotient C1/C2.

The bijection is held as an explicit l x n coset-representative matrix
(rows complete a basis of C2 to one of C1), so arbitrary user-chosen maps
travel through the same code path as the built-in construction.

build_proposed() is the explicit scheme: take an [l+n, k] systematic MRD
(Gabidulin) code, puncture away the first l coordinates to get C1, shorten
to get C2, and use the top-right l x n block of the systematic generator as
the representative matrix.  It needs packet length m >= l+n.

The lifting construction prepends an identity header to every transmitted
packet matrix, which carries the coding vectors through an unknown network
transfer: an inner scheme over F_{q^(m-n)} becomes packets over F_{q^m}.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .codes import LinearCode, gabidulin, quotient_dim
from .errors import (
    BadDimensions,
    DegreeMismatch,
    DimensionMismatch,
    EnumerationTooLarge,
    PacketTooShort,
    PreconditionError,
    json_field,
    json_ints,
    require,
)
from .gf import FieldCtx, ctx_from_json
from .linalg import Matrix, solve_right, vec_add, vec_mat

DEFAULT_MESSAGE_CAP = 2**20


class NestedScheme:
    """(C1, C2, psi) with encode/decode of the coset map itself."""

    def __init__(self, c1: LinearCode, c2: LinearCode, delta_g: Matrix,
                 coset_distribution: str | Sequence[int] = "uniform"):
        self.l = quotient_dim(c1, c2)
        self.c1 = c1
        self.c2 = c2
        self.ctx = c1.ctx
        self.n = c1.n
        if delta_g.nrows != self.l or delta_g.ncols != self.n:
            raise DimensionMismatch("representative matrix must be l x n")
        self.delta_g = delta_g
        stacked = delta_g.stack(c2.gen)
        if stacked.rref()[1] != c1.k or not all(c1.contains_word(r) for r in delta_g.rows):
            raise PreconditionError(
                "representative rows plus a basis of C2 must form a basis of C1")
        if coset_distribution != "uniform":
            coset_distribution = tuple(int(w) for w in coset_distribution)
            if len(coset_distribution) != self.c2.codeword_count():
                raise DimensionMismatch(
                    "explicit coset table needs one weight per C2 codeword")
            if min(coset_distribution) < 0 or sum(coset_distribution) == 0:
                raise PreconditionError("weights must be nonnegative and not all zero")
        self.coset_distribution = coset_distribution

    # -- the bijection ---------------------------------------------------------

    def messages(self) -> Iterator[tuple[int, ...]]:
        if self.message_count() > DEFAULT_MESSAGE_CAP:
            raise EnumerationTooLarge(
                f"(q^m)^l = {self.message_count()} exceeds cap {DEFAULT_MESSAGE_CAP}")
        return itertools.product(self.ctx.elements(), repeat=self.l)

    def message_count(self) -> int:
        return self.ctx.order**self.l

    def representative(self, S: Sequence[int]) -> tuple[int, ...]:
        if len(S) != self.l:
            raise DimensionMismatch("message length must be l")
        return vec_mat(self.ctx, S, self.delta_g)

    def coset_elements(self, S: Sequence[int]) -> Iterator[tuple[int, ...]]:
        rep = self.representative(S)
        for c in self.c2.codewords():
            yield vec_add(self.ctx, rep, c)

    def encode(self, S: Sequence[int], rng: random.Random) -> tuple[int, ...]:
        """A random element of the coset of S, per the coset distribution."""
        rep = self.representative(S)
        k2 = self.c2.k
        if self.coset_distribution == "uniform":
            u = tuple(rng.randrange(self.ctx.order) for _ in range(k2))
            mask = self.c2.encode(u)
        else:
            idx = rng.choices(range(self.c2.codeword_count()),
                              weights=self.coset_distribution, k=1)[0]
            mask = self._codeword_by_index(idx)
        return vec_add(self.ctx, rep, mask)

    def _codeword_by_index(self, idx: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.c2.k):
            digits.append(idx % self.ctx.order)
            idx //= self.ctx.order
        return self.c2.encode(tuple(digits))

    def coset_label(self, X: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative: X reduced modulo C2's RREF basis."""
        ctx = self.ctx
        x = list(X)
        _, _, pivots = self.c2.gen.rref()
        for row, p in zip(self.c2.gen.rows, pivots):
            c = x[p]
            if c:
                x = [ctx.sub(a, ctx.mul(c, b)) for a, b in zip(x, row)]
        return tuple(x)

    def decode_message_of(self, X: Sequence[int]) -> tuple[int, ...]:
        """The unique S with X in psi(S); X must lie in C1."""
        stacked = self.delta_g.stack(self.c2.gen)
        sol = solve_right(stacked, X)
        if sol is None:
            raise PreconditionError("X is not a codeword of C1")
        return tuple(sol[: self.l])

    # -- derived codes -----------------------------------------------------------

    def partial_subcode(self, z_indices: Sequence[int]) -> LinearCode:
        """Codewords reachable while the message symbols in z_indices are zero:
        C2 plus the representative rows of the other indices.  Its dimension is
        dim C1 - |z_indices|."""
        z = set(z_indices)
        if not z <= set(range(self.l)):
            raise PreconditionError("indices must lie in 0..l-1")
        rows = [self.delta_g.rows[i] for i in range(self.l) if i not in z]
        return LinearCode(self.ctx, Matrix(self.ctx, rows, self.n).stack(self.c2.gen))

    def lengthened_code(self) -> LinearCode:
        """Length l+n code of all [S, X] with X in psi(S)."""
        eye = Matrix.identity(self.ctx, self.l)
        top = eye.augment(self.delta_g)
        bottom = Matrix.zeros(self.ctx, self.c2.k, self.l).augment(self.c2.gen)
        return LinearCode(self.ctx, top.stack(bottom))

    def bound_codes(self, i: int) -> tuple[LinearCode, LinearCode]:
        """Puncture/shorten the lengthened code at message coordinate i (0-based)."""
        if not 0 <= i < self.l:
            raise PreconditionError("coordinate must be a message index")
        keep = [j for j in range(self.l + self.n) if j != i]
        lengthened = self.lengthened_code()
        return lengthened.puncture(keep), lengthened.shorten(keep)

    # -- plumbing -------------------------------------------------------------------

    def to_json(self) -> dict:
        data = {"version": 1, **self.ctx.params(), "n": self.n, "l": self.l,
                "k": self.c1.k, "c1": self.c1.to_json(), "c2": self.c2.to_json(),
                "delta_g": self.delta_g.to_json()}
        if self.coset_distribution != "uniform":
            data["coset_distribution"] = list(self.coset_distribution)
        return data

    @staticmethod
    def from_json(data: dict) -> "NestedScheme":
        ctx = ctx_from_json(data)
        c1 = LinearCode.from_json(json_field(data, "c1", dict), ctx)
        c2 = LinearCode.from_json(json_field(data, "c2", dict), ctx)
        delta_g = Matrix.from_json(ctx, json_field(data, "delta_g", dict))
        weights = data.get("coset_distribution", "uniform")
        if weights != "uniform":
            weights = json_ints(weights, "coset_distribution")
        return NestedScheme(c1, c2, delta_g, weights)

    def __repr__(self) -> str:
        return (f"NestedScheme(n={self.n}, dim C1={self.c1.k}, dim C2={self.c2.k},"
                f" q={self.ctx.q}, m={self.ctx.m})")


def build_proposed(ctx: FieldCtx, l: int, n: int, k: int) -> NestedScheme:
    """The explicit systematic-MRD scheme; requires m >= l+n and l <= k <= n."""
    if not 1 <= l <= k <= n:
        raise BadDimensions(f"need 1 <= l <= k <= n, got l={l}, k={k}, n={n}")
    if ctx.m < l + n:
        raise PacketTooShort(f"packet length m={ctx.m} below l+n={l + n}")
    parent = gabidulin(ctx, l + n, k)
    sys_parent, _ = parent.systematic_form()
    gen = sys_parent.gen  # [I | P] with P = k x n
    span = list(range(l, l + n))
    c1 = parent.puncture(span)
    c2 = parent.shorten(span)
    delta_g = gen.submatrix(rows=range(l), cols=span)
    scheme = NestedScheme(c1, c2, delta_g)
    require(c1.k == k and c2.k == k - l, "construction dimensions violated")
    return scheme


class LiftedScheme:
    """Identity-header packets over F_{q^m} wrapping an inner scheme over
    F_{q^(m-n)}; every emitted packet matrix has base-field rank n."""

    def __init__(self, inner: NestedScheme, outer_ctx: FieldCtx):
        if outer_ctx.q != inner.ctx.q:
            raise DegreeMismatch("inner and outer base fields differ")
        if outer_ctx.m != inner.ctx.m + inner.n:
            raise DegreeMismatch(
                f"lifting needs outer m = inner m + n = {inner.ctx.m + inner.n},"
                f" got {outer_ctx.m}")
        self.inner = inner
        self.ctx = outer_ctx
        self.n = inner.n
        self.l = inner.l

    def lift_vector(self, x_inner: Sequence[int]) -> tuple[int, ...]:
        """Packet j carries the j-th unit header atop the inner coefficients."""
        inner_ctx = self.inner.ctx
        out = []
        for j, v in enumerate(x_inner):
            coeffs = [0] * self.n + list(inner_ctx.coeffs(v))
            coeffs[j] = 1
            out.append(self.ctx.from_coeffs(coeffs))
        return tuple(out)

    def inner_of(self, x_lifted: Sequence[int]) -> tuple[int, ...]:
        inner_ctx = self.inner.ctx
        return tuple(inner_ctx.from_coeffs(self.ctx.coeffs(v)[self.n:])
                     for v in x_lifted)

    def lift_encode(self, S: Sequence[int], rng: random.Random) -> tuple[int, ...]:
        return self.lift_vector(self.inner.encode(S, rng))

    def coset_elements(self, S: Sequence[int]) -> Iterator[tuple[int, ...]]:
        for x in self.inner.coset_elements(S):
            yield self.lift_vector(x)

    def messages(self) -> Iterator[tuple[int, ...]]:
        return self.inner.messages()


def lift(scheme: NestedScheme, outer_ctx: FieldCtx) -> LiftedScheme:
    return LiftedScheme(scheme, outer_ctx)
