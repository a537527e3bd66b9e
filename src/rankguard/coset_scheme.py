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
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .bitrank import PACKED_BLOCK, row_image_tables
from .codes import LinearCode, gabidulin, quotient_dim, require_scan_cap
from .errors import (
    BadDimensions,
    DegreeMismatch,
    DimensionMismatch,
    PacketTooShort,
    PreconditionError,
    json_agrees,
    json_field,
    require,
)
from .gf import FieldCtx, ctx_from_json
from .linalg import Matrix, field_digits, solve_right, vec_add, vec_mat


class NestedScheme:
    """(C1, C2, psi) with encode/decode of the coset map itself."""

    def __init__(self, c1: LinearCode, c2: LinearCode, delta_g: Matrix):
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

    # -- the bijection ---------------------------------------------------------

    def messages(self) -> Iterator[tuple[int, ...]]:
        require_scan_cap(self.message_count())
        return itertools.product(self.ctx.elements(), repeat=self.l)

    def message_count(self) -> int:
        return self.ctx.order**self.l

    def representative(self, S: Sequence[int]) -> tuple[int, ...]:
        """S delta_g, for l message symbols in 0..q^m - 1."""
        if len(S) != self.l:
            raise DimensionMismatch("message length must be l")
        order = self.ctx.order
        if not all(isinstance(s, (int, np.integer)) and 0 <= s < order for s in S):
            raise PreconditionError(f"message symbols must be integers in 0..{order - 1}")
        return vec_mat(self.ctx, S, self.delta_g)

    def coset_elements(self, S: Sequence[int]) -> Iterator[tuple[int, ...]]:
        rep = self.representative(S)
        for c in self.c2.codewords():
            yield vec_add(self.ctx, rep, c)

    def encode(self, S: Sequence[int], rng: random.Random) -> tuple[int, ...]:
        """A uniformly random element of the coset of S."""
        rep = self.representative(S)
        u = tuple(rng.randrange(self.ctx.order) for _ in range(self.c2.k))
        return vec_add(self.ctx, rep, self.c2.encode(u))

    def decode_message_of(self, X: Sequence[int]) -> tuple[int, ...]:
        """The unique S with X in psi(S); X must lie in C1."""
        stacked = self.delta_g.stack(self.c2.gen)
        sol = solve_right(stacked, X)
        if sol is None:
            raise PreconditionError("X is not a codeword of C1")
        return tuple(sol[: self.l])

    @cached_property
    def base_generators(self) -> tuple[tuple[int, ...], ...]:
        """C1's F_q generators, C2's first: entry i*m + j is x^j (the element
        q^j) times row i of C2's generator stacked over delta_g, so C1's
        codewords are their F_q combinations, and one lies in C2 exactly when
        its digits past the first m * dim C2 are 0.  Kept per scheme, as the
        decoder reads them on every decode."""
        ctx = self.ctx
        return tuple(tuple(ctx.mul(ctx.q**j, x) for x in row)
                     for row in self.c2.gen.rows + self.delta_g.rows for j in range(ctx.m))

    def codeword_digits(self, start: int = 0) -> Iterator[np.ndarray]:
        """C1's codewords from entry start on, as base-q digit blocks (m x n x
        block; temporaries within PACKED_BLOCK).  Entry e, member e % |C2| of
        message e // |C2|'s coset in c2.codewords() and messages() order, is
        base_generators in reversed symbol order combined by e's base-q digits:
        a table of the low digits' combinations plus one of the high digits'."""
        q, m, n = self.ctx.q, self.ctx.m, self.n
        require_scan_cap(count := self.c1.codeword_count())
        k2, rows = self.c2.k, field_digits(self.base_generators, q, m).reshape(m, -1, m, n)
        gens = np.concatenate([rows[:, :k2][:, ::-1], rows[:, k2:][:, ::-1]], 1).reshape(m, -1, n)
        gens, acc = gens.astype(np.int64), np.min_scalar_type(2 * (q - 1))  # a sum of two digits
        low, b = np.zeros((m, n, 1), acc), 0  # low[:, :, i]: the first b combined by i
        while b < gens.shape[1] and low.size * q <= PACKED_BLOCK:
            shift = (np.arange(q)[:, None] * gens[:, b, :, None, None] % q).astype(acc)
            low, b = ((low[:, :, None] + shift) % q).reshape(m, n, -1), b + 1
        for hi in range(start // low.shape[2], count // low.shape[2]):
            high = np.einsum("dgj,g->dj", gens[:, b:], field_digits(hi, q, gens.shape[1] - b)) % q
            block = (low + high.astype(acc)[:, :, None]) % q
            yield block[:, :, max(0, start - hi * low.shape[2]):].astype(rows.dtype)

    @cached_property
    def row_images(self) -> tuple[int, list]:
        """bitrank.row_image_tables of base_generators (q = 2), which the
        packed decoder reads; kept with the scheme, not in a global cache."""
        return row_image_tables(self.base_generators, self.ctx.m)

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
        return {"version": 1, **self.ctx.params(), "n": self.n, "l": self.l,
                "k": self.c1.k, "c1": self.c1.to_json(), "c2": self.c2.to_json(),
                "delta_g": self.delta_g.to_json()}

    @staticmethod
    def from_json(data: dict) -> "NestedScheme":
        ctx = ctx_from_json(data)
        c1 = LinearCode.from_json(json_field(data, "c1", dict), ctx)
        c2 = LinearCode.from_json(json_field(data, "c2", dict), ctx)
        delta_g = Matrix.from_json(ctx, json_field(data, "delta_g", dict))
        scheme = NestedScheme(c1, c2, delta_g)
        json_agrees(data, {"n": scheme.n, "l": scheme.l, "k": c1.k}, "scheme")
        return scheme

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
        """Packet j carries the j-th unit header atop the inner coefficients:
        base-q digit j is 1, digits n.. are x_j's, so the symbol is q^j +
        x_j q^n."""
        q, n = self.ctx.q, self.n
        if len(x_inner) != n:
            raise DimensionMismatch(f"an inner vector has {n} symbols, got {len(x_inner)}")
        order = self.inner.ctx.order
        if not all(isinstance(v, (int, np.integer)) and 0 <= v < order for v in x_inner):
            raise PreconditionError(f"inner symbols must be integers in 0..{order - 1}")
        return tuple(q**j + int(v) * q**n for j, v in enumerate(x_inner))

    def lift_encode(self, S: Sequence[int], rng: random.Random) -> tuple[int, ...]:
        return self.lift_vector(self.inner.encode(S, rng))

    def coset_elements(self, S: Sequence[int]) -> Iterator[tuple[int, ...]]:
        for x in self.inner.coset_elements(S):
            yield self.lift_vector(x)


def lift(scheme: NestedScheme, outer_ctx: FieldCtx) -> LiftedScheme:
    return LiftedScheme(scheme, outer_ctx)
