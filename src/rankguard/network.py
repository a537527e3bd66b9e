"""The (n x m)_q linear network channel at matrix level.

No graph topology is simulated: the universal statements quantify over
transfer/wiretap matrices directly, so realizations are sampled or
enumerated as matrices.  Received packets follow Y = X A^T + Z D^T over
the tower (base-field matrices acting on extension-field row vectors).  The
adversary's observation is not simulated: security computes the leakage
exactly, over every wiretap row space.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .errors import DimensionMismatch, InfeasibleRank
from .gf import FieldCtx, PrimeField
from .linalg import Matrix, ext_vec_times_base_transpose, vec_add, vec_mat
from .rank_metrics import rank_weight
from .subspaces import enumerate_base_subspaces, gaussian_binomial, rank_r_count, require_enum_cap


def sample_matrix(rng: random.Random, q: int, nrows: int, ncols: int) -> Matrix:
    return Matrix(PrimeField(q),
                  [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)], ncols)


def sample_transfer(rng: random.Random, q: int, N: int, n: int, rho_max: int) -> Matrix:
    """Uniform over F_q^(N x n) conditioned on rank >= n - rho_max."""
    if rho_max < 0 or N < n - rho_max:
        raise InfeasibleRank(f"no {N}x{n} matrix has rank >= {n - rho_max}")
    # a draw is kept with probability >= prod_{j>=1} (1 - 2^-j) > 0.28, as
    # n - rho_max <= min(N, n), so rejection ends after few draws
    while True:
        A = sample_matrix(rng, q, N, n)
        if A.rank() >= n - rho_max:
            return A


def sample_error_pair(rng: random.Random, ctx: FieldCtx, N: int, t: int) -> tuple[Matrix, tuple[int, ...]]:
    """(D, Z): error routing N x t over F_q and t injected packets over F_{q^m}."""
    D = sample_matrix(rng, ctx.q, N, t)
    Z = tuple(rng.randrange(ctx.order) for _ in range(t))
    return D, Z


def transmit(ctx: FieldCtx, X: Sequence[int], A: Matrix, D: Matrix,
             Z: Sequence[int]) -> tuple[int, ...]:
    """The sink's packets Y = X A^T + Z D^T."""
    if A.ncols != len(X):
        raise DimensionMismatch("transfer width must equal the packet count")
    Y = ext_vec_times_base_transpose(ctx, X, A)
    if Z:
        Y = vec_add(ctx, Y, ext_vec_times_base_transpose(ctx, Z, D))
    return Y


def enumerate_wiretap(q: int, n: int, mu: int, mode: str = "rowspace") -> Iterator[Matrix]:
    """Wiretap matrices to maximize over.

    Leakage depends on B only through its row space, so the default yields
    one canonical RREF matrix per row space of dimension <= mu.  Full mode
    yields every raw mu x n matrix (cap permitting).
    """
    if mode == "rowspace":
        require_enum_cap(sum(gaussian_binomial(n, i, q) for i in range(min(mu, n) + 1)),
                         "row spaces")
        for i in range(min(mu, n) + 1):
            yield from enumerate_base_subspaces(q, n, i)
        return
    if mode == "full":
        yield from all_matrices(q, mu, n)
        return
    raise DimensionMismatch(f"unknown wiretap enumeration mode {mode!r}")


def all_matrices(q: int, nrows: int, ncols: int) -> Iterator[Matrix]:
    """Every nrows x ncols matrix over F_q, with entry (0, 0) varying fastest.

    This is the order of a counter whose base-q digits fill the entries
    row-major, least significant first.  Callers that keep the first
    maximizer (full-mode leakage) depend on it.  The cap is checked at the
    call, before the first matrix is asked for.
    """
    require_enum_cap(q ** (nrows * ncols), "matrices")
    base = PrimeField(q)
    return (Matrix(base, [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)], ncols)
            for digits in itertools.product(range(q), repeat=nrows * ncols)
            for flat in [digits[::-1]])


def error_count(ctx: FieldCtx, N: int, t: int) -> int:
    """Number of errors E in F_{q^m}^N of base rank <= t: their expansions
    are the m x N base matrices of rank <= t."""
    return sum(rank_r_count(ctx.q, ctx.m, N, r) for r in range(min(t, N) + 1))


def require_error_cap(ctx: FieldCtx, N: int, t: int) -> None:
    """Refuse an error ball past the enumeration cap."""
    require_enum_cap(error_count(ctx, N, t), "errors")


def enumerate_errors(ctx: FieldCtx, N: int, t: int) -> Iterator[tuple[int, ...]]:
    """Every distinct error contribution E = Z D^T with base rank <= t.

    Factored without duplicates: the expansion row space of E is a base
    subspace of dimension r <= t with canonical basis R, and E = z R for a
    unique z whose r components are F_q-independent.
    """
    require_error_cap(ctx, N, t)
    for r in range(min(t, N) + 1):
        for R in enumerate_base_subspaces(ctx.q, N, r):
            for z in itertools.product(ctx.nonzero(), repeat=r):
                if rank_weight(ctx, z) == r:
                    yield vec_mat(ctx, z, R)
