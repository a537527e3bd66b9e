"""Field-arithmetic references for the decoder: the coset scans, every
coset member's image under a transfer matrix scored by its rank distance
to the received word, and the row-space capability check built on them,
the reference for every exhaustive report that decoder.capability_report
builds, packed or on digit arrays."""

from typing import Iterable, Iterator, Sequence

from rankguard.codes import require_scan_cap
from rankguard.decoder import (
    _exhaustive_report,
    _require_transfer_cap,
    _rowspace_counterexample,
)
from rankguard.linalg import Matrix, ext_vec_times_base_transpose, vec_sub
from rankguard.network import enumerate_errors, error_count
from rankguard.rank_metrics import rank_weight
from rankguard.subspaces import enumerate_base_subspaces


def _cosets(scheme):
    """(messages, each message's coset members), in messages() order: the
    zero message, whose coset is C2, comes first.  Together they list C1."""
    require_scan_cap(scheme.c1.codeword_count())
    messages = list(scheme.messages())
    return messages, [list(scheme.coset_elements(S)) for S in messages]


def _coset_images(ctx, cosets: Iterable[Iterable[tuple]], A: Matrix) -> list[list[tuple]]:
    """X A^T for every member X of every coset."""
    return [[ext_vec_times_base_transpose(ctx, X, A) for X in members] for members in cosets]


def _coset_score(ctx, images: Sequence[tuple], Y: Sequence[int]) -> int:
    """Least rank(Y - image) over one coset's images: the fewest injected
    packets explaining Y if that coset was sent."""
    return min(rank_weight(ctx, vec_sub(ctx, Y, image)) for image in images)


def _canonical_transfers(q: int, n: int, N: int, rho: int) -> Iterator[Matrix]:
    """One N x n transfer matrix per row space of dimension >= n - rho: the
    canonical basis padded with zero rows."""
    _require_transfer_cap(q, n, N, rho)
    for r in range(n - rho, min(n, N) + 1):
        for Abase in enumerate_base_subspaces(q, n, r):
            yield Matrix(Abase.field, list(Abase.rows) + [[0] * n for _ in range(N - r)], n)


def exhaustive_coherent_generic(scheme, t: int, rho: int, N: int):
    """One canonical A per row space, every error of rank <= t, every
    nonzero difference message: the first (A, E, S) whose coset scores no
    better than the true one, in that row-major order, refutes the budget."""
    ctx = scheme.ctx
    errors = list(enumerate_errors(ctx, N, t))
    transfers = _canonical_transfers(ctx.q, scheme.n, N, rho)
    n_errors = error_count(ctx, N, t)
    messages, cosets = _cosets(scheme)
    trials = 0
    for A in transfers:
        true_at, *others = _coset_images(ctx, cosets, A)
        for E in errors:
            trials += 1
            true_val = _coset_score(ctx, true_at, E)
            for S, images in zip(messages[1:], others):
                other = _coset_score(ctx, images, E)
                if other <= true_val:
                    counterexample = _rowspace_counterexample(
                        A, [list(ctx.coeffs(e)) for e in E], S, true_val, other)
                    return _exhaustive_report(scheme, "exhaustive", t, rho, N, trials,
                                              n_errors, counterexample)
    return _exhaustive_report(scheme, "exhaustive", t, rho, N, trials, n_errors, None)
