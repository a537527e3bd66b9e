"""The row-space capability check on field arithmetic: the reference for
every exhaustive report that decoder.capability_report builds, packed or
on digit arrays."""

from rankguard.decoder import (
    _canonical_transfers,
    _coset_images,
    _coset_score,
    _cosets,
    _exhaustive_report,
    _rowspace_counterexample,
)
from rankguard.network import enumerate_errors, error_count


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
