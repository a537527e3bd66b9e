"""Nested schemes from random generators, for tests over any field."""

from rankguard.codes import LinearCode
from rankguard.coset_scheme import NestedScheme
from rankguard.linalg import Matrix


def random_scheme(rng, ctx, n, l, k2):
    """A nested pair from random independent rows: C2 spans the first k2, and
    the other l are the representative rows."""
    while True:
        rows = [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(l + k2)]
        if Matrix(ctx, rows, n).rank() == l + k2:
            return NestedScheme(LinearCode(ctx, rows, n), LinearCode(ctx, rows[:k2], n),
                                Matrix(ctx, rows[k2:], n))
