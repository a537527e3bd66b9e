"""Frobenius images and Galois closures of F_{q^m}-subspaces, built from sums
of codes only: shared by the subspace tests and the weight references."""

from rankguard.codes import LinearCode


def frobenius_image(V: LinearCode, iterate: int = 1) -> LinearCode:
    ctx = V.ctx
    rows = [[ctx.frobenius(a, iterate) for a in row] for row in V.gen.rows]
    return LinearCode(ctx, rows, V.n)


def galois_closure(V: LinearCode) -> LinearCode:
    """Smallest Frobenius-invariant subspace containing V: sum of V^(q^i)."""
    acc = V
    for i in range(1, V.ctx.m):
        acc = acc.sum_with(frobenius_image(V, i))
    return acc
