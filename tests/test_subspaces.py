import random
from collections import Counter
from itertools import combinations

import pytest

from rankguard import EnumerationTooLarge, ctx_new, subspaces
from rankguard.codes import LinearCode
from rankguard.linalg import expand_to_base
from rankguard.network import all_matrices
from rankguard.subspaces import (
    FAMILY_CACHE_SIZE,
    SubspaceFamily,
    _family_bases,
    enumerate_base_subspaces,
    gaussian_binomial,
    rank_r_count,
    row_digits,
)

F16 = ctx_new(2, 4)
F8 = ctx_new(2, 3)
A = F16.alpha


def frobenius_image(V: LinearCode, iterate: int = 1) -> LinearCode:
    ctx = V.ctx
    rows = [[ctx.frobenius(a, iterate) for a in row] for row in V.gen.rows]
    return LinearCode(ctx, rows, V.n)


def is_qinvariant(V: LinearCode) -> bool:
    """True iff the Frobenius image of every basis row stays inside V."""
    ctx = V.ctx
    return all(V.contains_word(tuple(ctx.frobenius(a) for a in row))
               for row in V.gen.rows)


def galois_closure(V: LinearCode) -> LinearCode:
    """Smallest Frobenius-invariant subspace containing V: sum of V^(q^i)."""
    acc = V
    for i in range(1, V.ctx.m):
        acc = acc.sum_with(frobenius_image(V, i))
    return acc


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 5, 2) == 0


@pytest.mark.parametrize("q, nrows, ncols", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 1, 4)])
def test_rank_r_count_matches_brute_force(q, nrows, ncols):
    ranks = Counter(M.rank() for M in all_matrices(q, nrows, ncols))
    for r in range(min(nrows, ncols) + 2):
        assert rank_r_count(q, nrows, ncols, r) == ranks[r]


def test_enumerate_counts_match_gaussian_binomial():
    for (n, i, expect) in [(3, 1, 7), (3, 0, 1), (4, 2, 35), (4, 4, 1)]:
        fam = SubspaceFamily(F16, n, i)
        items = list(fam)
        assert fam.count == expect
        assert len(items) == expect
        assert len(set(items)) == expect  # canonical => dedup-free


def test_enumerated_subspaces_are_qinvariant_with_right_dim():
    for V in SubspaceFamily(F16, 4, 2):
        assert V.k == 2
        assert is_qinvariant(V)


def test_zero_dim_family_is_zero_space():
    fam = list(SubspaceFamily(F16, 5, 0))
    assert fam == [LinearCode.zero(F16, 5)]


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(subspaces, "DEFAULT_FAMILY_CAP", 10)
    with pytest.raises(EnumerationTooLarge):
        SubspaceFamily(F16, 4, 2)


def test_cached_family_still_checks_cap(monkeypatch):
    assert SubspaceFamily(F16, 4, 2).count == 35  # cached under the default cap
    hits = _family_bases.cache_info().hits
    monkeypatch.setattr(subspaces, "DEFAULT_FAMILY_CAP", 35)
    assert SubspaceFamily(F16, 4, 2).count == 35
    assert _family_bases.cache_info().hits == hits + 1
    monkeypatch.setattr(subspaces, "DEFAULT_FAMILY_CAP", 10)
    with pytest.raises(EnumerationTooLarge):
        SubspaceFamily(F16, 4, 2)
    monkeypatch.setattr(subspaces, "DEFAULT_FAMILY_CAP", 5)
    with pytest.raises(EnumerationTooLarge):
        SubspaceFamily(F16, 4, 2, "coordinate")


def test_family_cache_is_bounded():
    _family_bases.cache_clear()
    for n in range(FAMILY_CACHE_SIZE + 10):
        SubspaceFamily(F16, n, min(n, 1), "coordinate")
    info = _family_bases.cache_info()
    assert info.maxsize == FAMILY_CACHE_SIZE
    assert info.currsize == FAMILY_CACHE_SIZE
    _family_bases.cache_clear()


@pytest.mark.parametrize("q, m, n", [(2, 4, 4), (3, 2, 3)])
def test_row_ids_are_base_q_digits_in_enumeration_order(q, m, n):
    ctx = ctx_new(q, m)
    for i in range(n + 1):
        bases = SubspaceFamily(ctx, n, i).bases
        assert [tuple(row_digits(b, q, n) for b in ids) for ids in bases] == [
            B.rows for B in enumerate_base_subspaces(q, n, i)]
        coords = SubspaceFamily(ctx, n, i, "coordinate").bases
        assert coords == tuple(tuple(q**c for c in idx) for idx in combinations(range(n), i))


def test_coordinate_family_inside_qinvariant_family():
    coords = set(SubspaceFamily(F16, 4, 2, "coordinate"))
    full = set(SubspaceFamily(F16, 4, 2))
    assert len(coords) == 6
    assert coords <= full
    for E in coords:
        assert is_qinvariant(E)


def test_is_qinvariant_examples():
    assert is_qinvariant(LinearCode(F16, [(1, 0, 0), (0, 0, 1)], 3))
    assert is_qinvariant(LinearCode.zero(F16, 3))
    V = LinearCode(F16, [(1, A)], 2)
    assert not is_qinvariant(V)


def test_galois_closure_fixed_points_and_examples():
    for V in SubspaceFamily(F16, 3, 1):
        assert galois_closure(V) == V
    assert galois_closure(LinearCode.zero(F16, 3)) == LinearCode.zero(F16, 3)
    a2 = F16.mul(A, A)
    V = LinearCode(F16, [(1, A, a2)], 3)
    closure = galois_closure(V)
    assert closure.k == 3
    assert closure.k == expand_to_base(F16, (1, A, a2)).rank()


def test_galois_closure_is_a_closure_operator():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randrange(16) for _ in range(4)]
                for _ in range(rng.randrange(1, 3))]
        V = LinearCode(F16, rows, 4)
        W = galois_closure(V)
        assert W.contains(V)                     # extensive
        assert galois_closure(W) == W            # idempotent
        assert is_qinvariant(W)
        U = V.sum_with(LinearCode(F16, [[rng.randrange(16) for _ in range(4)]], 4))
        assert galois_closure(U).contains(W)  # monotone
        assert W.k <= F16.m * V.k


def test_closure_dim_equals_rank_weight_of_spanning_vector():
    rng = random.Random(12)
    for _ in range(200):
        b = tuple(rng.randrange(8) for _ in range(4))
        if all(v == 0 for v in b):
            continue
        V = LinearCode(F8, [b], 4)
        assert galois_closure(V).k == expand_to_base(F8, b).rank()
