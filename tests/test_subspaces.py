import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from rankguard import EnumerationTooLarge, ctx_new, subspaces
from rankguard.codes import LinearCode
from rankguard.linalg import expand_to_base
from rankguard.network import all_matrices
from rankguard.subspaces import (
    SubspaceFamily,
    enumerate_base_subspaces,
    gaussian_binomial,
    rank_r_count,
    row_digits,
)

from frobenius import frobenius_image, galois_closure

F16 = ctx_new(2, 4)
F8 = ctx_new(2, 3)
A = F16.alpha


def is_qinvariant(V: LinearCode) -> bool:
    """True iff the Frobenius image of every basis row stays inside V."""
    ctx = V.ctx
    return all(V.contains_word(tuple(ctx.frobenius(a) for a in row))
               for row in V.gen.rows)


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
    monkeypatch.setattr(subspaces, "DEFAULT_ENUM_CAP", 10)
    with pytest.raises(EnumerationTooLarge):
        SubspaceFamily(F16, 4, 2)


def test_every_family_checks_cap(monkeypatch):
    # nothing is kept between constructions, so each one checks the cap
    assert SubspaceFamily(F16, 4, 2).count == 35
    monkeypatch.setattr(subspaces, "DEFAULT_ENUM_CAP", 35)
    assert SubspaceFamily(F16, 4, 2).count == 35
    monkeypatch.setattr(subspaces, "DEFAULT_ENUM_CAP", 10)
    with pytest.raises(EnumerationTooLarge):
        SubspaceFamily(F16, 4, 2)
    monkeypatch.setattr(subspaces, "DEFAULT_ENUM_CAP", 5)
    with pytest.raises(EnumerationTooLarge):
        SubspaceFamily(F16, 4, 2, "coordinate")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# (q, n) -> digests of the canonical bases as matrices, and of the row ids of
# both family kinds, each over every dimension i = 0..n
ORDER_DIGESTS = {
    (2, 5): ("0a64f04db8d4f3138a616db8558dc3c93390dd1ca395e29e9b230cff28f7ac0f",
             "1afaf18a0ee3153bfceb0851c05ddae08e91a2af15161823d4166647e25ad877",
             "218352adf252a8c9ce41382c2866e6d7b95f76a99873d27991bde882d6a376ad"),
    (2, 6): ("10482c4bc59dc90f72534e5a7cf342024bf142f0a4499677bda8a4bf970fef90",
             "7b8dc36409a34c5d7c500f8f0be41d14293d23945224cb0eb2354951f8d94a52",
             "8b9b4411bbef0f5d2eef266497cc876aae6fcef742f2228d17349bd9d270ff38"),
    (3, 4): ("7b4364c58d6f5f136b26ebbc8f039267f3d86ad588e00f792ba05af8f75436a2",
             "d1839a75268776f94ed8976f526f6b57fe89a95480f06aa3740e7cffd1e0e67c",
             "3a95cdde678e21a7a2c47e852d017cf603e099150793bb45e4ef472d1671a202"),
    (5, 3): ("8826f1ba3e2600a59321dac14e07cfb7f996a3c9c3e27e43c0b3fee78973ec09",
             "126db5c159b3ca2174d3c11ec2b810a9cb592535a62b4d928eace3ddec7d4c3f",
             "e016716eccfe3fd6ce6bfc2b0db397c943ca14f3ce30042052e9e4533272dca9"),
}


@pytest.mark.parametrize("q, n", sorted(ORDER_DIGESTS))
def test_enumeration_order_digest(q, n):
    # profile witnesses, wiretap maximizers and counterexample indices all
    # follow this order
    ctx, dims = ctx_new(q, 1), range(n + 1)
    rows, qinvariant, coordinate = ORDER_DIGESTS[q, n]
    assert _digest([[B.rows for B in enumerate_base_subspaces(q, n, i)] for i in dims]) == rows
    for kind, digest in [("qinvariant", qinvariant), ("coordinate", coordinate)]:
        assert _digest([list(SubspaceFamily(ctx, n, i, kind).bases) for i in dims]) == digest


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_enumeration_is_complete(q, n):
    # every rank-i matrix has its row space's canonical basis yielded, once
    for i in range(n + 1):
        yielded = Counter(B.rows for B in enumerate_base_subspaces(q, n, i))
        assert set(yielded.values()) == {1}
        spans = {M.row_basis().rows for M in all_matrices(q, i, n) if M.rank() == i}
        assert set(yielded) == spans


@pytest.mark.parametrize("q, m, n", [(2, 4, 4), (3, 2, 3)])
def test_row_ids_are_base_q_digits_in_enumeration_order(q, m, n):
    ctx = ctx_new(q, m)
    for i in range(n + 1):
        bases = SubspaceFamily(ctx, n, i).bases
        assert [tuple(row_digits(b, q, n) for b in ids) for ids in bases] == [
            B.rows for B in enumerate_base_subspaces(q, n, i)]
        coords = SubspaceFamily(ctx, n, i, "coordinate").bases
        assert tuple(coords) == tuple(tuple(q**c for c in idx) for idx in combinations(range(n), i))


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
