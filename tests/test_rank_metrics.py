import random

import pytest

from rankguard import LengthMismatch, NotASubcode, ctx_new
from rankguard.codes import LinearCode, gabidulin
from rankguard.rank_metrics import (
    _PairEngine,
    first_rgrw,
    rank_distance,
    rank_weight,
    rdip,
    rdlp,
    rghw,
    rgrw,
    verify_bounds,
)
from rankguard.subspaces import SubspaceFamily

F16 = ctx_new(2, 4)
F8 = ctx_new(2, 3)
A = F16.alpha


def rand_nested_pair(rng, ctx, n, k1, k2):
    while True:
        c1 = LinearCode(ctx, [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(k1)], n)
        if c1.k != k1:
            continue
        if k2 == 0:
            return c1, LinearCode.zero(ctx, n)
        sub_rows = [c1.encode(tuple(rng.randrange(ctx.order) for _ in range(k1)))
                    for _ in range(k2)]
        c2 = LinearCode(ctx, sub_rows, n)
        if c2.k == k2:
            return c1, c2


def test_rank_weight_examples():
    assert rank_distance(F16, (1, A, 3), (1, A, 3)) == 0
    assert rank_weight(F16, (1, 1, 1)) == 1
    a2, a3 = F16.pow(A, 2), F16.pow(A, 3)
    assert rank_weight(F16, (1, A, a2, a3)) == 4
    with pytest.raises(LengthMismatch):
        rank_distance(F16, (1, 2), (1, 2, 3))


def test_rank_distance_triangle_and_symmetry():
    rng = random.Random(31)
    for _ in range(50):
        x, y, z = (tuple(rng.randrange(16) for _ in range(4)) for _ in range(3))
        assert rank_distance(F16, x, y) == rank_distance(F16, y, x)
        assert rank_distance(F16, x, z) <= rank_distance(F16, x, y) + rank_distance(F16, y, z)


def test_rdip_requires_proper_subcode():
    c = gabidulin(F16, 4, 2)
    with pytest.raises(NotASubcode):
        rdip(c, c)
    with pytest.raises(NotASubcode):
        rdip(c, gabidulin(F16, 4, 3))


def test_rdip_mrd_closed_form():
    # an MRD [4,2] outer code forces the profile [mu - n + k1]^+ for
    # mu <= n - dim c2, regardless of the subcode
    c1 = gabidulin(F16, 4, 2)
    rng = random.Random(32)
    for _ in range(5):
        u = tuple(rng.randrange(16) for _ in range(2))
        if all(x == 0 for x in u):
            continue
        c2 = LinearCode(F16, [c1.encode(u)], 4)
        table = rdip(c1, c2)
        assert table.at(0) == 0
        for mu in range(0, 4 - c2.k + 1):
            assert table.at(mu) == max(0, mu - 4 + c1.k)
        assert table.at(4) == c1.k - c2.k


def test_rgrw_mrd_closed_form_and_lemma_bridge():
    c1 = gabidulin(F16, 4, 2)
    zero = LinearCode.zero(F16, 4)
    w = rgrw(c1, zero)
    assert w.values == (3, 4)
    one_dim = LinearCode(F16, [c1.encode((1, A))], 4)
    assert rgrw(c1, one_dim).values == (3,)


def test_first_rgrw_equals_min_rank_distance():
    rng = random.Random(33)
    for _ in range(8):
        n = rng.choice([3, 4])
        k = rng.randrange(1, n)
        c, zero = rand_nested_pair(rng, F8, n, k, 0)
        assert first_rgrw(c, zero) == c.min_rank_distance(method="scan")


def test_rgrw_profile_vs_direct():
    rng = random.Random(34)
    for _ in range(6):
        c1, c2 = rand_nested_pair(rng, F8, 3, 2, 1)
        assert rgrw(c1, c2, method="profile") == rgrw(c1, c2, method="direct")


def test_rdip_independent_oracle():
    # oracle: intersect subspaces directly instead of the parity-check kernel
    rng = random.Random(35)
    for ctx in (F8, ctx_new(3, 2)):
        c1, c2 = rand_nested_pair(rng, ctx, 3, 2, 1)
        table = rdip(c1, c2)
        for i in range(4):
            best = 0
            for V in SubspaceFamily(ctx, 3, i):
                gap = c1.intersect(V).k - c2.intersect(V).k
                best = max(best, gap)
            assert best == table.at(i)


@pytest.mark.parametrize("q, m, n", [(2, 3, 4), (3, 2, 3), (3, 3, 3), (5, 2, 3)])
def test_gap_kernel_matches_intersection_dim(q, m, n):
    ctx = ctx_new(q, m)
    rng = random.Random(41 + q * m * n)
    for (k1, k2) in [(1, 0), (2, 1), (n - 1, 0), (n - 1, 1)]:
        c1, c2 = rand_nested_pair(rng, ctx, n, k1, k2)
        for kind in ("qinvariant", "coordinate"):
            engine = _PairEngine(c1, c2, kind)
            for i in range(n + 1):
                family = SubspaceFamily(ctx, n, i, kind)
                for ids, V in zip(family.bases, family, strict=True):
                    assert V.k == i
                    assert engine.gap(ids) == c1.intersect(V).k - c2.intersect(V).k


def test_intersection_dim_matches_direct():
    # brute force: C cap V has (q^m)^dim(C cap V) words, counted over V's words
    rng = random.Random(36)
    for c in (gabidulin(F16, 4, 2), rand_nested_pair(rng, ctx_new(3, 2), 4, 2, 0)[0]):
        ctx, n, dims = c.ctx, c.n, set()
        for trial in range(21):
            # V spans `trial % 3` random codewords and random words up to two rows,
            # so dim V <= 2 and every dim(C cap V) from 0 to 2 occurs
            words = trial % 3
            rows = ([c.encode([rng.randrange(ctx.order) for _ in range(c.k)]) for _ in range(words)]
                    + [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(2 - words)])
            V = LinearCode(ctx, rows, n)
            dim = c.intersect(V).k
            assert sum(c.contains_word(v) for v in V.codewords()) == ctx.order**dim
            dims.add(dim)
        assert dims == {0, 1, 2}


@pytest.mark.parametrize("ctx", [F8, ctx_new(3, 2)], ids=["F8", "F9"])
def test_duality_identity_random_triples(ctx):
    rng = random.Random(37)
    for _ in range(100):
        c1, c2 = rand_nested_pair(rng, ctx, 3, 2, rng.choice([0, 1]))
        V = LinearCode(ctx, [[rng.randrange(ctx.order) for _ in range(3)]
                             for _ in range(rng.randrange(4))], 3)
        l = c1.k - c2.k
        lhs = c1.intersect(V).k - c2.intersect(V).k
        rhs = (l
               - c2.dual().intersect(V.dual()).k
               + c1.dual().intersect(V.dual()).k)
        assert lhs == rhs


def test_hamming_side_tables():
    full = LinearCode.full(F8, 3)
    zero = LinearCode.zero(F8, 3)
    assert rdlp(full, zero).values == (0, 1, 2, 3)
    rep = LinearCode(F8, [[1, 1, 1]], 3)
    assert rghw(rep, zero).at(1) == 3
    assert rgrw(rep, zero).at(1) == 1


def test_rgrw_never_exceeds_rghw():
    rng = random.Random(38)
    for _ in range(20):
        c1, c2 = rand_nested_pair(rng, F8, 3, 2, rng.choice([0, 1]))
        rank_w = rgrw(c1, c2)
        ham_w = rghw(c1, c2)
        assert all(r <= h for r, h in zip(rank_w.values, ham_w.values))


def test_verify_bounds_all_pass():
    rng = random.Random(39)
    cases = [rand_nested_pair(rng, F8, 3, 2, 1),
             (gabidulin(F16, 4, 2), LinearCode.zero(F16, 4)),
             rand_nested_pair(rng, F8, 4, 2, 0)]
    for c1, c2 in cases:
        report = verify_bounds(c1, c2)
        assert report["all"], report


def test_small_m_distance_bound():
    # m=2 < n=4: a 1-dim code cannot beat (m-1)*1 + 1 = 2
    f4 = ctx_new(2, 2)
    rng = random.Random(40)
    for _ in range(10):
        c = LinearCode(f4, [[rng.randrange(4) for _ in range(4)]], 4)
        if c.k == 0:
            continue
        assert c.min_rank_distance(method="scan") <= 2
        report = verify_bounds(c, LinearCode.zero(f4, 4))
        assert report["distance_case_split"]
