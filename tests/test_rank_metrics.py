import itertools
import os
import random
from fractions import Fraction
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rankguard import (AmbientMismatch, EnumerationTooLarge, LengthMismatch, NotASubcode,
                       PreconditionError, ctx_new, rank_metrics, subspaces)
from rankguard.bitrank import pack_key
from rankguard.codes import LinearCode, gabidulin
from rankguard.linalg import Matrix, embed_base_matrix, expand_to_base, vec_mat
from rankguard.rank_metrics import (
    ProfileTable,
    _PairEngine,
    first_rgrw,
    rank_distance,
    rank_weight,
    rdip,
    rdlp,
    rghw,
    rgrw,
    weights_from_profile,
)
from rankguard.subspaces import SubspaceFamily, row_digits

from frobenius import galois_closure

F16 = ctx_new(2, 4)
F8 = ctx_new(2, 3)
F81 = ctx_new(3, 4)
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
        assert first_rgrw(c, zero) == c.min_rank_distance()


@pytest.mark.parametrize("q, m, n", [(2, 3, 3), (2, 4, 4), (2, 3, 5), (3, 2, 3), (3, 2, 4),
                                     (3, 2, 5), (5, 2, 3), (5, 2, 4), (5, 1, 4)])
def test_rgrw_profile_vs_direct(q, m, n):
    # the bounded search against the full scans: rgrw(method="direct") and a
    # plain maximum of the gap over every basis of every level
    ctx = ctx_new(q, m)
    rng = random.Random(34 + q * m * n)
    for k1, k2 in [(1, 0), (2, 1), (n - 1, 0), (n - 1, n - 3)]:
        c1, c2 = rand_nested_pair(rng, ctx, n, k1, k2)
        for kind in ("qinvariant", "coordinate"):
            profile = rdip(c1, c2, family=kind)
            engine = _PairEngine(c1, c2, kind)
            assert profile.values == tuple(
                max(map(engine.gap, SubspaceFamily(ctx, n, i, kind).bases)) for i in range(n + 1))
            direct = rgrw(c1, c2, family=kind, method="direct")
            assert rgrw(c1, c2, family=kind) == weights_from_profile(profile) == direct


@pytest.mark.parametrize("q, m, n", [(2, 4, 4), (3, 2, 4), (5, 2, 3)])
def test_profile_witnesses(q, m, n):
    # each level's witness spans an i-dim member of its family realizing K_i,
    # and it is the first basis in the family's order that does
    ctx = ctx_new(q, m)
    rng = random.Random(43 + q * m * n)
    pairs = [rand_nested_pair(rng, ctx, n, 2, 0), rand_nested_pair(rng, ctx, n, n - 1, 1),
             (LinearCode.full(ctx, n), LinearCode.zero(ctx, n))]
    for c1, c2 in pairs:
        for kind in ("qinvariant", "coordinate"):
            table = rdip(c1, c2, family=kind)
            engine = _PairEngine(c1, c2, kind)
            assert len(table.witnesses) == n + 1
            for i, (ids, k) in enumerate(zip(table.witnesses, table.values)):
                V = LinearCode(ctx, [row_digits(b, q, n) for b in ids], n)
                assert V.k == i
                assert c1.intersect(V).k - c2.intersect(V).k == k
                bases = SubspaceFamily(ctx, n, i, kind).bases
                assert ids == next(b for b in bases if engine.gap(b) == k)
            # equality and repr ignore the witnesses
            assert table == ProfileTable(table.kind, table.values)
            assert repr(table) == repr(ProfileTable(table.kind, table.values))


def test_bounded_search_skips_bases(monkeypatch):
    # [4,2] MRD against {0}: K = 0, 0, 0, 1, 2.  No V of dim <= 2 meets the
    # code (its first weight is 3), so levels 1 and 2 rank C1 on every basis
    # but C2 only on the first, where dim(C1 cap V) = 0 beats the start of -1;
    # every 3-dim V meets the code (dim >= 2 + 3 - 4), so level 3 stops at
    # its first basis
    visited = {"cols1": [], "cols2": []}

    class CountingEngine(rank_metrics._PairEngine):
        def __init__(self, *args):
            super().__init__(*args)
            for name, seen in visited.items():
                cols = getattr(self, name)
                cols.rank = lambda ids, rank=cols.rank, seen=seen: seen.append(ids) or rank(ids)

    monkeypatch.setattr(rank_metrics, "_PairEngine", CountingEngine)
    assert rdip(gabidulin(F16, 4, 2), LinearCode.zero(F16, 4)).values == (0, 0, 0, 1, 2)
    family_sizes = [SubspaceFamily(F16, 4, i).count for i in range(5)]
    assert len(visited["cols1"]) == sum(family_sizes[:3]) + 1 + 1 == 1 + 15 + 35 + 1 + 1
    assert len(visited["cols2"]) == 5  # once per level


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_suffix_echelons_match_rref(q, m):
    # one code's memo ranks a stream of bases against rank(H B^T) by RREF:
    # canonical families (row 0 fastest, suffixes shared), coordinate
    # families (last row fastest), the two interleaved, repeats, and random
    # ids (zero and repeated rows too) of changing length, some walking
    # from one basis to the next by changing one row
    ctx, n = ctx_new(q, m), 4
    rng = random.Random(47 + q)
    code, _ = rand_nested_pair(rng, ctx, n, 2, 0)
    parity = code.dual().gen

    def families(kind):
        return [ids for i in range(n + 1) for ids in SubspaceFamily(ctx, n, i, kind).bases]

    canonical, coordinate = families("qinvariant"), families("coordinate")
    interleaved = [ids for pair in zip(SubspaceFamily(ctx, n, 2).bases,
                                       SubspaceFamily(ctx, n, 2, "coordinate").bases)
                   for ids in pair]
    randoms = [tuple(rng.randrange(q**n) for _ in range(rng.randrange(n + 2)))
               for _ in range(100)]
    walk = [tuple(rng.randrange(q**n) for _ in range(3))]
    for _ in range(100):
        ids = list(walk[-1])
        ids[rng.randrange(3)] = rng.randrange(q**n)
        walk.append(tuple(ids))
    repeats = [ids for ids in randoms[:20] + canonical[-5:] for _ in range(2)]
    cols = rank_metrics._Columns(code)
    for ids in canonical + coordinate + interleaved + randoms + walk + repeats + canonical:
        B = embed_base_matrix(ctx, Matrix(ctx.base, [row_digits(b, q, n) for b in ids], n))
        assert cols.rank(ids) == parity.matmul(B.transpose()).rref()[1], ids


def _id_streams(rng, ctx, n):
    """Row-id tuples of every basis of both families, then random ids (zero
    and repeated rows too) of changing length, empty included."""
    q = ctx.q
    bases = [ids for kind in ("qinvariant", "coordinate")
             for i in range(n + 1) for ids in SubspaceFamily(ctx, n, i, kind).bases]
    return bases + [tuple(rng.randrange(q**n) for _ in range(rng.randrange(n + 2)))
                    for _ in range(100)]


@pytest.mark.parametrize("m, n", [(2, 4), (3, 4), (4, 5), (9, 5)])
def test_packed_ranks_match_any_q_path(m, n):
    # the q = 2 kernel against the any-q suffix echelons on every basis, for
    # C2 = {0}, C1 = full and random codes; at m = 9, n - k = 4 parity rows
    # make 36-bit keys.  Each key is alpha^a times a column, packed, and each
    # witness's gap is intersect's
    ctx = ctx_new(2, m)
    rng = random.Random(71 + m * n)
    pairs = [(LinearCode.full(ctx, n), LinearCode.zero(ctx, n)),
             rand_nested_pair(rng, ctx, n, 1, 0), rand_nested_pair(rng, ctx, n, n - 1, 1),
             rand_nested_pair(rng, ctx, n, 2, 1)]
    streams = _id_streams(rng, ctx, n)
    powers = [ctx.pow(ctx.alpha, a) for a in range(m)]
    for c1, c2 in pairs:
        for code in (c1, c2):
            packed, reference = rank_metrics._PackedColumns(code), rank_metrics._Columns(code)
            for ids in streams:
                assert packed.rank(ids) == reference.rank(ids), (code.k, ids)
            for b, keys in code.parity_keys.items():
                assert keys == tuple(pack_key([ctx.mul(p, x) for x in code.parity_columns[b]], m)
                                     for p in powers)
        for kind in ("qinvariant", "coordinate"):
            profile = rdip(c1, c2, family=kind)
            for i, ids in enumerate(profile.witnesses):
                V = LinearCode(ctx, [row_digits(b, 2, n) for b in ids], n)
                assert c1.intersect(V).k - c2.intersect(V).k == profile.at(i)


def test_packed_keys_refuse_odd_q():
    with pytest.raises(PreconditionError, match="packed parity keys need q = 2"):
        LinearCode.full(ctx_new(3, 2), 2).parity_keys


@pytest.mark.parametrize("q, m", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_wei_duality_of_rank_weights(q, m):
    # an independent reference for the profiles (Jurrius and Pellikaan
    # 2017): with C2 = {0}, the weights M_j(C) and n + 1 - M_j(C dual)
    # partition 1..n
    ctx = ctx_new(q, m)
    rng = random.Random(79 + q * m)
    for _ in range(12):
        n = rng.randrange(2, 6)
        code, zero = rand_nested_pair(rng, ctx, n, rng.randrange(1, n), 0)
        primal = rgrw(code, zero).values
        dual = tuple(n + 1 - w for w in rgrw(code.dual(), zero).values)
        assert sorted(primal + dual) == list(range(1, n + 1)), (code.gen, primal, dual)


def _lowest_digit(row_id: int, q: int) -> int:
    while row_id % q == 0:
        row_id //= q
    return row_id % q


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2), (7, 1)])
def test_parity_columns_match_vec_mat(q, m):
    # every row id, asked for in random order, against x H^T, with k = 0
    # (H = I) and k = n (no parity rows) among the codes
    ctx, n = ctx_new(q, m), 3
    rng = random.Random(53 + q)
    codes = [LinearCode.zero(ctx, n), LinearCode.full(ctx, n)]
    codes += [rand_nested_pair(rng, ctx, n, k, 0)[0] for k in (1, 2)]
    for code in codes:
        parity_t = code.dual().gen.transpose()
        table = code.parity_columns
        ids = list(range(q**n))
        rng.shuffle(ids)
        for b in ids:
            assert table[b] == vec_mat(ctx, row_digits(b, q, n), parity_t), (code.k, b)
        assert len(table) == q**n
        assert code.parity_columns is table  # one table per code


@pytest.mark.parametrize("family", ["qinvariant", "coordinate"])
def test_refused_profile_builds_no_column_table(monkeypatch, family):
    # every level is admitted before a column is read, so a family past the
    # cap fills nothing beyond T[0]
    c1, c2 = LinearCode.full(F16, 4), LinearCode.zero(F16, 4)
    # past the cap: the 15 one-dim q-invariant subspaces, the C(4, 2) = 6 coordinate ones
    monkeypatch.setattr(subspaces, "DEFAULT_ENUM_CAP", 5)
    with pytest.raises(EnumerationTooLarge, match=f"{family} subspaces exceed cap 5"):
        rdip(c1, c2, family=family)
    assert len(c1.parity_columns) == len(c2.parity_columns) == 1
    assert len(c1.parity_keys) == len(c2.parity_keys) == 1  # the q = 2 table too


@pytest.mark.parametrize("q, m, n, whole", [(7, 2, 3, True), (251, 1, 3, False)])
def test_large_q_builds_no_column_table(q, m, n, whole):
    # rows are filled from their top-digit prefixes, which keep the lowest
    # nonzero digit, so q-invariant bases (leading digit 1) fill at most the
    # (q^n - 1)/(q - 1) + 1 such ids of the q^n (at q = 251, n = 3: 63,253
    # of 15,813,251), and coordinate subspaces the n + 1 unit ids and 0
    ctx = ctx_new(q, m)
    rng = random.Random(67 + q)
    c1, c2 = rand_nested_pair(rng, ctx, n, 2, 1)
    if whole:  # small enough to profile in full
        profile = rdip(c1, c2)
        assert weights_from_profile(profile) == rgrw(c1, c2, method="direct")
        for i, ids in enumerate(profile.witnesses):
            V = LinearCode(ctx, [row_digits(b, q, n) for b in ids], n)
            assert c1.intersect(V).k - c2.intersect(V).k == profile.at(i)
    engine = _PairEngine(c1, c2, "qinvariant")
    family = SubspaceFamily(ctx, n, 2)
    for ids, V in itertools.islice(zip(family.bases, family), 200):
        assert engine.gap(ids) == c1.intersect(V).k - c2.intersect(V).k
    for code in (c1, c2):
        filled = set(code.parity_columns) - {0}
        assert all(_lowest_digit(b, q) == 1 for b in filled)
        assert len(filled) + 1 <= (q**n - 1) // (q - 1) + 1
    d1, d2 = rand_nested_pair(rng, ctx, n, 2, 1)
    rdlp(d1, d2)
    for code in (d1, d2):
        assert set(code.parity_columns) == {0} | {q**j for j in range(n)}


def _counting_engines(monkeypatch) -> list:
    built = []

    class CountingEngine(rank_metrics._PairEngine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rank_metrics, "_PairEngine", CountingEngine)
    return built


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_memo_hit_equals_cold_profile(monkeypatch, q, m):
    # a repeat, on equal codes built afresh, builds no engine and returns the
    # table of a cold profile, witnesses included
    ctx, n = ctx_new(q, m), 3
    rng = random.Random(59 + q)
    c1, c2 = rand_nested_pair(rng, ctx, n, 2, 1)
    built, memo = _counting_engines(monkeypatch), rank_metrics._profiles
    for kind in ("qinvariant", "coordinate"):
        memo.clear()
        cold = rdip(c1, c2, family=kind)
        assert (memo.hits, memo.misses, len(built)) == (0, 1, 1)
        same1, same2 = LinearCode(ctx, c1.gen.rows, n), LinearCode(ctx, c2.gen.rows, n)
        hit = rdip(same1, same2, family=kind)
        assert rgrw(c1, c2, family=kind) == weights_from_profile(cold)
        assert (memo.hits, memo.misses, len(built)) == (2, 1, 1)
        memo.clear()
        fresh = rdip(c1, c2, family=kind)
        assert hit == fresh and hit.witnesses == fresh.witnesses == cold.witnesses
        built.clear()


@pytest.mark.parametrize("family", ["qinvariant", "coordinate"])
def test_memo_checks_the_pair_on_every_call(family):
    # the same integer rows over two moduli of F_16 are different codes: a
    # profile over one field answers nothing over the other, and a pair that
    # is not nested raises on every call
    f16, other = ctx_new(2, 4), ctx_new(2, 4, [1, 0, 0, 1, 1])
    c1 = gabidulin(f16, 4, 2)
    c2 = LinearCode(f16, [c1.encode((1, f16.alpha))], 4)
    moved1, moved2 = LinearCode(other, c1.gen.rows, 4), LinearCode(other, c2.gen.rows, 4)
    table = rdip(c1, c2, family=family)
    for _ in range(2):
        with pytest.raises(AmbientMismatch):
            rdip(c1, moved2, family=family)
        with pytest.raises(AmbientMismatch):
            rdip(moved1, c2, family=family)
        with pytest.raises(NotASubcode):
            rdip(c1, LinearCode(f16, [[1, 0, 0, 0]], 4), family=family)
        assert rdip(c1, c2, family=family) == table
    # a pair of base-field rows is nested over both fields: two tables
    full, ones = LinearCode.full(f16, 4), LinearCode(f16, [[1, 1, 1, 1]], 4)
    moved_full, moved_ones = LinearCode.full(other, 4), LinearCode(other, [[1, 1, 1, 1]], 4)
    misses = rank_metrics._profiles.misses
    assert rdip(moved_full, moved_ones, family=family) == rdip(full, ones, family=family)
    assert rank_metrics._profiles.misses == misses + 2


def test_memo_keeps_no_code():
    # the memo holds keys and tables only: the codes and their duals are
    # freed by reference counting once the caller drops them
    c1 = gabidulin(F16, 4, 2)
    c2 = LinearCode(F16, [c1.encode((1, A))], 4)
    rdip(c1, c2)
    rgrw(c1, c2)
    rdlp(c1, c2)
    refs = [weakref.ref(c) for c in (c1, c2, c1.dual(), c2.dual())]
    del c1, c2
    assert [ref() for ref in refs] == [None] * 4
    assert len(rank_metrics._profiles) == 2


def test_memo_stays_at_its_bound():
    memo = rank_metrics._profiles
    assert isinstance(memo.size, int) and memo.size > 0
    f4 = ctx_new(2, 2)
    rng = random.Random(61)
    pairs = [rand_nested_pair(rng, f4, 3, 2, 0) for _ in range(3 * memo.size)]
    distinct = list({(c1, c2): (c1, c2) for c1, c2 in pairs}.values())
    assert len(distinct) > memo.size + 1
    for c1, c2 in distinct:
        rdip(c1, c2)
        assert len(memo) <= memo.size
    assert len(memo) == memo.size
    assert (memo.hits, memo.misses) == (0, len(distinct))
    rdip(*distinct[-1])  # the most recent pair is kept
    rdip(*distinct[0])  # the oldest was evicted
    assert (memo.hits, memo.misses) == (1, len(distinct) + 1)


def test_rank_weight_matches_expansion_rank():
    # the q > 2 rank weight ranks the coefficient rows directly
    for ctx in (ctx_new(3, 2), ctx_new(5, 2)):
        for length in range(4):
            for x in itertools.product(range(ctx.order), repeat=length):
                assert rank_weight(ctx, x) == expand_to_base(ctx, x).rank()


@given(st.lists(st.integers(0, 80), max_size=6))
def test_rank_weight_matches_expansion_rank_f81(x):
    assert rank_weight(F81, x) == expand_to_base(F81, x).rank()


FAULT_SCRIPT = """
from rankguard import InvariantViolated, ctx_new, rank_metrics
from rankguard.codes import LinearCode, gabidulin
from rankguard.subspaces import SubspaceFamily

ctx = ctx_new(2, 4)
c1, c2 = gabidulin(ctx, 4, 2), LinearCode.zero(ctx, 4)
truth = rank_metrics.rdip(c1, c2).values
rank_metrics._profiles.clear()  # profile the pair afresh with the faulty engine
target = next(iter(SubspaceFamily(ctx, 4, 2).bases))


class FaultyEngine(rank_metrics._PairEngine):
    # the first basis of level 2 reports a gap of K_1 + 2
    def __init__(self, *args):
        super().__init__(*args)
        rank1, rank2 = self.cols1.rank, self.cols2.rank
        self.cols1.rank = lambda ids: rank2(ids) - truth[1] - 2 if ids == target else rank1(ids)


rank_metrics._PairEngine = FaultyEngine
try:
    rank_metrics.rdip(c1, c2)
except InvariantViolated as exc:
    print("InvariantViolated:", exc)
"""


def _run_script(script: str, flags=()) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_gap_above_unit_step_raises(flags):
    assert _run_script(FAULT_SCRIPT, flags) == (
        "InvariantViolated: gap 2 at level 2 exceeds the unit-step bound 1\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_raising_profile_is_not_memoized(flags):
    # the faulty engine raises, so nothing is stored: a second call profiles
    # the pair again and raises again
    script = FAULT_SCRIPT + """
try:
    rank_metrics.rdip(c1, c2)
except InvariantViolated as exc:
    print("again:", exc)
print(rank_metrics._profiles.hits, rank_metrics._profiles.misses, len(rank_metrics._profiles))
"""
    assert _run_script(script, flags) == (
        "InvariantViolated: gap 2 at level 2 exceeds the unit-step bound 1\n"
        "again: gap 2 at level 2 exceeds the unit-step bound 1\n"
        "0 2 0\n")


RESIDENT_SCRIPT = """
import gc
import tracemalloc

from rankguard import ctx_new, rank_metrics
from rankguard.codes import gabidulin

ctx = ctx_new(2, 6)
c1, c2 = gabidulin(ctx, 6, 3), gabidulin(ctx, 6, 1)
c1.dual(), c2.dual()  # each code keeps its dual
tracemalloc.start()
print(rank_metrics.rdip(c1, c2).values)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_no_family_resident_after_rdip():
    # the seven families of n = 6 hold 2825 bases; a profile streams them and
    # keeps none once it returns
    values, retained = _run_script(RESIDENT_SCRIPT).splitlines()
    assert values == "(0, 0, 0, 0, 1, 2, 2)"
    assert int(retained) < 64 * 1024


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


@pytest.mark.parametrize("q, m, n", [(2, 2, 3), (2, 3, 3), (2, 2, 4), (3, 2, 3)])
def test_every_weight_is_a_least_galois_closure(q, m, n):
    # M_j(C1, C2) is the least dim of the Galois closure of a j-dim D in C1
    # with D cap C2 = {0}: the closure is q-invariant and gains j over C2,
    # and any V that gains j holds such a D.  Every D is taken as the span
    # of the codewords of an RREF message basis over F_{q^m}, with no gap code
    ctx = ctx_new(q, m)
    order = ctx.order
    rng = random.Random(73 + q * m * n)
    for k1, k2 in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (n, 1)]:
        c1, c2 = rand_nested_pair(rng, ctx, n, k1, k2)
        least = []
        for j in range(1, k1 - k2 + 1):
            closures = []
            for ids in subspaces.base_subspace_ids(order, k1, j):
                D = LinearCode(ctx, [c1.encode(row_digits(b, order, k1)) for b in ids], n)
                if D.sum_with(c2).k == j + k2:
                    closures.append(galois_closure(D).k)
            least.append(min(closures))
        assert rgrw(c1, c2).values == tuple(least), (k1, k2)


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


def verify_bounds(c1: LinearCode, c2: LinearCode) -> dict:
    """Check every structural bound the weights must satisfy; all should pass
    for any correctly computed pair, so a failure flags an implementation bug.
    The profile's endpoints and unit steps, and strictly increasing weights,
    are not reported: rdip and weights_from_profile raise on them."""
    ctx = c1.ctx
    n, m = c1.n, ctx.m
    profile = rdip(c1, c2)
    weights = weights_from_profile(profile)
    l = c1.k - c2.k
    report: dict[str, bool] = {}
    cap_term = min(n - c1.k, (m - 1) * l)
    report["generalized_singleton"] = all(
        weights.at(i) <= cap_term + i for i in range(1, l + 1))
    # first-weight refinement with the m(n-k1)/(n-k2) term, compared exactly
    extra = Fraction(m * (n - c1.k), n - c2.k)
    report["first_weight_bound"] = Fraction(weights.at(1) - 1) <= min(
        Fraction(cap_term), extra)
    if c2.k == 0 and m >= 2:
        d = weights.at(1)
        k = c1.k
        if n <= m:
            ok = d <= n - k + 1
        elif k == 1:
            ok = d <= (m - 1) * k + 1
        else:
            ok = Fraction(d - 1) <= Fraction(m * (n - k), n)
        report["distance_case_split"] = ok
    report["all"] = all(report.values())
    return report


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
        assert c.min_rank_distance() <= 2
        report = verify_bounds(c, LinearCode.zero(f4, 4))
        assert report["distance_case_split"]
