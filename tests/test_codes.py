import random
import weakref

import pytest

from rankguard import (
    DegreeTooSmall,
    DependentPoints,
    EmptyIndexSet,
    EnumerationTooLarge,
    NotSystematizable,
    codes,
    ctx_new,
)
from rankguard.codes import LinearCode, gabidulin
from rankguard.linalg import Matrix, solve_right
from rankguard.rank_metrics import rank_weight

F16 = ctx_new(2, 4)
F32 = ctx_new(2, 5)
A = F16.alpha


def rand_code(rng, ctx, n, k):
    while True:
        rows = [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(k)]
        code = LinearCode(ctx, rows, n)
        if code.k == k:
            return code


def test_gabidulin_full_space():
    c = gabidulin(F16, 4, 4)
    assert c.k == 4
    assert c.min_rank_distance() == 1


@pytest.mark.parametrize("ctx,n,k,expect", [
    (F16, 4, 1, 4), (F16, 4, 2, 3), (F16, 4, 3, 2), (F32, 4, 2, 3),
])
def test_gabidulin_is_mrd(ctx, n, k, expect):
    c = gabidulin(ctx, n, k)
    assert c.k == k
    assert c.min_rank_distance() == expect == n - k + 1


def test_gabidulin_rejects_bad_inputs():
    with pytest.raises(DegreeTooSmall):
        gabidulin(F16, 5, 2)
    with pytest.raises(DependentPoints):
        gabidulin(F16, 2, 1, points=[1, 1])


def test_dual_is_involution_and_dims():
    rng = random.Random(21)
    for _ in range(10):
        c = rand_code(rng, F16, 4, rng.randrange(1, 4))
        d = c.dual()
        assert d.k == 4 - c.k
        assert d.dual() == c
        for u in c.gen.rows:
            for v in d.gen.rows:
                acc = 0
                for a, b in zip(u, v):
                    acc = F16.add(acc, F16.mul(a, b))
                assert acc == 0


def test_dual_is_computed_once(monkeypatch):
    c = rand_code(random.Random(24), F16, 4, 2)
    kernels = []
    right_kernel = Matrix.right_kernel
    monkeypatch.setattr(Matrix, "right_kernel",
                        lambda self: kernels.append(self) or right_kernel(self))
    d = c.dual()
    assert len(kernels) == 1
    assert c.dual() is d and len(kernels) == 1
    # a dual's dual is its source, while that lives: no second kernel
    assert d.dual() is c and len(kernels) == 1
    assert LinearCode.zero(F16, 4).dual() == LinearCode.full(F16, 4)


@pytest.mark.parametrize("ctx", [F16, ctx_new(3, 2)], ids=["F16", "F9"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_canonical_generators_are_not_eliminated_again(monkeypatch, ctx, k):
    # a canonical generator records that it is its own RREF: a fresh code's
    # dual eliminates only the kernel basis, and a code rebuilt from its
    # generator eliminates nothing
    eliminations = []
    rref = Matrix.rref

    def counting(self):
        if self._rref_cache is None:
            eliminations.append(self)
        return rref(self)

    rng = random.Random(26 + k)
    code, fresh = rand_code(rng, ctx, 4, k), rand_code(rng, ctx, 4, k)
    monkeypatch.setattr(Matrix, "rref", counting)
    assert LinearCode(code.ctx, code.gen) == code and eliminations == []
    dual = fresh.dual()
    assert len(eliminations) == 1 and dual.dual() is fresh
    # the zero code's empty generator is eliminated; the identity of its dual is canonical
    assert LinearCode.zero(ctx, 4).dual().k == 4 and len(eliminations) == 2


def test_dual_links_back_weakly():
    # the source is freed by reference counting alone (no cycle), and the
    # dual then computes its own dual again, equal by value
    c = rand_code(random.Random(25), F16, 4, 2)
    value = LinearCode(F16, c.gen)
    d = c.dual()
    assert d.dual() is c
    source = weakref.ref(c)
    del c
    assert source() is None
    again = d.dual()
    assert again == value and d.dual() is again and again.dual() is d


def test_dual_of_mrd_is_mrd():
    c = gabidulin(F16, 4, 2)
    d = c.dual()
    assert d.k == 2
    assert d.min_rank_distance() == 3


def test_puncture_identity_and_errors():
    c = gabidulin(F16, 4, 2)
    assert c.puncture(range(4)) == c
    with pytest.raises(EmptyIndexSet):
        c.puncture([])


def test_shorten_known_example():
    # binary skeleton {000,110,101,011}: shortening to the last two
    # coordinates leaves the repetition line spanned by (1, 1)
    c = LinearCode(F16, [[1, 1, 0], [1, 0, 1]], 3)
    s = c.shorten([1, 2])
    assert s.k == 1
    assert s.gen.rows == ((1, 1),)
    assert set(s.codewords()) == {(x, x) for x in F16.elements()}


def test_shorten_subset_of_puncture():
    rng = random.Random(22)
    for _ in range(10):
        c = rand_code(rng, F16, 4, 2)
        keep = sorted(rng.sample(range(4), 3))
        assert c.puncture(keep).contains(c.shorten(keep))


def test_puncture_shorten_duality():
    rng = random.Random(23)
    for _ in range(10):
        c = rand_code(rng, F16, 4, rng.randrange(1, 4))
        keep = sorted(rng.sample(range(4), rng.randrange(1, 5)))
        lhs = c.puncture(keep).dual()
        rhs = c.dual().shorten(keep)
        assert lhs == rhs


def test_systematic_form():
    c = gabidulin(F16, 4, 2)
    sysc, transform = c.systematic_form()
    assert sysc == c  # same row space
    eye = sysc.gen.submatrix(cols=range(2))
    assert eye == Matrix.identity(F16, 2)
    assert transform.matmul(c.gen) == sysc.gen
    bad = LinearCode(F16, [[0, 1, 0], [0, 0, 1]], 3)
    with pytest.raises(NotSystematizable):
        bad.systematic_form()


def test_contains():
    c1 = gabidulin(F16, 4, 3)
    c2 = gabidulin(F16, 4, 1)
    assert c1.contains(c2)
    assert not c2.contains(c1)
    assert c1.contains(LinearCode.zero(F16, 4))


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_contains_matches_row_by_row(q, m):
    # the parity-check test against solving x G = row for each generator row,
    # over random codes, subcodes of them, the zero code and the full space
    ctx, n = ctx_new(q, m), 4
    rng = random.Random(50 + q)
    codes = [LinearCode.zero(ctx, n), LinearCode.full(ctx, n)]
    for k in (1, 2, 3):
        code = rand_code(rng, ctx, n, k)
        words = [code.encode([rng.randrange(ctx.order) for _ in range(k)]) for _ in range(k - 1)]
        codes += [code, LinearCode(ctx, words, n)]
    outcomes = set()
    for a in codes:
        for b in codes:
            expect = all(solve_right(a.gen, row) is not None for row in b.gen.rows)
            assert a.contains(b) == expect
            outcomes.add((expect, b.k > 0 and a.k < n))
    assert outcomes == {(True, True), (False, True), (True, False)}


@pytest.mark.parametrize("q, m", [(2, 3), (3, 2)])
@pytest.mark.parametrize("k", range(4))
def test_contains_word_matches_solve_right(q, m, k):
    # the syndrome test against solving x G = v, on random words and on
    # codewords, from the zero code (k = 0) to the full space (k = n)
    ctx, n = ctx_new(q, m), 3
    rng = random.Random(10 * q + k)
    code = rand_code(rng, ctx, n, k)
    words = [tuple(rng.randrange(ctx.order) for _ in range(n)) for _ in range(40)]
    words += [code.encode([rng.randrange(ctx.order) for _ in range(k)]) for _ in range(10)]
    outcomes = {code.contains_word(v) for v in words}
    assert outcomes == ({True} if k == n else {True, False})
    for v in words:
        assert code.contains_word(v) == (solve_right(code.gen, v) is not None)


def test_min_rank_distance_refuses_past_scan_cap(monkeypatch):
    # the scan goes through codewords(), so it refuses before the first
    # codeword instead of running through 2^32 of them
    with pytest.raises(EnumerationTooLarge):
        gabidulin(ctx_new(2, 16), 4, 2).min_rank_distance()
    c = gabidulin(F16, 4, 2)
    monkeypatch.setattr(codes, "DEFAULT_SCAN_CAP", c.codeword_count() - 1)
    with pytest.raises(EnumerationTooLarge):
        c.min_rank_distance()


def test_zero_code_and_full_code():
    z = LinearCode.zero(F16, 3)
    assert z.k == 0 and list(z.codewords()) == [(0, 0, 0)]
    f = LinearCode.full(F16, 2)
    assert f.k == 2
    assert f.dual() == LinearCode.zero(F16, 2)


def test_code_json_roundtrip():
    c = gabidulin(F16, 4, 2)
    data = c.to_json()
    again = LinearCode.from_json(data)
    assert again == c and again.ctx == F16


def test_rank_weight_of_codeword_rows():
    c = gabidulin(F16, 4, 2)
    for row in c.gen.rows:
        assert rank_weight(F16, row) >= c.min_rank_distance()
