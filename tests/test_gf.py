from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from rankguard import DivisionByZero, NotIrreducible, PreconditionError, UnsupportedSize, ctx_new
from rankguard.gf import FieldCtx, is_prime, poly_is_irreducible, smallest_irreducible
from rankguard.linalg import rank_of_rows

F16 = ctx_new(2, 4, [1, 1, 0, 0, 1])


def test_ctx_new_standard_f16():
    assert F16.order == 16
    assert F16.alpha == 2


def test_ctx_new_degree_one():
    ctx = ctx_new(2, 1, [1, 1])
    assert ctx.order == 2
    assert ctx.mul(1, 1) == 1


def test_ctx_new_rejects_reducible():
    # (x^2+x+1)^2 = x^4+x^2+1 over F_2
    with pytest.raises(NotIrreducible):
        ctx_new(2, 4, [1, 0, 1, 0, 1])


def test_ctx_new_rejects_oversize():
    with pytest.raises(UnsupportedSize):
        ctx_new(2, 17)
    # refused at once, before a primality test on q or the power q^m
    with pytest.raises(UnsupportedSize):
        ctx_new(2**61 - 1, 1)
    with pytest.raises(UnsupportedSize):
        ctx_new(2, 10**12, [1, 1])


@pytest.mark.parametrize("m", [0, -1])
def test_ctx_new_rejects_degree_below_one(m):
    with pytest.raises(PreconditionError, match="must be >= 1"):
        ctx_new(2, m)


def test_default_moduli_all_irreducible():
    # the default modulus is the smallest irreducible, found by search
    for m in range(1, 17):
        mod = smallest_irreducible(2, m)
        assert len(mod) == m + 1 and mod[-1] == 1 and poly_is_irreducible(mod, 2), m
    assert smallest_irreducible(2, 4) == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert smallest_irreducible(2, 8) == (1, 1, 0, 1, 1, 0, 0, 0, 1)  # x^8 + x^4 + x^3 + x + 1
    for m in range(1, 9):
        assert ctx_new(2, m).modulus == smallest_irreducible(2, m)


def test_f16_known_products():
    a = F16.alpha
    a3 = F16.pow(a, 3)
    a2 = F16.pow(a, 2)
    # alpha^5 = alpha^2 + alpha once alpha^4 = alpha + 1 is substituted
    assert F16.mul(a3, a2) == F16.add(a2, a)


def test_frobenius_f16():
    a = F16.alpha
    assert F16.frobenius(a, 1) == F16.mul(a, a)
    assert F16.frobenius(a, 4) == a
    assert F16.frobenius(a, 0) == a


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        F16.inv(0)


def test_coeffs_roundtrip():
    for a in F16.elements():
        assert F16.from_coeffs(F16.coeffs(a)) == a


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_field_axioms_f16(a, b, c):
    assert F16.add(a, b) == F16.add(b, a)
    assert F16.mul(a, b) == F16.mul(b, a)
    assert F16.mul(a, F16.add(b, c)) == F16.add(F16.mul(a, b), F16.mul(a, c))
    assert F16.mul(F16.mul(a, b), c) == F16.mul(a, F16.mul(b, c))
    assert F16.add(a, a) == 0  # characteristic 2
    assert F16.mul(a, 1) == a


@given(st.integers(1, 15))
def test_inverse_and_group_order(a):
    assert F16.mul(a, F16.inv(a)) == 1
    assert F16.pow(a, 15) == 1


@given(st.integers(0, 15), st.integers(0, 15))
def test_frobenius_is_additive_and_multiplicative(a, b):
    fa, fb = F16.frobenius(a), F16.frobenius(b)
    assert F16.frobenius(F16.add(a, b)) == F16.add(fa, fb)
    assert F16.frobenius(F16.mul(a, b)) == F16.mul(fa, fb)


@settings(max_examples=30)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_f27(a, b, c):
    f27 = ctx_new(3, 3)
    assert f27.mul(a, f27.add(b, c)) == f27.add(f27.mul(a, b), f27.mul(a, c))
    assert f27.sub(a, a) == 0
    if a:
        assert f27.mul(a, f27.inv(a)) == 1
    assert f27.frobenius(f27.add(a, b)) == f27.add(f27.frobenius(a), f27.frobenius(b))
    assert f27.frobenius(a, 3) == a


# -- Zech-logarithm addition against the digit-wise reference -----------------

#: Every odd-characteristic field of order <= 3^5 with its default modulus,
#: and x^2 + 1 over F_3, where x has order 4 and the generator search moves on.
ZECH_FIELDS = [(3, m, None) for m in range(1, 6)] + [(5, m, None) for m in range(1, 4)] + [
    (7, 1, None), (7, 2, None), (11, 1, None), (13, 1, None), (3, 2, (1, 0, 1))]


def _digitwise(ctx, a, b, sign):
    """a + sign*b coefficient by coefficient: the reference for add and sub."""
    return ctx.from_coeffs([x + sign * y for x, y in zip(ctx.coeffs(a), ctx.coeffs(b))])


@cache
def _ctx(q, m, modulus=None):
    return ctx_new(q, m, modulus)


@pytest.mark.parametrize("q,m,modulus", ZECH_FIELDS)
def test_zech_arithmetic_matches_digitwise_on_every_pair(q, m, modulus):
    ctx = _ctx(q, m, modulus)
    for a in ctx.elements():
        assert ctx.neg(a) == ctx.from_coeffs([-x for x in ctx.coeffs(a)]), a
        for b in ctx.elements():
            assert ctx.add(a, b) == _digitwise(ctx, a, b, 1), (a, b)
            assert ctx.sub(a, b) == _digitwise(ctx, a, b, -1), (a, b)


@settings(max_examples=200)
@given(st.sampled_from([(3, 10), (5, 6)]), st.data())
def test_zech_arithmetic_matches_digitwise_on_large_fields(qm, data):
    ctx = _ctx(*qm)
    a, b = data.draw(st.integers(0, ctx.order - 1)), data.draw(st.integers(0, ctx.order - 1))
    assert ctx.add(a, b) == _digitwise(ctx, a, b, 1)
    assert ctx.sub(a, b) == _digitwise(ctx, a, b, -1)
    assert ctx.neg(a) == _digitwise(ctx, 0, a, -1)


# -- generator choice against the order walk ----------------------------------

def _order_by_walk(ctx, a):
    steps, acc = 1, a
    while acc != 1:
        acc = ctx._raw_mul(acc, a)
        steps += 1
    return steps


#: Every field of order <= 3^5 with its default modulus, and x^2 + 1 over F_3.
GENERATOR_FIELDS = [(q, m, None) for q in range(2, 244) if is_prime(q)
                    for m in range(1, 8) if q**m <= 3**5] + [(3, 2, (1, 0, 1))]


@pytest.mark.parametrize("q,m,modulus", GENERATOR_FIELDS)
def test_generator_is_first_candidate_of_full_order(q, m, modulus):
    ctx = _ctx(q, m, modulus)
    group = ctx.order - 1
    gen = ctx._exp[1]
    if group == 1:
        assert gen == 1
        return
    candidates = [c for c in [q % ctx.order, *range(2, ctx.order)] if c not in (0, 1)]
    assert _order_by_walk(ctx, gen) == group
    for c in candidates[:candidates.index(gen)]:
        assert _order_by_walk(ctx, c) < group, c


# -- the digit path stays out of the arithmetic --------------------------------

def test_arithmetic_does_not_convert_digits(monkeypatch):
    ctx = _ctx(3, 4)
    pairs = [(a, b) for a in range(0, ctx.order, 7) for b in range(0, ctx.order, 5)]
    sums = [_digitwise(ctx, a, b, 1) for a, b in pairs]
    diffs = [_digitwise(ctx, a, b, -1) for a, b in pairs]
    negs = [_digitwise(ctx, 0, a, -1) for a, _ in pairs]
    # rows 0, 1 and 3 are in echelon form; row 2 = a*row0 - row1 adds nothing
    r0, r1, r3 = (1, 0, 5, 17, 40), (0, 1, 33, 2, 80), (0, 0, 0, 1, 9)
    a = ctx.alpha
    r2 = tuple(_digitwise(ctx, ctx.mul(a, x), y, -1) for x, y in zip(r0, r1))
    rows = [r2, r0, r3, r1]

    def refuse(*_):
        raise AssertionError("digit conversion in field arithmetic")

    monkeypatch.setattr(FieldCtx, "coeffs", refuse)
    monkeypatch.setattr(FieldCtx, "from_coeffs", refuse)
    assert [ctx.add(a, b) for a, b in pairs] == sums
    assert [ctx.sub(a, b) for a, b in pairs] == diffs
    assert [ctx.neg(a) for a, _ in pairs] == negs
    assert rank_of_rows(ctx, rows) == 3
