import pytest
from hypothesis import given, settings, strategies as st

from rankguard import DivisionByZero, NotIrreducible, PreconditionError, UnsupportedSize, ctx_new
from rankguard.gf import DEFAULT_MODULI_GF2, poly_is_irreducible, smallest_irreducible

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
    for m, mod in DEFAULT_MODULI_GF2.items():
        assert poly_is_irreducible(mod, 2), m
        assert smallest_irreducible(2, m) == mod


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
