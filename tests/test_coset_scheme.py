import random

import numpy as np
import pytest

from rankguard import (BadDimensions, DegreeMismatch, DimensionMismatch, PacketTooShort,
                       PreconditionError, coset_scheme, ctx_new)
from rankguard.coset_scheme import LiftedScheme, NestedScheme, build_proposed, lift
from rankguard.codes import LinearCode
from rankguard.linalg import Matrix, expand_to_base, vec_sub
from rankguard.rank_metrics import rank_weight
from schemes import random_scheme

F16 = ctx_new(2, 4)
F64 = ctx_new(2, 6)


def flagship():
    return build_proposed(F16, l=1, n=3, k=2)


def test_build_proposed_dimensions():
    s = flagship()
    assert (s.c1.k, s.c2.k, s.l) == (2, 1, 1)
    s2 = build_proposed(F64, l=2, n=4, k=3)
    assert (s2.c1.k, s2.c2.k) == (3, 1)


def test_build_proposed_rejects_short_packets_and_bad_dims():
    with pytest.raises(PacketTooShort):
        build_proposed(ctx_new(2, 3), l=1, n=3, k=2)
    with pytest.raises(BadDimensions):
        build_proposed(F16, l=2, n=3, k=1)
    with pytest.raises(BadDimensions):
        build_proposed(F16, l=1, n=2, k=3)


def test_component_codes_are_mrd():
    s = flagship()
    assert s.c1.min_rank_distance() == 3 - 2 + 1
    assert s.c2.min_rank_distance() == 3 - 1 + 1
    assert s.c1.contains(s.c2)


def test_encode_lands_in_the_right_coset():
    s = flagship()
    rng = random.Random(51)
    for _ in range(30):
        S = tuple(rng.randrange(16) for _ in range(s.l))
        X = s.encode(S, rng)
        assert s.c1.contains_word(X)
        diff = vec_sub(s.ctx, X, s.representative(S))
        assert s.c2.contains_word(diff)
        assert s.decode_message_of(X) == S


def test_zero_subcode_makes_encode_deterministic():
    s = build_proposed(ctx_new(2, 5), l=1, n=4, k=1)
    assert s.c2.k == 0
    rng = random.Random(52)
    S = (7,)
    assert s.encode(S, rng) == s.representative(S)
    assert s.encode((0,), rng) == (0, 0, 0, 0)


def test_psi_is_bijective():
    s = flagship()
    for S in s.messages():
        assert all(s.decode_message_of(x) == S for x in s.coset_elements(S))


def test_coset_label_constant_on_cosets():
    s = flagship()
    rng = random.Random(53)
    for _ in range(10):
        S = tuple(rng.randrange(16) for _ in range(1))
        assert all(s.decode_message_of(x) == S for x in s.coset_elements(S))


def test_partial_subcode():
    s = flagship()
    assert s.partial_subcode([]) == s.c1
    c3 = s.partial_subcode([0])
    assert c3 == s.c2
    s2 = build_proposed(F64, l=2, n=4, k=3)
    c3 = s2.partial_subcode([1])
    assert s2.c1.contains(c3) and c3.contains(s2.c2)
    assert c3.k == s2.c1.k - 1
    # the explicit construction keeps every partial subcode MRD
    assert c3.min_rank_distance() == 4 - 3 + 1 + 1


def test_partial_subcode_is_union_of_cosets():
    s2 = build_proposed(F64, l=2, n=4, k=3)
    c3 = s2.partial_subcode([0])
    rng = random.Random(54)
    for _ in range(20):
        S = (0, rng.randrange(64))
        X = s2.encode(S, rng)
        assert c3.contains_word(X)


def test_bound_codes():
    s = flagship()
    d1, d2 = s.bound_codes(0)
    assert d1.n == s.l + s.n - 1 == d2.n
    assert d1.k == s.c1.k
    assert d2.k == s.c1.k - 1
    assert d1.contains(d2)


def test_lengthened_code_matches_encoder():
    s = flagship()
    rng = random.Random(55)
    lengthened = s.lengthened_code()
    for _ in range(20):
        S = tuple(rng.randrange(16) for _ in range(1))
        X = s.encode(S, rng)
        assert lengthened.contains_word(S + X)


def test_scheme_json_roundtrip():
    s = flagship()
    again = NestedScheme.from_json(s.to_json())
    assert again.c1 == s.c1 and again.c2 == s.c2
    assert again.delta_g == s.delta_g


def test_lift_header_and_rank():
    inner = flagship()
    outer = ctx_new(2, 4 + 3)
    lifted = lift(inner, outer)
    rng = random.Random(57)
    zero_packet = lifted.lift_vector((0, 0, 0))
    assert expand_to_base(outer, zero_packet).rank() == 3
    for _ in range(10):
        S = tuple(rng.randrange(16) for _ in range(1))
        X = lifted.lift_encode(S, rng)
        M = expand_to_base(outer, X)
        assert M.rank() == 3
        for i in range(3):
            assert tuple(M.rows[i]) == tuple(1 if j == i else 0 for j in range(3))
        assert X in set(lifted.coset_elements(S))


def test_lift_rejects_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        lift(flagship(), ctx_new(2, 6))


def _lift_by_coefficients(lifted, x_inner):
    """Packet j as the unit header e_j atop the inner coefficients of x_j."""
    out = []
    for j, v in enumerate(x_inner):
        coeffs = [0] * lifted.n + list(lifted.inner.ctx.coeffs(v))
        coeffs[j] = 1
        out.append(lifted.ctx.from_coeffs(coeffs))
    return tuple(out)


@pytest.mark.parametrize("q, m, n", [(2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 3, 2)])
def test_lift_vector_matches_coefficient_construction(q, m, n):
    rng = random.Random(q * m * n)
    inner = random_scheme(rng, ctx_new(q, m), n, 1, 0)
    lifted = lift(inner, ctx_new(q, m + n))
    for x in [(0,) * n, (inner.ctx.order - 1,) * n] + [
            tuple(rng.randrange(inner.ctx.order) for _ in range(n)) for _ in range(20)]:
        assert lifted.lift_vector(x) == _lift_by_coefficients(lifted, x)
        assert lifted.lift_vector(np.array(x)) == _lift_by_coefficients(lifted, x)


def test_lift_vector_refuses_malformed_input():
    # the [2,1] scheme over F_2^3 lifted to F_2^5: a third symbol, or a symbol
    # past F_8, used to lift without an error
    lifted = lift(build_proposed(ctx_new(2, 3), l=1, n=2, k=1), ctx_new(2, 5))
    assert lifted.lift_vector((1, 2)) == (5, 10)
    for bad in [(1, 2, 3), (1,), ()]:
        with pytest.raises(DimensionMismatch):
            lifted.lift_vector(bad)
    for bad in [(9, 2), (1, 8), (-1, 2), (1.0, 2), ("1", 2)]:
        with pytest.raises(PreconditionError):
            lifted.lift_vector(bad)


@pytest.mark.parametrize("block", ["default", "small"])
@pytest.mark.parametrize("l, k2", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)])
@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_codeword_digits_list_every_coset_in_message_order(q, m, l, k2, block, monkeypatch):
    # entry e is member e % |C2| of the coset of message e // |C2|, both in
    # their listing orders; small blocks combine a table of one generator,
    # or of none, with the higher digits, and start mid-block
    ctx = ctx_new(q, m)
    scheme = random_scheme(random.Random(q * 100 + l * 10 + k2), ctx, 3, l, k2)
    expected = [X for S in scheme.messages() for X in scheme.coset_elements(S)]
    size = scheme.c2.codeword_count()
    starts = [0, size]
    if block == "small":
        monkeypatch.setattr(coset_scheme, "PACKED_BLOCK", q * m * 3 if k2 else 1)  # b = 1, 0
        starts.append(size + 1)
    for start in starts:
        blocks = list(scheme.codeword_digits(start))
        assert all(b.dtype == np.uint8 and b.shape[:2] == (m, 3) for b in blocks)
        digits = np.concatenate(blocks, axis=2)
        x = np.einsum("djk,d->kj", digits, q ** np.arange(m))
        assert list(map(tuple, x.tolist())) == expected[start:], start
