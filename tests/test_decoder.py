import gc
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rankguard import (
    EnumerationTooLarge,
    PreconditionError,
    RankguardError,
    codes,
    coset_scheme,
    ctx_new,
    decoder,
    network,
    subspaces,
)
from rankguard.bitrank import pack_key, packed_rank_table, row_image_tables
from rankguard.codes import LinearCode
from rankguard.coset_scheme import LiftedScheme, NestedScheme, build_proposed, lift
from rankguard.subspaces import gaussian_binomial
from rankguard.errors import DimensionMismatch
from rankguard.decoder import (
    _closest_difference,
    _difference_words,
    _error_digits,
    _error_keys,
    _exhaustive_coherent,
    _failing_blocks,
    _first_failing_transfer,
    _least_ranks,
    _pack_vectors,
    _product_keys,
    _transfer_keys,
    capability_report,
    construct_failure_witness,
    decode_coherent,
    decode_noncoherent,
    delta_min_noncoherent,
    delta_min_over_A,
    discrepancy_coherent,
    discrepancy_noncoherent,
    split_error_by_rank,
)
from rankguard.gf import PrimeField
from rankguard.linalg import (
    Matrix,
    embed_base_matrix,
    ext_vec_times_base_transpose,
    expand_to_base,
    pack_row_bits,
    vec_add,
    vec_sub,
)
from rankguard.network import (
    all_matrices,
    enumerate_errors,
    error_count,
    sample_error_pair,
    sample_matrix,
    sample_transfer,
    transmit,
)
from rankguard.rank_metrics import first_rgrw, rank_weight
import capability_reference
from capability_reference import (
    _canonical_transfers,
    _coset_images,
    _coset_score,
    _cosets,
    exhaustive_coherent_generic,
)
from schemes import random_scheme

F16 = ctx_new(2, 4)
GF2 = PrimeField(2)


def sample_invertible(rng: random.Random, q: int, n: int) -> Matrix:
    while True:
        M = sample_matrix(rng, q, n, n)
        if M.rank() == n:
            return M


def flagship():
    return build_proposed(F16, l=1, n=3, k=2)


def test_discrepancy_zero_for_clean_reception():
    s = flagship()
    rng = random.Random(81)
    A = sample_transfer(rng, 2, 3, 3, 0)
    for _ in range(10):
        S = (rng.randrange(16),)
        X = s.encode(S, rng)
        Y = ext_vec_times_base_transpose(F16, X, A)
        assert discrepancy_coherent(s, A, Y, S) == 0


def test_discrepancy_bounded_by_injected_rank():
    s = flagship()
    rng = random.Random(82)
    for _ in range(20):
        A = sample_transfer(rng, 2, 3, 3, 1)
        S = (rng.randrange(16),)
        X = s.encode(S, rng)
        E = tuple(rng.randrange(16) for _ in range(3))
        Y = vec_add(F16, ext_vec_times_base_transpose(F16, X, A), E)
        assert discrepancy_coherent(s, A, Y, S) <= rank_weight(F16, E)


def _factorization_oracle(scheme, A, Y, S, r_max=3):
    """Least r admitting Y = X A^T + Z D^T with X in the coset: brute force
    over every base routing matrix D and injected packets Z."""
    ctx = scheme.ctx
    N = A.nrows
    members = [ext_vec_times_base_transpose(ctx, X, A)
               for X in scheme.coset_elements(S)]
    for r in range(r_max + 1):
        for d_stamp in range(2 ** (N * r)):
            rows, x = [], d_stamp
            for _ in range(N):
                row = []
                for _ in range(r):
                    row.append(x % 2)
                    x //= 2
                rows.append(row)
            D = Matrix(GF2, rows, r)
            for z_stamp in range(ctx.order**r):
                Z, x = [], z_stamp
                for _ in range(r):
                    Z.append(x % ctx.order)
                    x //= ctx.order
                e = ext_vec_times_base_transpose(ctx, tuple(Z), D) if r else (0,) * N
                for xa in members:
                    if vec_add(ctx, xa, e) == Y:
                        return r
    return None


def test_discrepancy_matches_factorization_oracle():
    f8 = ctx_new(2, 3)
    s = build_proposed(f8, l=1, n=2, k=1)
    rng = random.Random(83)
    for _ in range(6):
        A = sample_transfer(rng, 2, 2, 2, 1)
        S = (rng.randrange(8),)
        Y = tuple(rng.randrange(8) for _ in range(2))
        delta = discrepancy_coherent(s, A, Y, S)
        assert delta == _factorization_oracle(s, A, Y, S)


def test_decode_identity_channel():
    s = flagship()
    rng = random.Random(84)
    A = Matrix.identity(GF2, 3)
    for _ in range(10):
        S = (rng.randrange(16),)
        X = s.encode(S, rng)
        res = decode_coherent(s, A, X)
        assert res.ok and res.message == S and res.discrepancy == 0
        assert res.runner_up is not None and res.runner_up > 0


def test_decode_invariant_under_row_space_change():
    # the exhaustive engine's first reduction: A -> R A with invertible R,
    # errors conjugated by R^T, leaves every decode outcome unchanged
    s = flagship()
    rng = random.Random(85)
    for _ in range(15):
        A = sample_transfer(rng, 2, 3, 3, 1)
        R = sample_invertible(rng, 2, 3)
        S = (rng.randrange(16),)
        X = s.encode(S, rng)
        E = tuple(rng.randrange(16) for _ in range(3))
        Y1 = vec_add(F16, ext_vec_times_base_transpose(F16, X, A), E)
        RA = R.matmul(A)
        E2 = ext_vec_times_base_transpose(F16, E, R)
        Y2 = vec_add(F16, ext_vec_times_base_transpose(F16, X, RA), E2)
        r1 = decode_coherent(s, A, Y1)
        r2 = decode_coherent(s, RA, Y2)
        assert (r1.status, r1.message, r1.discrepancy) == (r2.status, r2.message, r2.discrepancy)


def test_decode_translation_reduction():
    # the engine's second reduction: per-(A, E) success for every sender is
    # the per-difference-coset strict-inequality condition
    s = flagship()
    rng = random.Random(86)
    for _ in range(10):
        A = sample_transfer(rng, 2, 3, 3, 1)
        E = tuple(rng.randrange(16) for _ in range(3))
        # direct: try every sender and coset member
        direct_ok = True
        for S in s.messages():
            for X in s.coset_elements(S):
                Y = vec_add(F16, ext_vec_times_base_transpose(F16, X, A), E)
                res = decode_coherent(s, A, Y)
                if not (res.ok and res.message == S):
                    direct_ok = False
                    break
            if not direct_ok:
                break
        # reduced: difference cosets against the true coset value
        true_val = min(rank_weight(F16, vec_sub(F16, E, ext_vec_times_base_transpose(F16, c, A)))
                       for c in s.c2.codewords())
        reduced_ok = True
        for S in s.messages():
            if not any(S):
                continue
            other = min(rank_weight(F16, vec_sub(
                F16, vec_sub(F16, E, ext_vec_times_base_transpose(F16, s.representative(S), A)),
                ext_vec_times_base_transpose(F16, c, A)))
                for c in s.c2.codewords())
            if other <= true_val:
                reduced_ok = False
                break
        assert direct_ok == reduced_ok


def test_delta_distance_identity_is_first_weight():
    # at rho = 0 the only canonical transfer matrix is the identity
    s = flagship()
    assert delta_min_over_A(s, 0) == first_rgrw(s.c1, s.c2) == 2


def test_delta_min_over_A():
    ctx = F16
    from rankguard.codes import LinearCode, gabidulin
    from rankguard.coset_scheme import NestedScheme
    c1 = gabidulin(ctx, 4, 2)
    scheme = NestedScheme(c1, LinearCode.zero(ctx, 4), c1.gen)
    assert delta_min_over_A(scheme, 0) == 3
    assert delta_min_over_A(scheme, 1) == 2
    assert delta_min_over_A(scheme, 4) == 0
    s = flagship()
    for rho in range(4):
        assert delta_min_over_A(s, rho) == max(0, 2 - rho)


def test_split_error_by_rank():
    rng = random.Random(87)
    for _ in range(20):
        rows = [[rng.randrange(2) for _ in range(4)] for _ in range(5)]
        M = Matrix(GF2, rows, 4)
        r = M.rank()
        for part in range(r + 1):
            first, second = split_error_by_rank(GF2, rows, 4, part)
            assert first.rank() == part
            assert second.rank() == r - part
            assert first.add(second) == M


def test_normality_every_intermediate_discrepancy():
    # between any two cosets at delta distance d, every split (i, d-i) is
    # realizable by some received word
    s = flagship()
    A = Matrix.identity(GF2, 3)
    rng = random.Random(88)
    S1, S2 = (3,), (9,)
    best = None
    for X1 in s.coset_elements(S1):
        for X2 in s.coset_elements(S2):
            d = rank_weight(F16, vec_sub(
                F16, ext_vec_times_base_transpose(F16, X2, A),
                ext_vec_times_base_transpose(F16, X1, A)))
            if best is None or d < best[0]:
                best = (d, X1, X2)
    d, X1, X2 = best
    u = vec_sub(F16, ext_vec_times_base_transpose(F16, X2, A),
                ext_vec_times_base_transpose(F16, X1, A))
    for i in range(d + 1):
        w_mat, _ = split_error_by_rank(GF2, list(expand_to_base(F16, u).rows), 3, i)
        W = tuple(F16.from_coeffs([w_mat.rows[r][j] for r in range(4)]) for j in range(3))
        Y = vec_add(F16, ext_vec_times_base_transpose(F16, X1, A), W)
        assert discrepancy_coherent(s, A, Y, S1) == i
        assert discrepancy_coherent(s, A, Y, S2) == d - i


def test_capability_exhaustive_flagship_boundary():
    s = flagship()  # first weight 2: capability iff 2t + rho < 2
    ok = capability_report(s, t=0, rho=0)
    assert ok.verified and ok.covered_tuples > 0
    ok = capability_report(s, t=0, rho=1)
    assert ok.verified
    bad = capability_report(s, t=1, rho=0)
    assert not bad.verified and bad.counterexample is not None
    bad = capability_report(s, t=0, rho=2)
    assert not bad.verified


def _isometric_copy(rng, scheme):
    """The scheme times a random invertible base-field matrix: an isometry of
    the rank metric, so the correction capability is unchanged."""
    ctx = scheme.ctx
    T = embed_base_matrix(ctx, sample_invertible(rng, ctx.q, scheme.n))
    return NestedScheme(LinearCode(ctx, scheme.c1.gen.matmul(T)),
                        LinearCode(ctx, scheme.c2.gen.matmul(T)), scheme.delta_g.matmul(T))


PACKED_CASES = {
    # C2 = {0}, first weight 3, with N = n and N = n + 1
    "[3,1]": (lambda rng: _isometric_copy(rng, build_proposed(F16, l=1, n=3, k=1)), 3),
    "[3,1] N=4": (lambda rng: _isometric_copy(rng, build_proposed(F16, l=1, n=3, k=1)), 4),
    # one-dimensional C2: the min over coset members decides
    "flagship": (lambda rng: flagship(), 3),
    "[3,2]": (lambda rng: _isometric_copy(rng, flagship()), 3),
    # two message symbols: message order and multi-symbol representatives
    "[3,2] l=2": (lambda rng: _isometric_copy(
        rng, build_proposed(ctx_new(2, 5), l=2, n=3, k=2)), 3),
}


@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_packed_rowspace_matches_generic(case):
    build, N = PACKED_CASES[case]
    scheme = build(random.Random(91))
    verdicts = set()
    for t in range(3):
        for rho in range(scheme.n + 1):
            packed = _exhaustive_coherent(scheme, t, rho, N).to_json()
            assert packed == exhaustive_coherent_generic(scheme, t, rho, N).to_json()
            full = capability_report(scheme, t, rho, mode="exhaustive-full", N=N)
            assert full.verified == packed["verified"]
            assert full.covered_tuples == packed["covered_tuples"]
            verdicts.add(packed["verified"])
    assert verdicts == {True, False}


def test_packed_rowspace_beyond_rank_table_transfer_keys():
    # 5 x 5 transfer keys (25 bits) have no rank table, so the full sweep
    # refuses them; the row-space check reads them one 5-bit row at a time
    c1 = LinearCode(F16, Matrix(F16, [[1, 2, 4, 8, 3]], 5))
    scheme = NestedScheme(c1, LinearCode.zero(F16, 5), c1.gen)
    assert first_rgrw(scheme.c1, scheme.c2) == 4
    for t in range(2):
        for rho in (0, 1, scheme.n):
            packed = _exhaustive_coherent(scheme, t, rho, 5).to_json()
            assert packed == exhaustive_coherent_generic(scheme, t, rho, 5).to_json()
            assert packed["verified"] == (2 * t + rho < 4)
            with pytest.raises(EnumerationTooLarge, match="N\\*n = 25 > 22 bits"):
                capability_report(scheme, t, rho, mode="exhaustive-full")


def _assert_genuine_rowspace_counterexample(scheme, report):
    ctx, ce = scheme.ctx, report.counterexample
    A = Matrix(ctx.base, ce["A"]["entries"], ce["A"]["cols"])
    E = tuple(ctx.from_coeffs(c) for c in ce["E"])
    assert discrepancy_coherent(scheme, A, E, (0,) * scheme.l) == ce["true_discrepancy"]
    other = discrepancy_coherent(scheme, A, E, tuple(ce["difference_message"]))
    assert other == ce["other_discrepancy"] <= ce["true_discrepancy"]


def test_q2_rowspace_check_takes_packed_path(monkeypatch):
    # a loosened guard would pass every equality test on the slow path
    def digits(*args):
        pytest.fail("q = 2 row-space check fell back to digit arrays")

    monkeypatch.setattr(decoder, "_first_failing_row_space", digits)
    s = flagship()
    for t in range(3):
        for rho in range(s.n + 1):
            assert capability_report(s, t, rho).verified == (2 * t + rho < 2)
    # dim C1 = 3 over F_2^7: 2^21 codewords, past the scan cap, but 2^14
    # messages and 2^7 coset members, within the packed bit bounds
    wide = build_proposed(ctx_new(2, 7), l=2, n=3, k=3)
    with pytest.raises(EnumerationTooLarge, match="scan cap: 2097152 vectors"):
        exhaustive_coherent_generic(wide, 0, 0, wide.n)
    assert first_rgrw(wide.c1, wide.c2) == 1
    assert capability_report(wide, 0, 0).verified
    for t, rho in [(0, 1), (1, 0)]:
        report = capability_report(wide, t, rho)
        assert not report.verified
        _assert_genuine_rowspace_counterexample(wide, report)


@pytest.mark.parametrize("block", [100, 2**10])
def test_packed_kernel_blocks_keep_reports(monkeypatch, block):
    # below the default block one A no longer fits: the kernel scores it in
    # error blocks (2^10) and in message-combo slices as well (100)
    cases = [(flagship(), 3), (_isometric_copy(random.Random(93), flagship()), 4)]
    budgets = [(t, rho) for t in range(2) for rho in range(4)]
    expected = [capability_report(s, t, rho, mode=mode, N=N).to_json()
                for s, N in cases for t, rho in budgets
                for mode in ("exhaustive", "exhaustive-full")]
    monkeypatch.setattr(decoder, "PACKED_BLOCK", block)
    assert expected == [capability_report(s, t, rho, mode=mode, N=N).to_json()
                        for s, N in cases for t, rho in budgets
                        for mode in ("exhaustive", "exhaustive-full")]


def _word_scheme(*words):
    """C1 spanned by words over F_16 with C2 = {0}; message symbol i picks word i."""
    gen = Matrix(F16, list(words), 3)
    return NestedScheme(LinearCode(F16, gen), LinearCode.zero(F16, 3), gen)


BITMAP_CASES = {
    # C2 = {0}, with N = n and N = n + 1
    "[3,1]": (lambda rng: _isometric_copy(rng, build_proposed(F16, l=1, n=3, k=1)), (3, 4)),
    "[2,1] F8": (lambda rng: _isometric_copy(rng, build_proposed(ctx_new(2, 3), l=1, n=2, k=1)),
                 (2, 3)),
    "[2,2] l=2": (lambda rng: _isometric_copy(rng, build_proposed(F16, l=2, n=2, k=2)), (2, 3)),
    "[3,2] l=2": (lambda rng: _isometric_copy(
        rng, build_proposed(ctx_new(2, 5), l=2, n=3, k=2)), (3, 4)),
    # low-weight words: the MRD cases all fail at the first A
    "[1,0,0]": (lambda rng: _word_scheme([1, 0, 0]), (3,)),
    "[0,1,1]": (lambda rng: _word_scheme([0, 1, 1]), (3,)),
    # l = 2 where only the messages with symbol 0 zero reach rank 1
    "[1,2,4]+[1,0,0]": (lambda rng: _word_scheme([1, 2, 4], [1, 0, 0]), (3, 4)),
    # one-dimensional C2: a combo fails through its least-rank coset member
    "flagship": (lambda rng: flagship(), (3,)),
    "[3,2]": (lambda rng: _isometric_copy(rng, flagship()), (3,)),
    "two-symbol": (lambda rng: _two_symbol_scheme(), (3,)),
}


def _two_symbol_scheme():
    """C2 = <[1,2,4]> over F_16 with message rows [1,0,0] and [0,1,1]."""
    c2 = Matrix(F16, [[1, 2, 4]], 3)
    delta = Matrix(F16, [[1, 0, 0], [0, 1, 1]], 3)
    return NestedScheme(LinearCode(F16, c2.stack(delta)), LinearCode(F16, c2), delta)


def _sweep_inputs(scheme, t, rho, N):
    errors = list(enumerate_errors(scheme.ctx, N, t))
    return _transfer_keys(N, scheme.n, rho), _pack_vectors(errors, scheme.ctx.m, N)


def _canonical_keys(scheme, rho, N):
    return np.array([pack_key([pack_row_bits(r) for r in A.rows], scheme.n)
                     for A in _canonical_transfers(2, scheme.n, N, rho)],
                    dtype=np.uint32)


@pytest.mark.parametrize("m, N", [(3, 3), (4, 2), (4, 3), (3, 4), (5, 4), (2, 3)])
def test_error_keys_match_error_stream(m, N):
    # t > N at (4, 2) and (2, 3), and t > m at (2, 3): no key of rank 3
    ctx = ctx_new(2, m)
    for t in range(4):
        expected = _pack_vectors(list(enumerate_errors(ctx, N, t)), m, N)
        assert _error_keys(ctx, N, t).tolist() == expected.tolist()


def test_error_keys_in_slices(monkeypatch):
    # 15 subspaces of dimension 3 times 7^3 candidates: slices of 100 cross
    # subspace boundaries
    ctx = ctx_new(2, 3)
    expected = _pack_vectors(list(enumerate_errors(ctx, 4, 3)), 3, 4)
    monkeypatch.setattr(decoder, "PACKED_BLOCK", 100)
    assert _error_keys(ctx, 4, 3).tolist() == expected.tolist()


def test_q2_exhaustive_reports_skip_error_stream(monkeypatch):
    # the packed paths build error keys; a fallback would pass every
    # equality test on the field-arithmetic stream
    def no_stream(*args):
        pytest.fail("a q = 2 exhaustive report enumerated the error stream")

    ternary = build_proposed(ctx_new(3, 3), l=1, n=2, k=1)
    expected = exhaustive_coherent_generic(ternary, 1, 0, ternary.n).to_json()
    monkeypatch.setattr(network, "enumerate_errors", no_stream)
    monkeypatch.setattr(decoder, "_error_digits", no_stream)
    s = flagship()  # first weight 2
    for mode in ("exhaustive", "exhaustive-full"):
        for t, rho in [(0, 0), (0, 1), (1, 0), (2, 0), (0, 2)]:
            report = capability_report(s, t, rho, mode=mode)
            assert report.verified == (2 * t + rho < 2)
            if not report.verified:
                assert report.counterexample is not None

    def no_field(*args):
        pytest.fail("a refuted q = 3 report ran field arithmetic")

    # a refuted q = 3 report reads base-q error digits, with no field arithmetic
    monkeypatch.setattr(decoder, "_error_digits", _error_digits)
    monkeypatch.setattr(network, "enumerate_errors", no_field)
    for name in ("ext_vec_times_base_transpose", "rank_weight"):
        monkeypatch.setattr(decoder, name, no_field)
    assert capability_report(ternary, 1, 0).to_json() == expected


def test_q2_verified_reports_build_no_subspace_matrices(monkeypatch):
    # at q = 2 row ids are the rows' bits: error and transfer keys come from
    # the id stream, and a counterexample builds its A from its row ids
    def no_matrices(*args):
        pytest.fail("a q = 2 packed path built subspace matrices")

    ternary = build_proposed(ctx_new(3, 3), l=1, n=2, k=1)
    s = flagship()  # first weight 2
    expected = [exhaustive_coherent_generic(scheme, t, rho, scheme.n).to_json()
                for scheme, t, rho in [(ternary, 1, 0), (s, 1, 0), (s, 0, 2)]]
    for module in (subspaces, network):
        monkeypatch.setattr(module, "enumerate_base_subspaces", no_matrices)
    assert len(_error_keys(ctx_new(2, 3), 4, 2)) == error_count(ctx_new(2, 3), 4, 2)
    for mode in ("exhaustive", "exhaustive-full"):
        for t, rho in [(0, 0), (0, 1)]:
            assert capability_report(s, t, rho, mode=mode).verified
    assert [capability_report(s, t, rho).to_json() for t, rho in [(1, 0), (0, 2)]] == expected[1:]

    def no_field(*args):
        pytest.fail("a refuted q = 3 report ran field arithmetic")

    # a refuted q = 3 report builds its A from the decider's row ids, and
    # scores it on digit arrays
    monkeypatch.setattr(network, "enumerate_errors", no_field)
    for name in ("ext_vec_times_base_transpose", "rank_weight"):
        monkeypatch.setattr(decoder, name, no_field)
    assert capability_report(ternary, 1, 0).to_json() == expected[0]


@pytest.mark.parametrize("k", [1, 2])
def test_generic_capability_identity_q3(k):
    # q = 3 takes the digit-array path: k = 1 gives C2 = {0}, k = 2 a
    # one-dimensional C2
    ctx = ctx_new(3, 3)
    scheme = build_proposed(ctx, l=1, n=2, k=k)
    weight = first_rgrw(scheme.c1, scheme.c2)
    n = N = scheme.n
    transfer_ranks = [A.rank() for A in all_matrices(3, N, n)]
    verdicts = set()
    for t in range(3):
        errors = sum(M.rank() <= t for M in all_matrices(3, ctx.m, N))
        for rho in range(n + 1):
            report = capability_report(scheme, t, rho)
            assert report.verified == (2 * t + rho < weight)
            transfers = sum(r >= n - rho for r in transfer_ranks)
            # messages times coset members: every codeword of C1
            assert report.covered_tuples == transfers * 3 ** (ctx.m * scheme.c1.k) * errors
            verdicts.add(report.verified)
    assert verdicts == {True, False}


@pytest.mark.parametrize("m, N", [(3, 3), (4, 2), (4, 3), (3, 4)])
def test_failing_keys_are_the_keys_of_rank_at_most_2t(m, N):
    # the union over errors E of {K : rank(K ^ E) <= rank(E)}, key by key
    table = packed_rank_table(N, m).table
    keys = np.arange(len(table))[:, None]
    for t in range(3):
        e_keys = _pack_vectors(list(enumerate_errors(ctx_new(2, m), N, t)), m, N)
        e_keys = e_keys.astype(np.intp)
        bad = np.concatenate([(table[keys[lo:lo + 256] ^ e_keys] <= table[e_keys]).any(axis=1)
                              for lo in range(0, len(table), 256)])
        assert np.array_equal(bad, table <= 2 * t)


def _kernel_failures(scheme, a_key, e_keys, N):
    """{combo: its first failing error index} under one transfer key, from
    every block the error-scoring kernel yields."""
    first = {}
    for lo, vals in _failing_blocks(scheme, int(a_key), e_keys, N):
        for c in np.flatnonzero((vals[1:] <= vals[0]).any(axis=1)) + 1:
            first.setdefault(int(c), lo + int((vals[c] <= vals[0]).argmax()))
    return first


@pytest.mark.parametrize("case", sorted(BITMAP_CASES))
def test_failing_key_bitmap_matches_kernel(case):
    # the decider against the per-A kernel, over raw and canonical keys
    build, sizes = BITMAP_CASES[case]
    scheme = build(random.Random(94))
    firsts, deltas = [], {rho: delta_min_over_A(scheme, rho) for rho in range(scheme.n + 1)}
    for N, t in itertools.product(sizes, range(3)):
        e_keys = _sweep_inputs(scheme, t, 0, N)[1]
        failures = {}  # per transfer key, computed on first use
        for rho in range(scheme.n + 1):
            raw = _transfer_keys(N, scheme.n, rho)
            for a_keys in (raw, _canonical_keys(scheme, rho, N)):
                expected = None
                for i, a_key in enumerate(a_keys):
                    if int(a_key) not in failures:
                        failures[int(a_key)] = _kernel_failures(scheme, a_key, e_keys, N)
                    if failures[int(a_key)]:
                        expected = i, min(failures[int(a_key)])
                        break
                assert _first_failing_transfer(scheme, a_keys, t, N) == expected
            first = _first_failing_transfer(scheme, raw, t, N)
            firsts.append(first)
            report = capability_report(scheme, t, rho, mode="exhaustive-full", N=N)
            if first is None:
                assert report.verified and report.trials == len(raw) * len(e_keys)
            else:
                i, c = first
                assert report.trials == (i + 1) * len(e_keys)
                assert report.counterexample == {
                    "A_key": int(raw[i]), "error_index": failures[int(raw[i])][c],
                    "difference_combo": c}
            if N == scheme.n:
                verified = 2 * t < deltas[rho]
                assert report.verified == verified
                assert capability_report(scheme, t, rho, N=N).verified == verified
    assert None in firsts and set(firsts) != {None}


@pytest.mark.parametrize("word, first, a_key", [([1, 0, 0], 8, 20), ([0, 1, 1], 4, 14)])
def test_failing_key_bitmap_past_first_batch(monkeypatch, word, first, a_key):
    scheme = _word_scheme(word)
    expected = capability_report(scheme, 0, 1, mode="exhaustive-full").to_json()
    assert expected["counterexample"]["A_key"] == a_key
    assert expected["trials"] == first + 1
    # 16 message combos: one transfer matrix per batch
    monkeypatch.setattr(decoder, "PACKED_BLOCK", 16)
    a_keys, _ = _sweep_inputs(scheme, 0, 1, 3)
    assert _first_failing_transfer(scheme, a_keys, 0, 3) == (first, 1)
    assert capability_report(scheme, 0, 1, mode="exhaustive-full").to_json() == expected


@pytest.mark.parametrize("block", [8, 16, 2**10])
def test_least_failing_combo_past_first_slice(monkeypatch, block):
    # 256 combos of 16 coset members each: below 2^12 one A is decided in
    # runs of block codewords, C2 spanning two runs at 8, and combo 25 is
    # the least that fails
    scheme = _two_symbol_scheme()
    expected = [capability_report(scheme, 0, 1, mode=mode).to_json()
                for mode in ("exhaustive", "exhaustive-full")]
    assert expected[1]["counterexample"]["difference_combo"] == 25
    a_keys, _ = _sweep_inputs(scheme, 0, 1, 3)
    monkeypatch.setattr(decoder, "PACKED_BLOCK", block)
    i, c = _first_failing_transfer(scheme, a_keys, 0, 3)
    assert (int(a_keys[i]), c) == (10, 25)
    assert expected == [capability_report(scheme, 0, 1, mode=mode).to_json()
                        for mode in ("exhaustive", "exhaustive-full")]


def test_full_sweep_takes_bitmap_path(monkeypatch):
    # verification scores no error: a kernel pass over any A would pass
    # every equality test on the slow path
    def no_kernel(*args):
        pytest.fail("a verified budget scored errors")

    f32 = ctx_new(2, 5)
    cases = [(build_proposed(f32, l=1, n=4, k=1), 4),  # C2 = {0}
             (flagship(), 2), (build_proposed(f32, l=1, n=4, k=2), 3)]
    kernel, calls = decoder._failing_blocks, []
    monkeypatch.setattr(decoder, "_failing_blocks", no_kernel)
    for scheme, weight in cases:
        assert first_rgrw(scheme.c1, scheme.c2) == weight
        for t, rho in itertools.product(range(2), range(scheme.n + 1)):
            if 2 * t + rho < weight:
                for mode in ("exhaustive", "exhaustive-full"):
                    assert capability_report(scheme, t, rho, mode=mode).verified
    assert capability_report(cases[2][0], 1, 0, mode="exhaustive-full").trials == 9394560

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    # a refuted report scores the failing A alone
    monkeypatch.setattr(decoder, "_failing_blocks", counted)
    for mode in ("exhaustive", "exhaustive-full"):
        assert not capability_report(cases[2][0], 2, 0, mode=mode).verified
    assert len(calls) == 2


def test_early_refutation_stays_small_for_large_message_spaces():
    # a [4,3] Gabidulin code over F_32 with C2 = {0}: 2^15 message combos
    # and 33,016 errors at t = 2, about a billion scores per transfer
    # matrix; the first failing block of errors decides
    f32 = ctx_new(2, 5)
    c1 = LinearCode(f32, Matrix(f32, [[f32.pow(g, 2**i) for g in (1, 2, 4, 8)]
                                      for i in range(3)], 4))
    scheme = NestedScheme(c1, LinearCode.zero(f32, 4), c1.gen)
    assert first_rgrw(scheme.c1, scheme.c2) == 2
    tracemalloc.start()
    try:
        rowspace = capability_report(scheme, 2, 0)
        full = capability_report(scheme, 2, 0, mode="exhaustive-full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert not rowspace.verified and rowspace.trials == 2
    _assert_genuine_rowspace_counterexample(scheme, rowspace)
    assert full.counterexample == {"A_key": 4680, "error_index": 20, "difference_combo": 1}


def test_packed_decode_keeps_nothing_per_scheme():
    # the packed decode's image tables live on the scheme: once 100 decoded
    # schemes are dropped, nothing of theirs stays behind
    rng = random.Random(94)
    schemes = [_isometric_copy(rng, build_proposed(F16, l=1, n=3, k=1)) for _ in range(100)]
    A, Y = Matrix.identity(GF2, 3), (1, 2, 3)
    decode_coherent(schemes[0], A, Y)  # the shared rank table
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for scheme in schemes[1:]:
            decode_coherent(scheme, A, Y)
        del schemes, scheme
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 2**10


@pytest.mark.parametrize("m, n, N", [(4, 3, 3), (4, 3, 5), (5, 4, 2), (4, 5, 5), (11, 3, 2),
                                     (2, 10, 2), (1, 20, 1), (5, 1, 4)])
def test_product_keys_match_field_product(m, n, N):
    # (4, 3, 5): a last group of one row; (4, 5, 5): 25-bit transfer keys;
    # (11, 3, 2): the m x n expansion of x takes 33 bits; (2, 10, 2) and
    # (1, 20, 1): rows wider than 8 bits, read one byte at a time; (5, 1, 4):
    # a group of 8 rows, whose table keys would pass 32 bits, past N = 4
    ctx = ctx_new(2, m)
    rng = random.Random(92)
    xs = [tuple(rng.randrange(ctx.order) for _ in range(n)) for _ in range(6)]
    mats = [sample_matrix(rng, 2, N, n) for _ in range(30)]
    a_keys = np.array([pack_key([pack_row_bits(r) for r in A.rows], n) for A in mats],
                      dtype=np.uint32)
    keys = _product_keys(row_image_tables(xs, m), a_keys, m, n, N)
    for A, row in zip(mats, keys):
        expected = _pack_vectors([ext_vec_times_base_transpose(ctx, x, A) for x in xs], m, N)
        assert row.tolist() == expected.tolist()


def test_rowspace_check_beyond_packed_transfer_keys():
    # a [6,1] code over F_4: m*N = 12 bits fit the rank table, but 6 x 6
    # transfer keys do not fit 32 bits, so the field-arithmetic path runs
    f4 = ctx_new(2, 2)
    c1 = LinearCode(f4, Matrix(f4, [[1, 2, 3, 1, 0, 2]], 6))
    scheme = NestedScheme(c1, LinearCode.zero(f4, 6), c1.gen)
    assert first_rgrw(scheme.c1, scheme.c2) == 2
    for t, rho in [(0, 1), (1, 0)]:
        report = capability_report(scheme, t, rho)
        assert report.verified == (2 * t + rho < 2)
        assert report.to_json() == exhaustive_coherent_generic(scheme, t, rho, 6).to_json()


@pytest.mark.parametrize("mode", ["exhaustive", "exhaustive-full", "sampled", "lifted"])
def test_capability_rejects_transfer_below_rank(mode):
    # no 2 x 3 matrix has rank >= 3: nothing to verify, so no verdict
    scheme = _lifted_instance() if mode == "lifted" else flagship()
    with pytest.raises(PreconditionError, match="N too small"):
        capability_report(scheme, 1, 0, mode="sampled" if mode == "lifted" else mode, N=2)
    if mode != "lifted":
        # N = n - rho leaves every transfer matrix of full row rank
        rep = capability_report(scheme, 0, 1, mode=mode, N=2)
        assert rep.verified and rep.trials > 0
    if mode == "exhaustive":
        # no row space of a 2 x 3 matrix has dimension 3: seven canonical A
        assert rep.trials == 7
        assert rep.to_json() == exhaustive_coherent_generic(scheme, 0, 1, 2).to_json()


def test_capability_sampled_matches(monkeypatch):
    s = flagship()
    rep = capability_report(s, t=0, rho=1, mode="sampled", trials=200, seed=5)
    assert rep.verified and rep.trials == 200
    # more trials than the cap are refused before the first one runs
    monkeypatch.setattr(decoder, "DEFAULT_SAMPLED_BUDGET", 10)
    monkeypatch.setattr(decoder, "_draw", lambda *args: pytest.fail("a trial was drawn"))
    with pytest.raises(EnumerationTooLarge, match="50 trials exceeds cap 10"):
        capability_report(s, t=0, rho=0, mode="sampled", trials=50, seed=5)


def test_failure_witness_flagship():
    s = flagship()
    with pytest.raises(PreconditionError):
        construct_failure_witness(s, t=0, rho=1)
    wit = construct_failure_witness(s, t=1, rho=0)
    assert wit["demonstrates_failure"]
    assert rank_weight(F16, wit["injected"]) <= 1


def _field_decode(scheme, A, Y):
    """decode_coherent on field arithmetic: every coset member's image
    scored, the least discrepancy winning unless the runner-up ties it."""
    ctx = scheme.ctx
    messages, cosets = _cosets(scheme)
    scores = [_coset_score(ctx, images, Y) for images in _coset_images(ctx, cosets, A)]
    (message, best), (_, runner) = sorted(zip(messages, scores), key=lambda pair: pair[1])[:2]
    if best == runner:
        return decoder.DecodeResult("ambiguous", None, best, runner)
    return decoder.DecodeResult("decoded", message, best, runner)


DECODE_CASES = {
    # (inner scheme, outer field of its lifting or None): C2 = {0} and
    # C2 != {0}, one and two message symbols
    "[3,1]": (lambda rng: _isometric_copy(rng, build_proposed(F16, l=1, n=3, k=1)), None),
    "[3,2]": (lambda rng: _isometric_copy(rng, flagship()), None),
    "[2,2] l=2": (lambda rng: _isometric_copy(rng, build_proposed(F16, l=2, n=2, k=2)), None),
    "two-symbol": (lambda rng: _isometric_copy(rng, _two_symbol_scheme()), None),
    "lifted [3,2]": (lambda rng: _isometric_copy(rng, flagship()), ctx_new(2, 7)),
    "lifted [2,2] l=2": (lambda rng: build_proposed(F16, l=2, n=2, k=2), ctx_new(2, 6)),
    # decoded on digit arrays: q = 3 and q = 5, and q = 2 past the packed
    # bounds (m N > 22 bits)
    "q3 [2,1]": (lambda rng: _isometric_copy(rng, build_proposed(ctx_new(3, 3), l=1, n=2, k=1)),
                 None),
    "q3 [2,2]": (lambda rng: _isometric_copy(rng, build_proposed(ctx_new(3, 3), l=1, n=2, k=2)),
                 None),
    "q3 l=2": (lambda rng: random_scheme(rng, ctx_new(3, 2), 2, 2, 0), None),
    "lifted q3 [2,1]": (lambda rng: build_proposed(ctx_new(3, 3), l=1, n=2, k=1), ctx_new(3, 5)),
    "q5 [2,1]": (lambda rng: _isometric_copy(rng, build_proposed(ctx_new(5, 3), l=1, n=2, k=1)),
                 None),
    "F256 [4,1]": (lambda rng: _isometric_copy(rng, build_proposed(ctx_new(2, 8), l=1, n=4, k=1)),
                   None),
    "F64 [5,1]": (lambda rng: _isometric_copy(rng, build_proposed(ctx_new(2, 6), l=1, n=5, k=1)),
                  None),
}


@pytest.mark.parametrize("case", sorted(DECODE_CASES))
def test_packed_decode_matches_field_decode(case):
    # the whole DecodeResult, runner-up and ties included, at every budget
    # and N in {n - rho, n, n + 1}; a lifted case compares the inner decode
    # under the received header
    build, outer = DECODE_CASES[case]
    rng = random.Random(95)
    inner = build(rng)
    scheme = inner if outer is None else lift(inner, outer)
    ctx, n = scheme.ctx, scheme.n
    outcomes = set()
    budgets = [(t, rho, N) for t in range(3) for rho in range(n + 1)
               for N in sorted({n - rho, n, n + 1})]
    for t, rho, N in budgets:
        A = sample_transfer(rng, ctx.q, N, n, rho)
        D, Z = sample_error_pair(rng, ctx, N, t)
        S = tuple(rng.randrange(inner.ctx.order) for _ in range(scheme.l))
        X = inner.encode(S, rng) if outer is None else scheme.lift_encode(S, rng)
        Y = transmit(ctx, X, A, D, Z)
        if outer is not None:
            A, Y, _ = decoder._as_coherent(scheme, Y, rho)
        got = decode_coherent(inner, A, Y)
        assert got == _field_decode(inner, A, Y)
        outcomes.add((got.status, got.message == S))
    assert outcomes == {("decoded", True), ("decoded", False), ("ambiguous", False)}


def _assert_block_decodes(monkeypatch, rng, scheme, blocks):
    """Every word of a block gets the field decode's whole DecodeResult, ties
    included, at N = n - rho, n and n + 1, in blocks of 1, 2 and 3 words,
    with PACKED_BLOCK at its default and at each of blocks."""
    n, words = scheme.n, []
    for N, rho in [(n - 1, 1), (n, 0), (n, 2), (n + 1, n)]:
        for t in range(3):
            A = sample_transfer(rng, scheme.ctx.q, N, n, rho)
            D, Z = sample_error_pair(rng, scheme.ctx, N, t)
            S = (rng.randrange(scheme.ctx.order),) * scheme.l
            Y = transmit(scheme.ctx, scheme.encode(S, rng), A, D, Z)
            words.append((A, Y, _field_decode(scheme, A, Y)))
    outcomes = set()
    for block in (None, *blocks):
        with monkeypatch.context() as patch:
            if block is not None:
                patch.setattr(decoder, "PACKED_BLOCK", block)
                patch.setattr(coset_scheme, "PACKED_BLOCK", block)
            for size, N in itertools.product((1, 2, 3), (n - 1, n, n + 1)):
                same = [word for word in words if word[0].nrows == N]
                for lo in range(0, len(same), size):
                    As, Ys, expected = zip(*same[lo:lo + size])
                    got = decoder._decode_block(scheme, As, Ys)
                    assert got == list(expected)
                    outcomes.update(r.status for r in got)
    assert outcomes == {"decoded", "ambiguous"}


@pytest.mark.parametrize("seed", range(4))
def test_block_decode_matches_field_decode(monkeypatch, seed):
    # over F_2^3 on packed keys: with PACKED_BLOCK patched, _codeword_runs
    # spans two transfer matrices per batch, which a 3-word block straddles,
    # or one in two runs.  Then on digit arrays, q = 3, q = 5 and F_2^8 (m N
    # > 22 bits from N = 3 on): with PACKED_BLOCK patched, C1's digits come
    # in blocks of a few codewords and the cosets are scored in slices
    rng = random.Random(96 + seed)
    n, l, k2 = 3, 1 + seed % 2, seed // 2
    bits = 3 * (l + k2)
    _assert_block_decodes(monkeypatch, rng, random_scheme(rng, ctx_new(2, 3), n, l, k2),
                          (2 << bits, 1 << (bits - 1)))
    q, m, n, l, k2 = [(3, 2, 3, 1, 1), (3, 2, 3, 2, 0), (5, 2, 2, 1, 1), (2, 8, 3, 1, 0)][seed]
    _assert_block_decodes(monkeypatch, rng, random_scheme(rng, ctx_new(q, m), n, l, k2), (40,))


def _one_trial(rng, scheme, N, t, rho):
    """One seeded round drawn and decoded alone: the trial stream's reference."""
    ctx, lifted = scheme.ctx, isinstance(scheme, LiftedScheme)
    A = sample_transfer(rng, ctx.q, N, scheme.n, rho)
    D, Z = sample_error_pair(rng, ctx, N, t)
    order = scheme.inner.ctx.order if lifted else ctx.order
    S = tuple(rng.randrange(order) for _ in range(scheme.l))
    X = scheme.lift_encode(S, rng) if lifted else scheme.encode(S, rng)
    Y = transmit(ctx, X, A, D, Z)
    return A, S, decode_noncoherent(scheme, Y, rho) if lifted else decode_coherent(scheme, A, Y)


@pytest.mark.parametrize("lifted", [False, True], ids=["coherent", "lifted"])
@pytest.mark.parametrize("case", ["q2", "q3"])
def test_trial_stream_matches_one_trial_loop(case, lifted):
    # the same (A, S, DecodeResult) in the same order, and the rng left in
    # the same state: the stream draws exactly count rounds
    build, outer = RECEIVED_CASES[case]
    scheme = lift(build(), outer) if lifted else build()
    n = scheme.n
    for N, t, rho, count in [(n, 0, 0, 7), (n, 1, 1, 12), (n + 1, 2, n, 9)]:
        rng, reference = random.Random(97), random.Random(97)
        got = list(decoder.trial_stream(rng, scheme, N, t, rho, count))
        assert got == [_one_trial(reference, scheme, N, t, rho) for _ in range(count)]
        assert rng.random() == reference.random()


def test_refuted_sampled_report_matches_one_trial_loop():
    # the report of a refuted budget is the first failing round's
    failing = set()
    for scheme in (flagship(), _lifted_instance()):  # first weight 2
        for seed in range(6):
            report = capability_report(scheme, 0, 2, mode="sampled", trials=200, seed=seed)
            rng = random.Random(seed)
            for i in range(200):
                A, S, result = _one_trial(rng, scheme, scheme.n, 0, 2)
                if not (result.ok and result.message == S):
                    break
            assert not report.verified
            assert report.counterexample == {"trial": i, "A": A.to_json(), "S": list(S),
                                             "status": result.status}
            failing.add(i > 2)
    assert failing == {False, True}


def test_trial_stream_blocks_stay_within_packed_block(monkeypatch):
    # |C1| = 16 < N n = 30: blocks are sized by the transfer entries, and
    # still decode as the one-trial loop does
    scheme = random_scheme(random.Random(99), ctx_new(2, 4), 6, 1, 0)
    N, block, sizes = 5, 100, []
    decode = decoder._decode_block

    def recorded(inner, As, Ys):
        sizes.append(len(As))
        return decode(inner, As, Ys)

    monkeypatch.setattr(decoder, "PACKED_BLOCK", block)
    monkeypatch.setattr(decoder, "_decode_block", recorded)
    got = list(decoder.trial_stream(random.Random(7), scheme, N, 1, 1, 20))
    assert sizes == [3] * 6 + [2]
    assert max(sizes) * max(scheme.c1.codeword_count(), N * scheme.n) <= block
    reference = random.Random(7)
    assert got == [_one_trial(reference, scheme, N, 1, 1) for _ in range(20)]


def _as_coherent_by_expansion(lifted, Y, rho):
    """_as_coherent from the base-field expansion M_Y of Y: its reference."""
    MY, n, m = expand_to_base(lifted.ctx, Y), lifted.n, lifted.ctx.m
    A = MY.submatrix(rows=range(n)).transpose()
    y = tuple(lifted.inner.ctx.from_coeffs([MY.rows[r][j] for r in range(n, m)])
              for j in range(len(Y)))
    return A, y, max(0, n - rho - MY.rank())


@pytest.mark.parametrize("q, m, n", [(2, 4, 3), (3, 3, 2), (5, 3, 2)])
def test_digit_as_coherent_matches_expansion(q, m, n):
    # transmitted and arbitrary received words, N = 0 .. n + 1, every rho
    lifted = lift(build_proposed(ctx_new(q, m), l=1, n=n, k=1), ctx_new(q, m + n))
    ctx, rng = lifted.ctx, random.Random(98)
    for N in range(n + 2):
        for _ in range(6):
            A = sample_matrix(rng, q, N, n)
            D, Z = sample_error_pair(rng, ctx, N, rng.randrange(2))
            X = lifted.lift_encode((rng.randrange(lifted.inner.ctx.order),), rng)
            for Y in (transmit(ctx, X, A, D, Z), tuple(rng.randrange(ctx.order) for _ in range(N))):
                for rho in range(n + 1):
                    assert decoder._as_coherent(lifted, Y, rho) == _as_coherent_by_expansion(
                        lifted, Y, rho)


def test_decode_with_no_received_packet():
    # rho = n admits the 0 x n transfer matrix: nothing arrives, every coset
    # ties, and both exhaustive modes refute at the empty error
    s = flagship()
    A = Matrix(GF2, [], s.n)
    assert decode_coherent(s, A, ()) == _field_decode(s, A, ()) == decoder.DecodeResult(
        "ambiguous", None, 0, 0)
    generic = exhaustive_coherent_generic(s, 0, s.n, 0).to_json()
    assert capability_report(s, 0, s.n, N=0).to_json() == generic
    for mode in ("exhaustive-full", "sampled"):
        assert not capability_report(s, 0, s.n, mode=mode, N=0, trials=3).verified


def test_decodes_skip_field_scoring(monkeypatch):
    # a decode scores C1's codewords as packed keys at q = 2 within the bit
    # bounds and as digit arrays otherwise, never on field arithmetic; a
    # fallback would pass every equality test on the slow path
    def no_field(*args):
        pytest.fail("a decode ran field arithmetic")

    s, lifted = flagship(), _lifted_instance()  # first weight 2
    witness = construct_failure_witness(s, t=1, rho=0)  # its A and error on field arithmetic
    ternary = build_proposed(ctx_new(3, 3), l=1, n=2, k=1)  # first weight 2
    others = [ternary, lift(ternary, ctx_new(3, 5)), build_proposed(ctx_new(5, 3), l=1, n=2, k=1),
              build_proposed(ctx_new(2, 8), l=1, n=3, k=1)]  # m N = 24 > 22 bits
    monkeypatch.setattr(decoder, "ext_vec_times_base_transpose", no_field)
    assert decode_coherent(s, witness["A"], witness["Y"]) == witness["result"]
    for scheme in (s, lifted):
        for t, rho in [(0, 1), (1, 0)]:
            report = capability_report(scheme, t, rho, mode="sampled", trials=30, seed=5)
            assert report.verified == (2 * t + rho < 2)
    for scheme in others:
        report = capability_report(scheme, 0, 0, mode="sampled", trials=30, seed=5)
        assert report.verified
    X = ternary.encode((5,), random.Random(0))
    assert decode_coherent(ternary, Matrix.identity(ternary.ctx.base, 2), X).message == (5,)


RECEIVED_CASES = {
    "q2": (flagship, ctx_new(2, 7)),
    "q3": (lambda: build_proposed(ctx_new(3, 3), l=1, n=2, k=2), ctx_new(3, 5)),
}


@pytest.mark.parametrize("case", sorted(RECEIVED_CASES))
def test_decoders_refuse_symbols_outside_the_field(case):
    # -1 once looped forever in rank_bits, q^m decoded as its low digits,
    # and either would spill into the next row of a packed key
    build, outer = RECEIVED_CASES[case]
    scheme = build()
    lifted = lift(scheme, outer)
    ctx, n, S = scheme.ctx, scheme.n, (0,) * scheme.l
    A = Matrix.identity(ctx.base, n)
    for bad in (-1, ctx.order):
        Y = (bad,) + (0,) * (n - 1)
        for call in (lambda: decode_coherent(scheme, A, Y),
                     lambda: discrepancy_coherent(scheme, A, Y, S)):
            with pytest.raises(PreconditionError, match="received symbols"):
                call()
    for bad in (-1, outer.order):
        Y = (bad,) + lifted.lift_vector((0,) * n)[1:]
        for call in (lambda: decode_noncoherent(lifted, Y, 0),
                     lambda: discrepancy_noncoherent(lifted, Y, S, 0),
                     lambda: discrepancy_noncoherent(lifted, Y, S, 0, mode="oracle")):
            with pytest.raises(PreconditionError, match="received symbols"):
                call()


@pytest.mark.parametrize("S", [(16,), (-1,), (1.5,), (0, 0)], ids=["q^m", "-1", "1.5", "length"])
def test_message_symbols_outside_the_field_are_refused(S):
    # representative once indexed the field tables with any symbol: 999
    # raised an IndexError, and -1 wrapped round to the last table entry
    s = flagship()
    lifted = lift(s, ctx_new(2, 7))
    A, Y = Matrix.identity(GF2, s.n), (1, 0, 0)
    match = "message length" if len(S) != s.l else "message symbols must be integers in 0..15"
    for call in (lambda: s.encode(S, random.Random(0)),
                 lambda: lifted.lift_encode(S, random.Random(0)),
                 lambda: next(s.coset_elements(S)),
                 lambda: discrepancy_coherent(s, A, Y, S),
                 lambda: discrepancy_noncoherent(lifted, lifted.lift_vector(Y), S, 1),
                 lambda: discrepancy_noncoherent(lifted, lifted.lift_vector(Y), S, 1,
                                                 mode="oracle")):
        with pytest.raises(PreconditionError, match=match):
            call()


def _refusal(call):
    """(exception type, message) of a refused call."""
    with pytest.raises(RankguardError) as info:
        call()
    return type(info.value), str(info.value)


REFUSALS = ["decode cap", "coset cap", "A cols", "A entry", "Y length"]


@pytest.mark.parametrize("case", sorted(RECEIVED_CASES))
@pytest.mark.parametrize("refusal", REFUSALS)
def test_decode_refusals_match_field_path(monkeypatch, case, refusal):
    # each refusal of the coset scans, raised by the decode's input check at
    # every q with the field path's exception and message
    scheme = RECEIVED_CASES[case][0]()
    ctx, n, S = scheme.ctx, scheme.n, (0,) * scheme.l
    A, Y = Matrix.identity(ctx.base, n), (1,) + (0,) * (n - 1)
    expected = {"A cols": DimensionMismatch, "A entry": PreconditionError,
                "Y length": DimensionMismatch}.get(refusal, EnumerationTooLarge)
    # the scan cap just below |C1| refuses whole decodes, just below |C2| a lone coset too
    if refusal == "decode cap":
        monkeypatch.setattr(codes, "DEFAULT_SCAN_CAP", scheme.c1.codeword_count() - 1)
    elif refusal == "coset cap":
        monkeypatch.setattr(codes, "DEFAULT_SCAN_CAP", scheme.c2.codeword_count() - 1)
    elif refusal == "A cols":
        A = Matrix(ctx.base, [[1] * (n + 1)] * n, n + 1)
    elif refusal == "A entry":
        A = Matrix(ctx.base, [[ctx.q] + [0] * (n - 1)] + list(A.rows[1:]), n)
    else:
        Y += (0,)
    field = _refusal(lambda: _field_decode(scheme, A, Y))
    assert field[0] is expected
    # one coset lists C2 alone
    if refusal == "decode cap":
        assert discrepancy_coherent(scheme, A, Y, S) == 1
    else:
        assert _refusal(lambda: discrepancy_coherent(scheme, A, Y, S))[0] is expected
    # the decode's one input check refuses before any scoring, at every q
    monkeypatch.setattr(decoder, "ext_vec_times_base_transpose",
                        lambda *args: pytest.fail("scored on field arithmetic"))
    assert _refusal(lambda: decode_coherent(scheme, A, Y)) == field


@pytest.mark.parametrize("case", sorted(RECEIVED_CASES))
@pytest.mark.parametrize("bad", [-1, 0.5, 2**70])
def test_decode_refuses_transfer_entries_outside_the_base_field(case, bad):
    # the input check reads A's entries before any conversion to machine
    # integers, which would truncate a float or overflow past 64 bits
    scheme = RECEIVED_CASES[case][0]()
    A = Matrix(scheme.ctx.base, [[bad] + [0] * (scheme.n - 1)] * scheme.n, scheme.n)
    with pytest.raises(PreconditionError, match="A must have base-field entries"):
        decode_coherent(scheme, A, (1,) + (0,) * (scheme.n - 1))


@pytest.mark.parametrize("bad", [0.5, 1.0, np.float64(1.0), "1"])
def test_field_products_refuse_non_integer_transfer_entries(bad):
    # ext_vec_times_base_transpose once checked 0 <= c < q only, so a float
    # passed: A = [[0.5, 0], [0, 1]] scored a discrepancy of 1
    scheme = build_proposed(ctx_new(3, 3), 1, 2, 1)
    ctx, n, S = scheme.ctx, scheme.n, (0,)
    A, eye = Matrix(ctx.base, [[bad, 0], [0, 1]], n), Matrix.identity(ctx.base, n)
    X = scheme.encode(S, random.Random(0))
    for call in (lambda: discrepancy_coherent(scheme, A, (0,) * n, S),
                 lambda: transmit(ctx, X, A, eye, (0,) * n),
                 lambda: transmit(ctx, X, eye, A, (1,) * n)):
        with pytest.raises(PreconditionError, match="A must have base-field entries"):
            call()
    # integer types still pass, and so does every transfer matrix the oracle lists
    ints = Matrix(ctx.base, [[np.int64(1), False], [0, True]], n)
    assert discrepancy_coherent(scheme, ints, X, S) == discrepancy_coherent(scheme, eye, X, S) == 0
    lifted = lift(scheme, ctx_new(3, 5))
    Y = lifted.lift_encode(S, random.Random(1))
    for rho in range(n + 1):
        assert (discrepancy_noncoherent(lifted, Y, S, rho, mode="oracle")
                == discrepancy_noncoherent(lifted, Y, S, rho) == 0)


@pytest.mark.parametrize("block, kept", [(8192, True), (4096, False)])
def test_row_space_report_lists_c1_once(monkeypatch, block, kept):
    # the q > 2 decider once listed C1 per transfer group and _first_hit
    # listed it again; a report keeps C1's digits (729 codewords, 6561
    # digits) while they fit in PACKED_BLOCK elements and streams them past
    # that.  Either block makes one transfer matrix per group
    scheme = random_scheme(random.Random(0), ctx_new(3, 3), 3, 1, 1)  # M_1 = 2
    listing, calls = NestedScheme.codeword_digits, []
    monkeypatch.setattr(NestedScheme, "codeword_digits",
                        lambda self, start=0: calls.append(start) or listing(self, start))
    monkeypatch.setattr(decoder, "PACKED_BLOCK", block)
    for t, rho in [(0, 1), (0, 2), (1, 0)]:
        calls.clear()
        report = capability_report(scheme, t, rho)
        assert report.verified == (2 * t + rho < 2)
        assert (len(calls) == 1) == kept
        assert report.to_json() == exhaustive_coherent_generic(scheme, t, rho, scheme.n).to_json()


def test_noncoherent_refuses_impossible_receptions():
    # one received packet cannot come from a rank-2 transfer matrix: the fast
    # mode once scored 1, the oracle found no transfer matrix and returned
    # None, and the decoder reported the message as decoded
    lifted = lift(build_proposed(ctx_new(2, 3), l=1, n=2, k=1), ctx_new(2, 5))
    Y, S = (1,), (0,)
    for call in (lambda: decode_noncoherent(lifted, Y, 0),
                 lambda: discrepancy_noncoherent(lifted, Y, S, 0),
                 lambda: discrepancy_noncoherent(lifted, Y, S, 0, mode="oracle")):
        with pytest.raises(PreconditionError, match="N too small"):
            call()
    Y = lifted.lift_vector((0, 0))
    for rho in (-1, 3):
        for call in (lambda: decode_noncoherent(lifted, Y, rho),
                     lambda: discrepancy_noncoherent(lifted, Y, S, rho),
                     lambda: discrepancy_noncoherent(lifted, Y, S, rho, mode="oracle")):
            with pytest.raises(PreconditionError, match="0 <= rho <= n"):
                call()


def _lifted_instance():
    inner = build_proposed(F16, l=1, n=3, k=2)
    return lift(inner, ctx_new(2, 7))


def test_noncoherent_clean_decode():
    lifted = _lifted_instance()
    rng = random.Random(89)
    A = Matrix.identity(GF2, 3)
    for _ in range(5):
        S = (rng.randrange(16),)
        X = lifted.lift_encode(S, rng)
        Y = ext_vec_times_base_transpose(lifted.ctx, X, A)
        res = decode_noncoherent(lifted, Y, rho=0)
        assert res.ok and res.message == S


@pytest.mark.parametrize("lifted", [
    _lifted_instance(),
    lift(build_proposed(ctx_new(3, 3), l=1, n=2, k=1), ctx_new(3, 5)),
], ids=["q2", "q3"])
def test_noncoherent_fast_equals_oracle(lifted):
    ctx, inner_order, n = lifted.ctx, lifted.inner.ctx.order, lifted.n
    rng = random.Random(90)
    for rho in (0, 1):
        for _ in range(4):
            S = (rng.randrange(inner_order),)
            X = lifted.lift_encode(S, rng)
            A = sample_transfer(rng, ctx.q, n, n, rho)
            E = tuple(rng.randrange(ctx.order) for _ in range(n))
            Y = vec_add(ctx, ext_vec_times_base_transpose(ctx, X, A), E)
            for S2 in [(0,), S, (rng.randrange(inner_order),)]:
                fast = discrepancy_noncoherent(lifted, Y, S2, rho, mode="fast")
                oracle = discrepancy_noncoherent(lifted, Y, S2, rho, mode="oracle")
                assert fast == oracle


@pytest.mark.parametrize("extra", [0, 1], ids=["N=n", "N=n+1"])
@pytest.mark.parametrize("q, m, n, k", [(2, 4, 3, 1), (2, 4, 3, 2), (3, 3, 2, 1), (3, 3, 2, 2)],
                         ids=["q2-C2=0", "q2-C2", "q3-C2=0", "q3-C2"])
def test_noncoherent_decode_is_shifted_coherent_decode(q, m, n, k, extra):
    # the inner scheme decoded coherently under A = H^T and the payload y,
    # H the header rows of the received expansion, with every discrepancy
    # raised by [n - rho - rank]^+; a transfer with a zero column and no
    # error leaves rank n - 1, so rho = 0 shifts
    inner = build_proposed(ctx_new(q, m), l=1, n=n, k=k)
    assert (inner.c2.k == 0) == (k == 1)
    lifted = lift(inner, ctx_new(q, m + n))
    ctx, N = lifted.ctx, n + extra
    # the brute force over every N x n transfer matrix, where it stays small
    oracle_fits = q ** (N * n) * inner.c2.codeword_count() <= 2**14
    rng = random.Random(93)
    shifts = set()
    for draw, (t, deficient) in enumerate(itertools.product((0, 1), (False, True))):
        S = (rng.randrange(inner.ctx.order),)
        A = sample_transfer(rng, q, N, n, 0)
        if deficient:
            A = Matrix(A.field, [row[:-1] + (0,) for row in A.rows], n)
        D, Z = sample_error_pair(rng, ctx, N, t)
        Y = transmit(ctx, lifted.lift_encode(S, rng), A, D, Z)
        MY = expand_to_base(ctx, Y)
        H = Matrix(MY.field, MY.rows[:n], N)
        y = tuple(inner.ctx.from_coeffs(col) for col in zip(*MY.rows[n:]))
        coherent = decode_coherent(inner, H.transpose(), y)
        for rho in range(n + 1):
            shift = max(0, n - rho - MY.rank())
            shifts.add(shift)
            got = decode_noncoherent(lifted, Y, rho)
            assert (got.status, got.message, got.discrepancy, got.runner_up) == (
                coherent.status, coherent.message, coherent.discrepancy + shift,
                coherent.runner_up + shift)
            if oracle_fits and rho == draw % (n + 1):
                oracle = discrepancy_noncoherent(lifted, Y, S, rho, mode="oracle")
                assert oracle == discrepancy_coherent(inner, H.transpose(), y, S) + shift
    assert len(shifts) > 1


def test_noncoherent_delta_identity():
    inner = build_proposed(ctx_new(2, 4), l=1, n=3, k=1)
    lifted = lift(inner, ctx_new(2, 7))
    m1 = first_rgrw(inner.c1, inner.c2)
    for rho in (0, 1):
        assert delta_min_noncoherent(lifted, rho, method="closed") == m1 - rho
        assert delta_min_noncoherent(lifted, rho, method="bruteforce") == m1 - rho


def test_noncoherent_bruteforce_stays_within_block(monkeypatch):
    # one-dimensional C2: 16 messages of 16 lifted members each; at rho = 0
    # a message pair has 96 x 96 key pairs, nine blocks of 2^10
    lifted = lift(build_proposed(F16, l=1, n=2, k=2), ctx_new(2, 6))
    assert lifted.inner.c2.k == 1 and first_rgrw(lifted.inner.c1, lifted.inner.c2) == 1
    monkeypatch.setattr(decoder, "PACKED_BLOCK", 2**10)
    for rho in range(3):
        assert delta_min_noncoherent(lifted, rho, method="bruteforce") == max(0, 1 - rho)
    tracemalloc.start()
    try:
        assert delta_min_noncoherent(lifted, 0, method="bruteforce") == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_noncoherent_delta_rejects_bad_budgets():
    lifted = _lifted_instance()
    for method in ("closed", "bruteforce"):
        for rho in (-1, lifted.n + 1):
            with pytest.raises(PreconditionError, match="rho"):
                delta_min_noncoherent(lifted, rho, method=method)
    # no 2 x 3 transfer matrix has rank 3
    with pytest.raises(PreconditionError, match="N too small"):
        delta_min_noncoherent(lifted, 0, method="bruteforce", N=2)
    ternary = lift(build_proposed(ctx_new(3, 3), l=1, n=2, k=1), ctx_new(3, 5))
    with pytest.raises(PreconditionError, match="q = 2"):
        delta_min_noncoherent(ternary, 0, method="bruteforce")
    with pytest.raises(EnumerationTooLarge, match="m\\*N = 28 > 22 bits"):
        delta_min_noncoherent(lifted, 0, method="bruteforce", N=4)


def test_noncoherent_capability_sampled():
    lifted = _lifted_instance()  # inner first weight 2: t=0, rho<=1 only
    rep = capability_report(lifted, t=0, rho=1, mode="sampled", trials=60, seed=7)
    assert rep.verified


def _decided_schemes():
    # q = 3 with C2 = {0} and with dim C2 = 1; q = 5 with n = 1, whose error
    # balls stay small enough for the field-arithmetic reference at t = 2;
    # and a [3,1] code over F_9 of rank weight 2, which first fails at t = 0,
    # rho = 2 on the last one-dimensional row space, span(e_2)
    f9 = ctx_new(3, 2)
    weak = LinearCode(f9, Matrix(f9, [[1, f9.alpha, 0]], 3))
    return [build_proposed(ctx_new(3, 3), l=1, n=2, k=1),
            build_proposed(ctx_new(3, 3), l=1, n=2, k=2),
            build_proposed(ctx_new(5, 2), l=1, n=1, k=1),
            NestedScheme(weak, LinearCode.zero(f9, 3), weak.gen)]


def test_decided_reports_match_generic_loop(monkeypatch):
    # every t <= 2, rho <= n and N in {n - rho, n, n + 1} (N = 0 at rho = n);
    # the error streams are listed once per (field, N, t) to keep this fast
    listed = {}
    stream = capability_reference.enumerate_errors

    def listed_errors(ctx, N, t):
        key = (ctx.q, ctx.m, N, t)
        if key not in listed:
            listed[key] = list(stream(ctx, N, t))
        return iter(listed[key])

    monkeypatch.setattr(capability_reference, "enumerate_errors", listed_errors)
    verdicts = set()
    for scheme in _decided_schemes():
        n = scheme.n
        for t in range(3):
            for rho in range(n + 1):
                for N in sorted({n - rho, n, n + 1}):
                    report = capability_report(scheme, t, rho, N=N)
                    assert report.to_json() == exhaustive_coherent_generic(
                        scheme, t, rho, N).to_json(), (scheme, t, rho, N)
                    verdicts.add((scheme.ctx.q, report.verified, N == 0))
    assert verdicts >= {(3, True, False), (3, False, False), (3, False, True),
                        (5, True, False), (5, False, False), (5, False, True)}
    weak = _decided_schemes()[-1]
    assert capability_report(weak, 0, 2).trials == 12 * 1 + 1
    # one A per group and the codewords in several blocks: the same reports
    expected = [capability_report(weak, t, rho).to_json() for t in range(2) for rho in range(4)]
    monkeypatch.setattr(decoder, "PACKED_BLOCK", 40)
    assert [capability_report(weak, t, rho).to_json()
            for t in range(2) for rho in range(4)] == expected


@pytest.mark.parametrize("q, m, n, k", [(2, 4, 3, 2), (3, 3, 2, 1), (3, 3, 2, 2), (3, 4, 3, 1),
                                        (5, 3, 2, 1)])
def test_least_ranks_match_closest_difference(q, m, n, k):
    # the digit decider's least rank per A against the field-arithmetic
    # argmin over C1's codewords outside C2, for every canonical A, and
    # their minimum against delta_min_over_A
    scheme = build_proposed(ctx_new(q, m), l=1, n=n, k=k)
    words = _difference_words(scheme)
    for N in (0, n - 1, n, n + 1):
        for rho in range(n - min(n, N), n + 1):
            transfers = list(_canonical_transfers(q, n, N, rho))
            ids = np.array([[sum(c * q**j for j, c in enumerate(row)) for row in A.rows]
                            for A in transfers], dtype=np.int64).reshape(len(transfers), N)
            expected = [_closest_difference(scheme.ctx, words, A)[0] for A in transfers]
            assert _least_ranks(scheme, ids).tolist() == expected
            if N == n:  # delta_min_over_A reads the same least ranks
                assert delta_min_over_A(scheme, rho) == min(expected)


@pytest.mark.parametrize("q, m, N, t", [(2, 3, 3, 2), (3, 2, 3, 2), (3, 3, 2, 2), (5, 2, 2, 1),
                                        (3, 2, 3, 3), (3, 3, 0, 1)])
@pytest.mark.parametrize("most", [1, 4, 2**10])
def test_error_digits_match_error_stream(q, m, N, t, most):
    # the digit blocks list enumerate_errors in its order (past r = m, as at
    # q = 3, m = 2, t = 3, nothing more); blocks of candidates start at one
    # and double up to most
    ctx = ctx_new(q, m)
    blocks = list(_error_digits(ctx, N, t, most))
    errors = np.concatenate(blocks)
    assert errors.shape == (error_count(ctx, N, t), N, m)
    expected = [[list(ctx.coeffs(e)) for e in E] for E in enumerate_errors(ctx, N, t)]
    assert errors.tolist() == expected
    assert len(blocks[0]) == 1 and all(len(b) <= most for b in blocks)


@pytest.mark.parametrize("seed", range(3))
def test_refuted_digit_reports_in_small_blocks(monkeypatch, seed):
    # refuted q = 3 and q = 5 budgets on random schemes: with PACKED_BLOCK
    # small, error blocks stay at one or two errors and each is scored in
    # slices of cosets, and the reports still equal the field-arithmetic loop
    rng = random.Random(seed)
    schemes = [random_scheme(rng, ctx_new(3, 2), 3, 1, 1), random_scheme(rng, ctx_new(3, 2), 2, 2, 0),
               random_scheme(rng, ctx_new(5, 1), 3, 1, 1)]
    cases = [(s, t, rho, N) for s in schemes for t in range(2) for rho in range(s.n + 1)
             for N in sorted({s.n - rho, s.n})]
    expected = [exhaustive_coherent_generic(*case).to_json() for case in cases]
    assert not all(report["verified"] for report in expected)
    for block in (2**18, 30, 1):
        monkeypatch.setattr(decoder, "PACKED_BLOCK", block)
        assert [_exhaustive_coherent(*case).to_json() for case in cases] == expected


def test_q3_verified_reports_skip_field_arithmetic(monkeypatch):
    # a verified budget past the packed path is decided on digit arrays: no
    # codeword image, no rank weight, no error stream
    def no_field(*args):
        pytest.fail("a verified q = 3 report ran field arithmetic")

    monkeypatch.setattr(network, "enumerate_errors", no_field)
    for name in ("ext_vec_times_base_transpose", "rank_weight"):
        monkeypatch.setattr(decoder, name, no_field)
    robust = build_proposed(ctx_new(3, 4), l=1, n=3, k=1)  # first weight 3
    for t, rho in [(0, 0), (0, 1), (0, 2), (1, 0)]:
        report = capability_report(robust, t, rho)
        errors = error_count(robust.ctx, robust.n, t)
        transfers = sum(gaussian_binomial(3, r, 3) for r in range(3 - rho, 4))
        assert report.verified and report.trials == transfers * errors


def test_scheme_keeps_its_generators(monkeypatch):
    # sampled decodes of one scheme read C1's F_2 generators from the scheme
    calls = []
    prop = NestedScheme.__dict__["base_generators"]
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda self: calls.append(self) or build(self))
    s = flagship()
    report = capability_report(s, 0, 1, mode="sampled", trials=100, seed=3)
    assert report.verified and report.trials == 100
    assert calls == [s]
