import random

import pytest

from rankguard import EnumerationTooLarge, InfeasibleRank, ctx_new
from rankguard.gf import PrimeField
from rankguard.linalg import Matrix, expand_to_base, vec_mat, embed_base_matrix
from rankguard.network import (
    enumerate_errors,
    enumerate_wiretap,
    error_count,
    sample_error_pair,
    sample_transfer,
    transmit,
)
from rankguard.rank_metrics import rank_weight

F16 = ctx_new(2, 4)
GF2 = PrimeField(2)


def test_sample_transfer_rank_constraint():
    rng = random.Random(61)
    for _ in range(1000):
        A = sample_transfer(rng, 2, 4, 4, 1)
        assert A.rank() >= 3


def test_sample_transfer_full_rank_forced():
    rng = random.Random(62)
    for _ in range(50):
        A = sample_transfer(rng, 2, 3, 3, 0)
        assert A.rank() == 3


def test_sample_transfer_infeasible():
    with pytest.raises(InfeasibleRank):
        sample_transfer(random.Random(0), 2, 2, 4, 1)


def test_transmit_identity_no_errors():
    A = Matrix.identity(GF2, 3)
    X = (1, F16.alpha, 7)
    assert transmit(F16, X, A, Matrix(GF2, [[0]] * 3, 1), (0,)) == X


def test_transmit_zero_input_reveals_error_image():
    rng = random.Random(63)
    A = sample_transfer(rng, 2, 3, 3, 0)
    D, Z = sample_error_pair(rng, F16, 3, 1)
    Y = transmit(F16, (0, 0, 0), A, D, Z)
    d_col = [row[0] for row in D.rows]
    assert Y == tuple(F16.scalar_mul(c, Z[0]) for c in d_col)


def test_transmit_matches_dense_lifted_multiply():
    rng = random.Random(64)
    for _ in range(20):
        A = sample_transfer(rng, 2, 3, 3, 1)
        D, Z = sample_error_pair(rng, F16, 3, 1)
        X = tuple(rng.randrange(16) for _ in range(3))
        Y = transmit(F16, X, A, D, Z)
        # oracle: run the same product through embedded extension matrices
        y2 = vec_mat(F16, X, embed_base_matrix(F16, A).transpose())
        e2 = vec_mat(F16, Z, embed_base_matrix(F16, D).transpose())
        assert Y == tuple(F16.add(a, b) for a, b in zip(y2, e2))


def test_enumerate_wiretap_rowspace_counts():
    mats = list(enumerate_wiretap(2, 3, 1))
    assert len(mats) == 8  # 7 lines + the zero space
    mats3 = list(enumerate_wiretap(2, 3, 3))
    assert len(mats3) == 1 + 7 + 7 + 1


def test_enumerate_wiretap_full_mode():
    mats = list(enumerate_wiretap(2, 2, 1, mode="full"))
    assert len(mats) == 4
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_wiretap(2, 30, 3, mode="full"))


def test_enumerate_errors_counts_and_ranks():
    errors = list(enumerate_errors(F16, 3, 1))
    assert len(errors) == 1 + 7 * 15
    assert len(set(errors)) == len(errors)
    assert error_count(F16, 3, 1) == len(errors)
    for E in errors:
        assert rank_weight(F16, E) <= 1
    assert list(enumerate_errors(F16, 3, 0)) == [(0, 0, 0)]


def test_enumerate_errors_rank_two_complete():
    f4 = ctx_new(2, 2)
    errors = set(enumerate_errors(f4, 2, 2))
    # oracle: brute-force every vector in F_4^2 and keep expansions of rank <= 2
    brute = {(a, b) for a in range(4) for b in range(4)
             if expand_to_base(f4, (a, b)).rank() <= 2}
    assert errors == brute


def test_error_factorization_invariance():
    # Y depends on (D, Z) only through E = Z D^T
    rng = random.Random(65)
    A = sample_transfer(rng, 2, 3, 3, 0)
    D, Z = sample_error_pair(rng, F16, 3, 2)
    X = tuple(rng.randrange(16) for _ in range(3))
    # refactor: E as a single rank-<=2 burst through a different routing
    from rankguard.linalg import ext_vec_times_base_transpose
    E = ext_vec_times_base_transpose(F16, Z, D)
    assert transmit(F16, X, A, D, Z) == transmit(F16, X, A, Matrix.identity(GF2, 3), E)
