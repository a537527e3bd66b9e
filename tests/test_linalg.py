import random

import pytest

from rankguard import AmbientMismatch, PreconditionError, ctx_new
from rankguard.bitrank import PACKED_BLOCK, PackedRankTable, pack_key, packed_rank_table, rank_bits
from rankguard.codes import LinearCode
from rankguard.gf import PrimeField
from rankguard.linalg import (
    Matrix,
    embed_base_matrix,
    expand_to_base,
    ext_vec_times_base_transpose,
    rank_of_rows,
    solve_right,
    vec_mat,
)

F16 = ctx_new(2, 4)
GF2 = PrimeField(2)
A = F16.alpha


def rand_matrix(rng, field, r, c):
    return Matrix(field, [[rng.randrange(field.order) for _ in range(c)] for _ in range(r)], c)


def test_rref_identity_and_zero():
    I3 = Matrix.identity(F16, 3)
    red, rank, piv = I3.rref()
    assert red == I3 and rank == 3 and piv == (0, 1, 2)
    Z = Matrix.zeros(F16, 2, 3)
    red, rank, piv = Z.rref()
    assert red == Z and rank == 0 and piv == ()


def test_rref_dependent_rows_over_f16():
    a2 = F16.mul(A, A)
    M = Matrix(F16, [[1, A], [A, a2]])
    _, rank, _ = M.rref()
    assert rank == 1


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        M = rand_matrix(rng, F16, 3, 4)
        red = M.rref()[0]
        assert red.rref()[0] == red


def test_solve_right():
    I = Matrix.identity(F16, 3)
    assert solve_right(I, (1, A, 0)) == (1, A, 0)
    Z = Matrix.zeros(F16, 2, 3)
    assert solve_right(Z, (0, 1, 0)) is None
    rng = random.Random(1)
    for _ in range(25):
        M = rand_matrix(rng, F16, 2, 4)
        x = tuple(rng.randrange(16) for _ in range(2))
        y = vec_mat(F16, x, M)
        sol = solve_right(M, y)
        assert sol is not None and vec_mat(F16, sol, M) == y


def test_right_kernel():
    rng = random.Random(2)
    for _ in range(20):
        M = rand_matrix(rng, F16, 2, 4)
        K = M.right_kernel()
        assert K.nrows == 4 - M.rank()
        for row in K.rows:
            assert all(v == 0 for v in vec_mat(F16, row, M.transpose()))


def test_expand_to_base_rank():
    assert expand_to_base(F16, (0, 0, 0)).rank() == 0
    assert expand_to_base(F16, (1, 1, 1)).rank() == 1
    x = (1, A, F16.mul(A, A))
    assert expand_to_base(F16, x).rank() == 3


def test_subspace_sum_intersect_complement():
    e1 = LinearCode(F16, [(1, 0, 0)], 3)
    e2 = LinearCode(F16, [(0, 1, 0)], 3)
    assert e1.intersect(e2).k == 0
    assert e1.sum_with(e2).k == 2
    assert e1.sum_with(e1) == e1
    assert e1.intersect(e1) == e1


@pytest.mark.parametrize("op", ["contains", "sum_with", "intersect"])
@pytest.mark.parametrize("other", [LinearCode.zero(F16, 4), LinearCode.zero(ctx_new(3, 2), 3)],
                         ids=["length", "field"])
def test_ambient_mismatch(op, other):
    e1 = LinearCode(F16, [(1, 0, 0)], 3)
    with pytest.raises(AmbientMismatch, match="codes live in different spaces"):
        getattr(e1, op)(other)


def test_subspace_duality_involution_and_dims():
    rng = random.Random(3)
    for _ in range(30):
        V = LinearCode(F16, rand_matrix(rng, F16, rng.randrange(5), 4).rows or [], 4)
        Vc = V.dual()
        assert V.k + Vc.k == 4
        assert Vc.dual() == V


def test_dim_modular_law():
    rng = random.Random(4)
    for _ in range(100):
        U = LinearCode(F16, rand_matrix(rng, F16, rng.randrange(1, 4), 4).rows, 4)
        V = LinearCode(F16, rand_matrix(rng, F16, rng.randrange(1, 4), 4).rows, 4)
        assert U.sum_with(V).k + U.intersect(V).k == U.k + V.k


def test_subspace_vectors_count():
    V = LinearCode(F16, [(1, 0, A), (0, 1, 0)], 3)
    vecs = set(V.codewords())
    assert len(vecs) == 16**2
    assert all(V.contains_word(v) for v in vecs)


def test_ext_vec_times_base_transpose():
    Amat = Matrix(GF2, [[1, 0, 1], [0, 1, 1]])
    x = (1, A, F16.mul(A, A))
    y = ext_vec_times_base_transpose(F16, x, Amat)
    assert y == (F16.add(1, F16.mul(A, A)), F16.add(A, F16.mul(A, A)))
    lifted = embed_base_matrix(F16, Amat)
    assert y == vec_mat(F16, x, lifted.transpose())


def test_ext_vec_times_base_transpose_refuses_extension_entries():
    # q = 2 scalar_mul reads only the low bit, so alpha used to act as 0
    with pytest.raises(PreconditionError):
        ext_vec_times_base_transpose(F16, (5, 7, 9), Matrix(F16, [[A, 0, 0]], 3))
    # over F_27 the entry 4 = 1 + 1*3 used to act as 1
    F27 = ctx_new(3, 3)
    with pytest.raises(PreconditionError):
        ext_vec_times_base_transpose(F27, (5, 7, 9), Matrix(F27, [[4, 0, 0]], 3))
    with pytest.raises(PreconditionError):
        ext_vec_times_base_transpose(F27, (5, 7, 9), Matrix(F27, [[0, -1, 0]], 3))
    assert ext_vec_times_base_transpose(F27, (5, 7, 9), Matrix(F27, [[2, 0, 0]], 3)) == (
        F27.add(5, 5),)


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_rank_of_rows_matches_rref(q, m):
    ctx = ctx_new(q, m)
    rng = random.Random(9 + q)
    for nrows, ncols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 4), (4, 4), (5, 2), (7, 3)]:
        for _ in range(25):
            spanning = [[rng.randrange(ctx.order) for _ in range(ncols)]
                        for _ in range(rng.randrange(1, 3))]
            rows = []
            for _ in range(nrows):
                kind = rng.randrange(3)
                if kind == 0:  # a zero row
                    rows.append([0] * ncols)
                elif kind == 1:  # a random row
                    rows.append([rng.randrange(ctx.order) for _ in range(ncols)])
                else:  # a combination of a few spanning rows, so ranks fall short
                    row = [0] * ncols
                    for s in spanning:
                        c = rng.randrange(ctx.order)
                        row = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(row, s)]
                    rows.append(row)
            assert rank_of_rows(ctx, rows) == Matrix(ctx, rows, ncols).rref()[1]


def test_rank_bits_matches_matrix_rank():
    rng = random.Random(5)
    for _ in range(50):
        rows = [[rng.randrange(2) for _ in range(5)] for _ in range(4)]
        M = Matrix(GF2, rows)
        packed = [sum(b << i for i, b in enumerate(r)) for r in rows]
        assert M.rref()[1] == rank_bits(packed)


def test_packed_rank_table():
    table = PackedRankTable(3, 4)
    rng = random.Random(6)
    for _ in range(100):
        rows = [rng.randrange(16) for _ in range(3)]
        assert table.table[pack_key(rows, 4)] == rank_bits(rows)


def test_packed_rank_table_blocks():
    # the 2^20-key table is filled in blocks of PACKED_BLOCK keys: check the
    # keys on either side of every block boundary, the ends, and a sample
    table = packed_rank_table(5, 4).table
    assert len(table) == 1 << 20 > PACKED_BLOCK
    rng = random.Random(7)
    keys = [0, len(table) - 1] + [rng.randrange(len(table)) for _ in range(300)]
    for lo in range(PACKED_BLOCK, len(table), PACKED_BLOCK):
        keys += [lo - 1, lo]
    for key in keys:
        assert table[key] == rank_bits((key >> (4 * r)) & 15 for r in range(5))
