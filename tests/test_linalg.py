import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rankguard import AmbientMismatch, PreconditionError, ctx_new, linalg
from rankguard.bitrank import PACKED_BLOCK, PackedRankTable, pack_key, packed_rank_table, rank_bits
from rankguard.codes import LinearCode
from rankguard.gf import PrimeField
from rankguard.linalg import (
    Matrix,
    RowImages,
    embed_base_matrix,
    expand_to_base,
    ext_vec_times_base_transpose,
    extend_echelon,
    field_digits,
    field_values,
    rank_mod_q,
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


def rand_rows(rng, ctx, nrows, ncols):
    """Zero rows, random rows and combinations of a few spanning rows, so ranks fall short."""
    spanning = [[rng.randrange(ctx.order) for _ in range(ncols)]
                for _ in range(rng.randrange(1, 3))]
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(3)
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1:
            rows.append([rng.randrange(ctx.order) for _ in range(ncols)])
        else:
            row = [0] * ncols
            for s in spanning:
                c = rng.randrange(ctx.order)
                row = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(row, s)]
            rows.append(row)
    return rows


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_rank_of_rows_matches_rref(q, m):
    ctx = ctx_new(q, m)
    rng = random.Random(9 + q)
    for nrows, ncols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 4), (4, 4), (5, 2), (7, 3)]:
        for _ in range(25):
            rows = rand_rows(rng, ctx, nrows, ncols)
            assert rank_of_rows(ctx, rows) == Matrix(ctx, rows, ncols).rref()[1]


@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_extend_echelon_in_every_row_order(q, m):
    # every order of the same rows gives an echelon of the same row space:
    # leading columns increasing, a one at each and zeros before it
    ctx = ctx_new(q, m)
    rng = random.Random(13 + q)
    for nrows, ncols in [(3, 0), (3, 3), (4, 2), (4, 4), (5, 3)]:
        for _ in range(10):
            rows = rand_rows(rng, ctx, nrows, ncols)
            span = Matrix(ctx, rows, ncols).row_basis()
            for order in itertools.permutations(rows):
                pivots = ()
                for row in order:
                    pivots = extend_echelon(ctx, pivots, row)
                columns = [c for c, _ in pivots]
                assert columns == sorted(set(columns))
                assert all(list(p[:c + 1]) == [0] * c + [1] for c, p in pivots)
                assert Matrix(ctx, [p for _, p in pivots], ncols).row_basis() == span


FIELDS = {"F2": GF2, "F3": PrimeField(3), "F5": PrimeField(5),
          "F16": F16, "F9": ctx_new(3, 2), "F25": ctx_new(5, 2)}


def row_space(field, M):
    """Every field combination of M's rows, by vec_mat alone: no elimination."""
    return {vec_mat(field, x, M) for x in itertools.product(range(field.order), repeat=M.nrows)}


@pytest.mark.parametrize("name", FIELDS)
def test_rref_against_reference(monkeypatch, name):
    # the definition of RREF read off the rows, and the row space by brute
    # force at tiny sizes; an RREF is returned as its own RREF, unchanged
    field = FIELDS[name]
    rng = random.Random(len(name) * field.order)
    for nrows, ncols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 1), (2, 3), (3, 2), (3, 4), (5, 3)]:
        for trial in range(12):
            M = Matrix(field, rand_rows(rng, field, nrows, ncols), ncols)
            red, rank, pivots = M.rref()
            assert (red.nrows, red.ncols) == (nrows, ncols)
            nonzero = [any(row) for row in red.rows]
            assert nonzero == [True] * rank + [False] * (nrows - rank)
            leads = tuple(next(c for c, a in enumerate(row) if a) for row in red.rows[:rank])
            assert pivots == leads and list(leads) == sorted(set(leads))
            for i, c in enumerate(leads):
                assert [row[c] for row in red.rows] == [int(j == i) for j in range(nrows)]
            if trial < 3 and field.order**nrows <= 4096:
                space = row_space(field, M)
                assert row_space(field, red) == space and len(space) == field.order**rank
            assert Matrix(field, red.rows, ncols).rref()[0] == red
            basis = M.row_basis()
            assert basis.rows == red.rows[:rank]
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "extend_echelon", None)  # any elimination would fail
                assert red.rref() == (red, rank, pivots) and red.rref()[0] is red
                assert basis.rref() == (basis, rank, pivots) and basis.row_basis() is basis


def test_matrix_from_json_checks_rows_and_digits():
    M = Matrix(F16, [[1, A, 0], [0, 0, 1]], 3)
    data = M.to_json()
    assert Matrix.from_json(F16, data) == M
    assert Matrix.from_json(F16, {"cols": 3, "entries": data["entries"]}) == M  # rows left out
    with pytest.raises(PreconditionError, match="records rows=7"):
        Matrix.from_json(F16, {**data, "rows": 7})
    with pytest.raises(PreconditionError, match="records rows=1"):
        Matrix.from_json(GF2, {"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]})
    for digits in ([1], [1, 0, 0, 0, 0], []):  # 1 and its zero tails, and 0
        entries = [[digits, *row[1:]] for row in data["entries"]]
        with pytest.raises(PreconditionError, match="must have m = 4 digits"):
            Matrix.from_json(F16, {**data, "entries": entries})


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


@pytest.mark.parametrize("nrows, ncols", [(2, 7), (2, 8), (1, 8), (8, 1), (3, 5), (0, 4), (4, 0),
                                          (1, 12), (12, 1), (6, 3)])
def test_packed_rank_table_every_key(nrows, ncols):
    # tables taller than wide are eliminated on the rows of M^T
    table = PackedRankTable(nrows, ncols).table
    mask = (1 << ncols) - 1
    assert [int(v) for v in table] == [rank_bits((key >> (ncols * r)) & mask for r in range(nrows))
                                       for key in range(len(table))]


# 2^20 and 2^22 keys, each in both orientations
TABLE_SHAPES = [(5, 4), (4, 5), (1, 22), (22, 1), (2, 11), (11, 2)]


def _block_keys(nrows, ncols):
    # a table is filled in blocks of PACKED_BLOCK // 4 row-array elements,
    # min(nrows, ncols) rows per key
    return PACKED_BLOCK // 4 // min(nrows, ncols)


def test_packed_rank_table_blocks():
    # the keys on either side of every block boundary, the ends, and a sample
    rng = random.Random(7)
    for nrows, ncols in TABLE_SHAPES:
        table = packed_rank_table(nrows, ncols).table
        assert len(table) >= 1 << 20 > PACKED_BLOCK
        keys = [0, len(table) - 1] + [rng.randrange(len(table)) for _ in range(300)]
        for lo in range(_block_keys(nrows, ncols), len(table), _block_keys(nrows, ncols)):
            keys += [lo - 1, lo]
        mask = (1 << ncols) - 1
        for key in keys:
            assert table[key] == rank_bits((key >> (ncols * r)) & mask for r in range(nrows))


def test_packed_rank_table_build_memory():
    # no transient of a build grows with the table: each one peaks within
    # 2 MiB of the table's own bytes
    for nrows, ncols in TABLE_SHAPES:
        tracemalloc.start()
        try:
            PackedRankTable(nrows, ncols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 << (nrows * ncols)) + 2 * 2**20, (nrows, ncols, peak)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_rank_mod_q_matches_rref(q):
    # random stacks, rank-deficient rows, zero matrices, empty shapes, and
    # tall and wide stacks whose leading rows are zero
    rng = random.Random(40 + q)
    field = PrimeField(q)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3), (3, 3), (5, 2),
                       (2, 6), (6, 2), (3, 7), (7, 3)]:
        mats = [[[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(cols)]
                 for _ in range(rows)] for _ in range(40)]
        mats.append([[0] * cols for _ in range(rows)])
        if rows > 1:
            mats.append([mats[0][0]] * rows)
        for z in range(1, rows):  # leading zero rows
            mats.append([[0] * cols] * z + mats[z][z:])
        for z in range(1, cols):  # leading zero columns, the rows of a tall stack's M^T
            mats.append([[0] * z + row[z:] for row in mats[z]])
        expected = [Matrix(field, mat, cols).rref()[1] for mat in mats]
        stack = np.array(mats, dtype=np.uint8).reshape(len(mats), rows, cols)
        assert rank_mod_q(stack, q).tolist() == expected
        assert rank_mod_q(stack.reshape(1, len(mats), rows, cols), q).tolist() == [expected]


@pytest.mark.parametrize("q, m", [(2, 4), (3, 3), (5, 2), (7, 2), (17, 2)])
def test_row_images_match_field_products(q, m):
    # random ids in random order, so steps cross several digits with every
    # difference d; at q = 17 d times a digit passes 255
    rng = random.Random(q * m)
    ctx, n = ctx_new(q, m), 4
    xs = [tuple(rng.randrange(ctx.order) for _ in range(n)) for _ in range(50)]
    digits = field_digits(np.array(xs).T, q, m)
    assert digits.shape == (m, n, 50)
    assert field_values(digits, q).T.tolist() == [list(x) for x in xs]
    images = RowImages(digits, q)
    ids = [0] + rng.sample(range(q**n), min(60, q**n))
    rng.shuffle(ids)
    table = images.of(ids)
    assert table.shape == (len(ids), m, 50) and table.dtype == digits.dtype
    for b, image in zip(ids, table):
        B = Matrix(PrimeField(q), [[b // q**j % q for j in range(n)]], n)
        expected = [ext_vec_times_base_transpose(ctx, x, B)[0] for x in xs]
        assert field_values(image, q).tolist() == expected
    # a step from any known image, and back
    i, j = rng.sample(range(len(ids)), 2)
    assert (images.step(table[i], ids[i], ids[j]) == table[j]).all()
    assert (images.step(table[j], ids[j], ids[i]) == table[i]).all()
    assert images.of([]).shape == (0, m, 50)
