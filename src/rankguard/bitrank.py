"""Bit-packed GF(2) primitives for the hot exhaustive sweeps.

Rows of a binary matrix are ints (bit i = column i).  A whole small matrix
packs into one int key, row r on bits [r*ncols, (r+1)*ncols), and so does an
F_{2^m} vector, as rows of m bits; rank tables, each filled by eliminating
blocks of keys row by row, turn the capability and delta-distance sweeps
into XOR-plus-lookup.  Entry j of x A^T, A binary, is x times row j of A, a
row id, so row_image_tables turns x A^T into gathers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# element count that bounds each temporary array of the packed q = 2 kernels;
# their rank-table indices are intp, so one such array takes 2 MiB
PACKED_BLOCK = 2**18


def reduce_bits(pivots: dict[int, int], v: int) -> int:
    """v cleared at each leading bit it shares with pivots (leading bit ->
    row): 0 exactly when v lies in their span."""
    while v and (p := pivots.get(v.bit_length() - 1)):
        v ^= p
    return v


def extend_bits(pivots: dict[int, int], rows: Iterable[int]) -> dict[int, int]:
    """pivots with rows added in place: one new pivot per independent row."""
    for v in rows:
        if v := reduce_bits(pivots, v):
            pivots[v.bit_length() - 1] = v
    return pivots


def rank_bits(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the row vectors encoded as ints."""
    return len(extend_bits({}, rows))


def pack_key(rows: Sequence[int], ncols: int) -> int:
    key = 0
    for r, row in enumerate(rows):
        key |= row << (r * ncols)
    return key


class PackedRankTable:
    """rank() lookup for every nrows x ncols GF(2) matrix, nrows*ncols <= 22.

    Filled by Gaussian elimination over blocks of keys: each key's bits are
    spread onto the rows of M, or of M^T when that has fewer rows (rank M =
    rank M^T); each row in turn takes its lowest set bit as pivot and is
    XORed into every later row holding that bit; the rank counts the pivots.
    A block's row array holds PACKED_BLOCK // 4 elements, which bounds the
    transients beside the table.
    """

    def __init__(self, nrows: int, ncols: int):
        if nrows * ncols > 22:
            raise ValueError("packed table limited to 22 bits")
        self.nrows = nrows
        self.ncols = ncols
        self.table = np.zeros(1 << (nrows * ncols), dtype=np.uint8)
        rows = min(nrows, ncols)
        mask, one = np.uint32((1 << ncols) - 1), np.uint32(1)
        step = PACKED_BLOCK // 4 // max(rows, 1)
        for lo in range(0, len(self.table), step):
            keys = np.arange(lo, min(lo + step, len(self.table)), dtype=np.uint32)
            M = np.zeros((rows, len(keys)), dtype=np.uint32)
            for i in range(rows):
                if nrows <= ncols:  # row i of M: key bits i*ncols .. i*ncols + ncols - 1
                    M[i] = (keys >> np.uint32(i * ncols)) & mask
                else:  # row i of M^T: bit i of every row of M
                    for j in range(nrows):
                        M[i] |= ((keys >> np.uint32(j * ncols + i)) & one) << np.uint32(j)
            rank = self.table[lo:lo + len(keys)]  # a view: the pivots count in place
            for i in range(rows):
                pivot = M[i] & (~M[i] + one)  # lowest set bit, 0 for a zero row
                rank += pivot != 0
                for j in range(i + 1, rows):
                    M[j] ^= np.where(M[j] & pivot, M[i], 0)


def row_image_tables(vectors: Sequence[Sequence[int]],
                     m: int) -> tuple[int, list[tuple[int, np.ndarray]]]:
    """(rows, windows) for the keys of x_k A^T, x_k in F_{2^m}^n, A binary of any
    height read rows rows at a time: 8 // n when n <= 8, else one row by bytes.
    Window (lo, table): table[v, k] is the key of x_k A_g^T for the rows A_g
    whose only nonzero bits are v << lo (entries past bit 32 read as 0)."""
    X = np.array(vectors, dtype=np.uint32)
    n = X.shape[1]
    rows = max(1, 8 // n)
    # bit b of a group is entry b % n of its row b // n: it adds x_{b % n} to entry b // n
    units = np.stack([X[:, b % n] << np.uint32(b // n * m) for b in range(rows * n)], axis=1)
    return rows, [(lo, np.ascontiguousarray(span_keys(units[:, lo:lo + 8]).T))
                  for lo in range(0, rows * n, 8)]


def span_keys(gen_keys: np.ndarray) -> np.ndarray:
    """keys[A, c]: XOR of the columns of gen_keys[A] picked by the bits of c."""
    keys = np.zeros((len(gen_keys), 1), dtype=np.uint32)
    for k in range(gen_keys.shape[1]):
        keys = np.concatenate([keys, keys ^ gen_keys[:, k:k + 1]], axis=1)
    return keys


@lru_cache(maxsize=8)
def packed_rank_table(nrows: int, ncols: int) -> PackedRankTable:
    return PackedRankTable(nrows, ncols)
