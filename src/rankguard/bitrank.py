"""Bit-packed GF(2) primitives for the hot exhaustive sweeps.

Rows of a binary matrix are ints (bit i = column i).  A whole small matrix
packs into one int key, row r on bits [r*ncols, (r+1)*ncols), and so does an
F_{2^m} vector, as rows of m bits; precomputed rank tables then turn the
inner loops of the capability and delta-distance sweeps into XOR-plus-lookup.
Entry j of x A^T, A binary, is x times row j of A, a row id, so
row_image_tables turns x A^T into gathers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# element count that bounds each temporary array of the packed q = 2 kernels;
# their rank-table indices are intp, so one such array takes 2 MiB
PACKED_BLOCK = 2**18


def rank_bits(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the row vectors encoded as ints."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            h = v.bit_length() - 1
            if h in pivots:
                v ^= pivots[h]
            else:
                pivots[h] = v
                rank += 1
                break
    return rank


def _insert_canonical(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Insert v into a fully reduced leading-bit basis; canonical per subspace."""
    for b in basis:
        if v & (1 << (b.bit_length() - 1)):
            v ^= b
    if not v:
        return basis
    h = 1 << (v.bit_length() - 1)
    reduced = tuple((b ^ v) if (b & h) else b for b in basis)
    return tuple(sorted(reduced + (v,), reverse=True))


def pack_key(rows: Sequence[int], ncols: int) -> int:
    key = 0
    for r, row in enumerate(rows):
        key |= row << (r * ncols)
    return key


class PackedRankTable:
    """rank() lookup for every nrows x ncols GF(2) matrix, nrows*ncols <= 22.

    Built by a subspace DP: scanning the rows of a key in order, the only
    state that matters is the row space seen so far, and subspaces of
    F_2^ncols are few.  A key wider than tall is scanned by columns instead
    (rank M = rank M^T), so the states are subspaces of F_2^min(nrows, ncols).
    The table itself is filled with vectorized transition lookups instead of
    per-key elimination.
    """

    def __init__(self, nrows: int, ncols: int):
        if nrows * ncols > 22:
            raise ValueError("packed table limited to 22 bits")
        self.nrows = nrows
        self.ncols = ncols
        length, width = max(nrows, ncols), min(nrows, ncols)
        states: dict[tuple[int, ...], int] = {(): 0}
        bases: list[tuple[int, ...]] = [()]
        trans_rows: list[list[int]] = []
        i = 0
        while i < len(bases):
            basis = bases[i]
            row_out = []
            for row in range(1 << width):
                new = _insert_canonical(basis, row)
                if new not in states:
                    states[new] = len(bases)
                    bases.append(new)
                row_out.append(states[new])
            trans_rows.append(row_out)
            i += 1
        trans = np.array(trans_rows, dtype=np.int32)
        ranks = np.array([len(b) for b in bases], dtype=np.uint8)

        # filled in blocks of keys, so the transients stay at PACKED_BLOCK
        # elements each instead of one per key of the table
        mask = np.uint32((1 << width) - 1)
        self.table = np.empty(1 << (nrows * ncols), dtype=np.uint8)
        for lo in range(0, len(self.table), PACKED_BLOCK):
            keys = np.arange(lo, min(lo + PACKED_BLOCK, len(self.table)), dtype=np.uint32)
            if ncols > nrows:  # the key of M^T: bit r*ncols + s moves to bit s*nrows + r
                moved = np.zeros_like(keys)
                for b in range(nrows * ncols):
                    moved |= ((keys >> np.uint32(b)) & np.uint32(1)) << np.uint32(
                        b % ncols * nrows + b // ncols)
                keys = moved
            state = np.zeros(len(keys), dtype=np.int32)
            for r in range(length):
                state = trans[state, (keys >> np.uint32(r * width)) & mask]
            self.table[lo:lo + len(keys)] = ranks[state]


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
