"""Rank weight/distance and the relative profile parameters of a code pair.

Two exhaustively-computed tables drive everything downstream:

* the relative dimension/intersection profile (RDIP): for each subspace
  dimension i, the largest gap dim(C1 cap V) - dim(C2 cap V) over the
  i-dimensional Frobenius-invariant subspaces V, and
* the relative generalized rank weight (RGRW): for each gap level i, the
  smallest subspace dimension realizing it, read off the RDIP table (the
  two definitions agree; tests cross-check a direct minimization).

Swapping the Frobenius-invariant family for coordinate subspaces yields the
Hamming-side analogues (RDLP / RGHW), kept here for cross-checks: rank-side
weights can never exceed Hamming-side ones.

Both families consist of subspaces V = row(B) spanned by an i x n
base-field RREF basis B, so one kernel serves them.  With H a parity check
of C, a word x = yB lies in C iff H B^T y^T = 0, hence
dim(C cap V) = i - rank(H B^T), and the gap is
rank(H2 B^T) - rank(H1 B^T): one (n-k) x i matrix per code.  Families
stream B as a tuple of row ids (see `subspaces`), and no Matrix is built:
each code keeps one table of the columns H b^T, filled by linearity as
row ids are met (`LinearCode.parity_columns`).  A profile keeps the span
of every suffix ids[1:], ids[2:], ... of the last basis it ranked per code,
adding rows last to first; row 0 is a membership test (rank + 1 if H b_0^T
is outside), and canonical bases vary row 0 fastest.  A span is an echelon
(`linalg.extend_echelon`, row 0 by `reduce_row`), or at q = 2 a pivot dict
of the keys of alpha^a H b^T, a < m (`LinearCode.parity_keys`), as
rank_{F_{2^m}}(H B^T) = rank_{F_2}(E)/m for that F_2 expansion E: it is
F_{2^m}-linear, so row 0 reduces one key, with no field arithmetic.  The
echelons are its reference, and `LinearCode.intersect`, C cap V =
(C_dual + V_dual)_dual for any V, is theirs; tests compare them.

`rdip` takes each K_i as a bounded maximum: K_0 = 0 and K rises by unit
steps to dim C1/C2, so level i stops at the first basis whose gap reaches
min(K_{i-1} + 1, dim C1/C2), keeps it as the level's witness, and raises
InvariantViolated on a gap above that bound.  A gap is at most
dim(C1 cap V), 0 below C1's first weight, so C2 is ranked only where that
beats the best gap so far: no skipped basis could be the witness or break
the bound.  The reference, `rgrw(method="direct")`, is the plain maximum
over every basis, and builds its own engine on every call.

Finished profiles are kept by value in a small least-recently-used memo
(both canonical generators and the family; never a code), so `rgrw`, the
security predictions and the decoder's M_1 reuse a pair's table.  The
subcode check runs on every call, before the lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from .bitrank import extend_bits, rank_bits, reduce_bits
from .codes import LinearCode, quotient_dim
from .errors import LengthMismatch, PreconditionError, require
from .gf import FieldCtx
from .linalg import extend_echelon, rank_of_rows, reduce_row
from .subspaces import SubspaceFamily


def rank_weight(ctx: FieldCtx, x) -> int:
    """Number of F_q-linearly-independent coordinates of x."""
    if ctx.q == 2:
        return rank_bits(x)
    return rank_of_rows(ctx.base, [ctx.coeffs(v) for v in x])


def rank_distance(ctx: FieldCtx, x, y) -> int:
    if len(x) != len(y):
        raise LengthMismatch("rank distance needs equal lengths")
    return rank_weight(ctx, tuple(ctx.sub(b, a) for a, b in zip(x, y)))


@dataclass(frozen=True)
class ProfileTable:
    """Intersection-gap maxima by subspace dimension 0..n, and rdip's witnesses."""

    kind: str
    values: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False, repr=False)
    first = 0  # the index of values[0]

    def at(self, i: int) -> int:
        last = self.first + len(self.values) - 1
        if not self.first <= i <= last:
            raise PreconditionError(f"{self.kind} index {i} out of range {self.first}..{last}")
        return self.values[i - self.first]


class WeightTable(ProfileTable):
    """Minimal realizing dimensions indexed by gap level 1..dim(C1/C2)."""

    first = 1


class _Columns:
    """One code's ranks of H B^T over a stream of bases, at any q, on
    echelons of its columns (`LinearCode.parity_columns`)."""

    suffix, spans, empty = None, (), ()  # spans[j] spans the columns of ids[j:]

    def __init__(self, code: LinearCode):
        self.ctx, self.columns = code.ctx, code.parity_columns

    def rank(self, ids: tuple[int, ...]) -> int:
        """rank(H B^T) over F_{q^m}, B the base-field rows with these ids; only
        the rows before the suffix shared with the last basis are added."""
        if not ids:
            return 0
        suffix, spans, k = ids[1:], self.spans, len(ids)
        if suffix != self.suffix:
            if len(spans) != k + 1:
                spans = self.spans = [self.empty] * (k + 1)
            else:
                while ids[k - 1] == self.suffix[k - 2]:
                    k -= 1
            for j in range(k - 1, 0, -1):
                spans[j] = self.extend(spans[j + 1], ids[j])
            self.suffix = suffix
        return self.rank_with(spans[1], ids[0])

    def extend(self, span: tuple, row_id: int) -> tuple:
        return extend_echelon(self.ctx, span, self.columns[row_id])

    def rank_with(self, span: tuple, row_id: int) -> int:
        return len(span) + any(reduce_row(self.ctx, span, self.columns[row_id]))


class _PackedColumns(_Columns):
    """_Columns at q = 2 on pivot dicts of `LinearCode.parity_keys`: a row
    adds all m keys or none, as the key of H b^T reduces to 0 or not."""

    empty = {}  # never changed: extend copies a span before adding to it

    def __init__(self, code: LinearCode):
        self.m, self.columns = code.ctx.m, code.parity_keys

    def extend(self, span: dict, row_id: int) -> dict:
        keys = self.columns[row_id]
        if not (v := reduce_bits(span, keys[0])):
            return span
        return extend_bits({**span, v.bit_length() - 1: v}, keys[1:])  # keys[0] reduced once

    def rank_with(self, span: dict, row_id: int) -> int:
        return len(span) // self.m + (reduce_bits(span, self.columns[row_id][0]) != 0)


class _PairEngine:
    """Shared enumeration state for one (C1, C2) pair; `l` is dim C1/C2 when
    the caller has already checked the pair."""

    def __init__(self, c1: LinearCode, c2: LinearCode, family: str, l: int | None = None):
        self.quotient_dim = quotient_dim(c1, c2) if l is None else l
        self.ctx, self.n = c1.ctx, c1.n
        # every level is admitted before a column is read
        self.families = [SubspaceFamily(self.ctx, self.n, i, family) for i in range(self.n + 1)]
        columns = _PackedColumns if self.ctx.q == 2 else _Columns
        self.cols1, self.cols2 = columns(c1), columns(c2)

    def gap(self, ids: tuple[int, ...]) -> int:
        """dim(C1 cap V) - dim(C2 cap V) for V spanned by the base-field rows with these ids."""
        return self.cols2.rank(ids) - self.cols1.rank(ids)

    def max_gap(self, i: int, bound: int) -> tuple[int, tuple[int, ...]]:
        """(K_i, the first basis reaching it), stopping at a gap of `bound`."""
        best, witness = -1, ()
        for ids in self.families[i].bases:
            meet1 = i - self.cols1.rank(ids)
            if meet1 <= best:  # the gap is at most dim(C1 cap V)
                continue
            gap = meet1 - (i - self.cols2.rank(ids))
            if gap > best:
                require(gap <= bound, f"gap {gap} at level {i} exceeds the unit-step bound {bound}")
                best, witness = gap, ids
                if gap == bound:
                    break
        return best, witness


class _Memo(OrderedDict):
    """The `size` most recently used finished profiles by key; hits and
    misses are counted.  A computation that raises stores nothing."""

    def __init__(self, size: int):
        super().__init__()
        self.size, self.hits, self.misses = size, 0, 0

    def lookup(self, key: tuple, compute: Callable[[], ProfileTable]) -> ProfileTable:
        table = self.get(key)
        if table is not None:
            self.hits += 1
            self.move_to_end(key)
            return table
        self.misses += 1
        table = self[key] = compute()
        if len(self) > self.size:
            self.popitem(last=False)
        return table

    def clear(self) -> None:
        super().clear()
        self.hits = self.misses = 0


_profiles = _Memo(16)


def rdip(c1: LinearCode, c2: LinearCode, *, family: str = "qinvariant") -> ProfileTable:
    """Profile table K_0..K_n of the pair, each level a bounded maximum with
    its witness.  The pair is checked on every call; the table is then
    looked up by value (both generators, whose equality covers the field,
    and the family), so equal pairs are profiled once while they stay among
    the recent ones."""
    l = quotient_dim(c1, c2)
    return _profiles.lookup((c1.gen, c2.gen, family), lambda: _profile(c1, c2, family, l))


def _profile(c1: LinearCode, c2: LinearCode, family: str, l: int) -> ProfileTable:
    engine = _PairEngine(c1, c2, family, l)
    levels = []
    for i in range(engine.n + 1):
        bound = min(levels[-1][0] + 1, engine.quotient_dim) if levels else 0
        levels.append(engine.max_gap(i, bound))
    values, witnesses = zip(*levels)
    kind = "RDIP" if family == "qinvariant" else "RDLP"
    table = ProfileTable(kind, values, witnesses)
    _validate_profile(table, engine.quotient_dim)
    return table


def _validate_profile(table: ProfileTable, quotient_dim: int) -> None:
    v = table.values
    require(v[0] == 0 and v[-1] == quotient_dim, "profile endpoints violated")
    require(all(0 <= b - a <= 1 for a, b in zip(v, v[1:])), "profile must rise by unit steps")


def weights_from_profile(table: ProfileTable) -> WeightTable:
    """Weight table M_1..M_l read off a profile: M_i is the smallest
    subspace dimension whose profile value reaches i."""
    kind = "RGRW" if table.kind == "RDIP" else "RGHW"
    return _weight_table(kind, tuple(table.values.index(i)
                                     for i in range(1, table.values[-1] + 1)))


def _weight_table(kind: str, values: tuple[int, ...]) -> WeightTable:
    require(all(b > a for a, b in zip(values, values[1:])), "weights must strictly increase")
    return WeightTable(kind, values)


def rgrw(c1: LinearCode, c2: LinearCode, *, family: str = "qinvariant",
         method: str = "profile") -> WeightTable:
    """Weight table M_1..M_l; derived from the profile table by default."""
    if method == "profile":
        return weights_from_profile(rdip(c1, c2, family=family))
    if method != "direct":
        raise PreconditionError(f"unknown method {method!r}")
    engine = _PairEngine(c1, c2, family)
    maxima = [max(map(engine.gap, level.bases)) for level in engine.families]
    values = tuple(next(j for j, v in enumerate(maxima) if v >= i)
                   for i in range(1, engine.quotient_dim + 1))
    return _weight_table("RGRW" if family == "qinvariant" else "RGHW", values)


def rdlp(c1: LinearCode, c2: LinearCode) -> ProfileTable:
    return rdip(c1, c2, family="coordinate")


def rghw(c1: LinearCode, c2: LinearCode) -> WeightTable:
    return rgrw(c1, c2, family="coordinate")


def first_rgrw(c1: LinearCode, c2: LinearCode) -> int:
    """Smallest rank weight over C1 \\ C2 (the first entry of the weight table)."""
    return rgrw(c1, c2).at(1)

