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
give B as a tuple of row ids (see `subspaces`), and each code memoizes the
column H b^T of every distinct row id, so a gap is two `rank_of_rows`
calls on i memoized columns and builds no Matrix.  The reference,
`LinearCode.intersect`, works on any V through duals,
C cap V = (C_dual + V_dual)_dual; tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitrank import rank_bits
from .codes import LinearCode, quotient_dim
from .errors import LengthMismatch, PreconditionError, require
from .gf import FieldCtx
from .linalg import expand_to_base, rank_of_rows, vec_mat
from .subspaces import SubspaceFamily, row_digits


def rank_weight(ctx: FieldCtx, x) -> int:
    """Number of F_q-linearly-independent coordinates of x."""
    if ctx.q == 2:
        return rank_bits(x)
    return expand_to_base(ctx, x).rank()


def rank_distance(ctx: FieldCtx, x, y) -> int:
    if len(x) != len(y):
        raise LengthMismatch("rank distance needs equal lengths")
    return rank_weight(ctx, tuple(ctx.sub(b, a) for a, b in zip(x, y)))


@dataclass(frozen=True)
class ProfileTable:
    """Intersection-gap maxima indexed by subspace dimension 0..n."""

    kind: str
    values: tuple[int, ...]
    first = 0  # the index of values[0]

    def at(self, i: int) -> int:
        last = self.first + len(self.values) - 1
        if not self.first <= i <= last:
            raise PreconditionError(f"{self.kind} index {i} out of range {self.first}..{last}")
        return self.values[i - self.first]

    def __len__(self) -> int:
        return len(self.values)


class WeightTable(ProfileTable):
    """Minimal realizing dimensions indexed by gap level 1..dim(C1/C2)."""

    first = 1


class _Columns(dict):
    """One code's memo: row id of a base-field row b -> the column H b^T
    (a base-field digit is also its own embedding in F_{q^m})."""

    def __init__(self, code: LinearCode):
        super().__init__()
        self.ctx, self.n = code.ctx, code.n
        self.parity_t = code.dual().gen.transpose()

    def __missing__(self, row_id: int) -> tuple[int, ...]:
        b = row_digits(row_id, self.ctx.q, self.n)
        col = self[row_id] = vec_mat(self.ctx, b, self.parity_t)
        return col

    def rank(self, ids: tuple[int, ...]) -> int:
        """rank(H B^T) over F_{q^m}, B the base-field rows with these ids."""
        return rank_of_rows(self.ctx, [self[b] for b in ids])


class _PairEngine:
    """Shared enumeration state for one (C1, C2) pair."""

    def __init__(self, c1: LinearCode, c2: LinearCode, family: str):
        self.quotient_dim = quotient_dim(c1, c2)
        self.ctx, self.n = c1.ctx, c1.n
        self.cols1, self.cols2 = _Columns(c1), _Columns(c2)
        self.family = family

    def gap(self, ids: tuple[int, ...]) -> int:
        """dim(C1 cap V) - dim(C2 cap V) for V spanned by the base-field rows with these ids."""
        return self.cols2.rank(ids) - self.cols1.rank(ids)

    def max_gap(self, i: int) -> int:
        family = SubspaceFamily(self.ctx, self.n, i, self.family)
        return max(map(self.gap, family.bases))


def rdip(c1: LinearCode, c2: LinearCode, *, family: str = "qinvariant") -> ProfileTable:
    """Profile table K_0..K_n of the pair, by streaming max over each family."""
    engine = _PairEngine(c1, c2, family)
    values = tuple(engine.max_gap(i) for i in range(engine.n + 1))
    kind = "RDIP" if family == "qinvariant" else "RDLP"
    table = ProfileTable(kind, values)
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
    values = tuple(next(j for j in range(engine.n + 1) if engine.max_gap(j) >= i)
                   for i in range(1, engine.quotient_dim + 1))
    return _weight_table("RGRW" if family == "qinvariant" else "RGHW", values)


def rdlp(c1: LinearCode, c2: LinearCode) -> ProfileTable:
    return rdip(c1, c2, family="coordinate")


def rghw(c1: LinearCode, c2: LinearCode) -> WeightTable:
    return rgrw(c1, c2, family="coordinate")


def first_rgrw(c1: LinearCode, c2: LinearCode, **kw) -> int:
    """Smallest rank weight over C1 \\ C2 (the first entry of the weight table)."""
    return rgrw(c1, c2, **kw).at(1)


def verify_bounds(c1: LinearCode, c2: LinearCode) -> dict:
    """Check every structural bound the weights must satisfy; all should pass
    for any correctly computed pair, so a failure flags an implementation bug.
    The profile's endpoints and unit steps, and strictly increasing weights,
    are not reported: rdip and weights_from_profile raise on them."""
    ctx = c1.ctx
    n, m = c1.n, ctx.m
    profile = rdip(c1, c2)
    weights = weights_from_profile(profile)
    l = c1.k - c2.k
    report: dict[str, bool] = {}
    cap_term = min(n - c1.k, (m - 1) * l)
    report["generalized_singleton"] = all(
        weights.at(i) <= cap_term + i for i in range(1, l + 1))
    # first-weight refinement with the m(n-k1)/(n-k2) term, compared exactly
    extra = Fraction(m * (n - c1.k), n - c2.k)
    report["first_weight_bound"] = Fraction(weights.at(1) - 1) <= min(
        Fraction(cap_term), extra)
    if c2.k == 0 and m >= 2:
        d = weights.at(1)
        k = c1.k
        if n <= m:
            ok = d <= n - k + 1
        elif k == 1:
            ok = d <= (m - 1) * k + 1
        else:
            ok = Fraction(d - 1) <= Fraction(m * (n - k), n)
        report["distance_case_split"] = ok
    report["all"] = all(report.values())
    return report
