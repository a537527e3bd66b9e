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
rank(H2 B^T) - rank(H1 B^T): one (n-k) x i matrix per code.  For a
coordinate set I, H B^T is just the columns of H at I.  The reference,
`intersection_dim`, works on any V through duals,
dim(C cap V) = n - dim(C_dual + V_dual); tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitrank import rank_bits
from .codes import LinearCode
from .errors import LengthMismatch, NotASubcode, PreconditionError, require
from .gf import FieldCtx
from .linalg import Matrix, Subspace, expand_to_base, ext_vec_times_base_transpose
from .subspaces import DEFAULT_FAMILY_CAP, SubspaceFamily


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

    def at(self, i: int) -> int:
        if not 0 <= i < len(self.values):
            raise PreconditionError(f"profile index {i} out of range 0..{len(self.values) - 1}")
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class WeightTable:
    """Minimal realizing dimensions indexed by gap level 1..dim(C1/C2)."""

    kind: str
    values: tuple[int, ...]

    def at(self, i: int) -> int:
        if not 1 <= i <= len(self.values):
            raise PreconditionError(f"weight index {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def __len__(self) -> int:
        return len(self.values)


def _check_nested(c1: LinearCode, c2: LinearCode) -> int:
    if not c1.contains(c2) or c2.k >= c1.k:
        raise NotASubcode("need C2 a proper subcode of C1")
    return c1.k - c2.k


def intersection_dim(code: LinearCode, V: Subspace) -> int:
    """Reference dim(C cap V) for any V, via the dual-sum identity."""
    dual_gen = code.dual().gen
    stacked = dual_gen.stack(V.complement().basis)
    return code.n - stacked.rref()[1]


class _PairEngine:
    """Shared enumeration state for one (C1, C2) pair."""

    def __init__(self, c1: LinearCode, c2: LinearCode, family: str, cap: int):
        self.quotient_dim = _check_nested(c1, c2)
        self.ctx = c1.ctx
        self.n = c1.n
        self.h1 = c1.dual().gen.rows
        self.h2 = c2.dual().gen.rows
        self.family = family
        self.cap = cap

    def gap(self, B: Matrix) -> int:
        """dim(C1 cap V) - dim(C2 cap V) for V spanned by the base-field rows of B."""
        return self._rank(self.h2, B) - self._rank(self.h1, B)

    def _rank(self, h_rows, B: Matrix) -> int:
        """rank(H B^T) over the extension field."""
        rows = [ext_vec_times_base_transpose(self.ctx, h, B) for h in h_rows]
        return Matrix(self.ctx, rows, B.nrows).rank()

    def max_gap(self, i: int) -> int:
        family = SubspaceFamily(self.ctx, self.n, i, self.family, self.cap)
        return max(self.gap(B) for B in family.base_bases())


def rdip(c1: LinearCode, c2: LinearCode, *, family: str = "qinvariant",
         cap: int = DEFAULT_FAMILY_CAP) -> ProfileTable:
    """Profile table K_0..K_n of the pair, by streaming max over each family."""
    engine = _PairEngine(c1, c2, family, cap)
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
         method: str = "profile", cap: int = DEFAULT_FAMILY_CAP) -> WeightTable:
    """Weight table M_1..M_l; derived from the profile table by default."""
    if method == "profile":
        return weights_from_profile(rdip(c1, c2, family=family, cap=cap))
    if method != "direct":
        raise PreconditionError(f"unknown method {method!r}")
    engine = _PairEngine(c1, c2, family, cap)
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
    """Check every structural bound the tables must satisfy; all should pass
    for any correctly computed pair, so a failure flags an implementation bug."""
    ctx = c1.ctx
    n, m = c1.n, ctx.m
    profile = rdip(c1, c2)
    weights = weights_from_profile(profile)
    l = c1.k - c2.k
    report: dict[str, bool] = {}
    v = profile.values
    report["profile_endpoints"] = v[0] == 0 and v[-1] == l
    report["profile_unit_steps"] = all(0 <= b - a <= 1 for a, b in zip(v, v[1:]))
    report["weights_strictly_increasing"] = all(
        b > a for a, b in zip(weights.values, weights.values[1:]))
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
