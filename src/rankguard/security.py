"""Exact leakage measurement and the profile-table predictions it must match.

Probabilities are integer counts over one common denominator T, and every
information quantity is carried as a LogQuantity: the prime exponents of
the exact rational (q^m)^(T * value), merged by sums and differences.
Equality and the integer identities are decided on the exponents, orders by
a float sum of e * log p when it clears rounding and by integers otherwise.
Entropies use log base q^m, which makes the dimensional identities integers.

One primitive computes them all: `JointDistribution.entropy(key, bound)`,
the entropy of the weights grouped by an integer key per support entry,
whose exact power is T^T / prod c^c over the exact integer group masses c.
Keys of S_Z, X and W = X B^T come from numpy arrays built once per
distribution (uniform and seeded list C1 by NestedScheme.codeword_digits,
without field arithmetic).  The support keeps X as one array of base-q
digits; row r of W is the linalg.RowImages image of B's row id b_r, stepped
from row r of the last wiretap asked (mostly by one unit: canonical bases
vary row 0 fastest), so no product is formed per wiretap.  W's key is the
dense integer sum_r w_r (q^m)^r while that stays below 2^62, else its rows
are renumbered by _fold.  Group masses are one np.bincount when the key's
bound is at most the support size and T < 2^53 (every partial sum is then an
integer below 2^53, exact in float64), and a sort otherwise.  A key with a
value per support entry tells the entries apart, so any pair with it groups
as it does: H(S_Z, X) = H(X) when no two entries share an X, and I(S_Z; W) =
H(S_Z) for such a W.  For a message index set Z the chain rule gives every
other quantity:

    D(S_Z || U)              = |Z| - H(S_Z)
    D(X || U_coset | S_Z)    = (dim C1 - |Z|) - H(S_Z, X) + H(S_Z)
    I(S_Z ; W)               = H(S_Z) + H(W) - H(S_Z, W)
    H(S_Z | W)               = H(S_Z) - I(S_Z ; W)

Leakage maximization ranges over canonical wiretap row spaces rather than
raw matrices: the observation through B is a deterministic function of the
observation through any matrix with the same row space (and vice versa),
so mutual information only depends on row(B).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import decoder
from .codes import require_scan_cap
from .coset_scheme import NestedScheme
from .errors import DimensionMismatch, EnumerationTooLarge, PreconditionError, require
from .gf import factor
from .linalg import Matrix, RowImages, field_digits, field_values
from .network import enumerate_wiretap
from .rank_metrics import first_rgrw, rdip

MAX_STRENGTH_SUBSET_BITS = 12


def _log_big(x: int) -> float:
    bits = x.bit_length()
    if bits <= 900:
        return math.log(x)
    shift = bits - 900
    return math.log(x >> shift) + shift * math.log(2)


# A float sum of e * log p decides an order only when it clears this share of
# sum |e * log p|.  Each term is within about 2 ulps (math.log within one,
# converting e and multiplying within half each) and fsum rounds once, so the
# float is off by under 3 * 2^-52 < 1e-15 of that share: a 1000-fold margin.
ORDER_TOLERANCE = 1e-12


@dataclass(frozen=True)
class LogQuantity:
    """(1/T) * log_order(power), kept exact as the prime factorization of
    power: sorted (prime, exponent) pairs without zero exponents, so that
    equal quantities have equal fields and equal hashes."""

    exponents: tuple[tuple[int, int], ...]
    denom: int
    order: int

    @staticmethod
    def _of(exps: dict, denom: int, order: int) -> "LogQuantity":
        return LogQuantity(tuple(sorted((p, e) for p, e in exps.items() if e)), denom, order)

    @staticmethod
    def from_integer(k: int, denom: int, order: int) -> "LogQuantity":
        return LogQuantity._of({p: e * denom * k for p, e in factor(order)}, denom, order)

    def _parts(self) -> tuple[int, int]:
        """The numerator and denominator of power, coprime as built."""
        return (math.prod(p**e for p, e in self.exponents if e > 0),
                math.prod(p**-e for p, e in self.exponents if e < 0))

    @property
    def power(self) -> Fraction:
        num, den = self._parts()
        power = Fraction(num)  # an int alone skips the gcd, and num, den share no prime
        power._denominator = den
        return power

    @property
    def value(self) -> float:
        num, den = self._parts()
        return (_log_big(num) - _log_big(den)) / (self.denom * math.log(self.order))

    def as_integer(self) -> int | None:
        """The exact integer this equals, or None."""
        log_power = math.fsum(e * math.log(p) for p, e in self.exponents)
        k = round(log_power / (self.denom * math.log(self.order)))
        return k if self == LogQuantity.from_integer(k, self.denom, self.order) else None

    def _combine(self, other: "LogQuantity", sign: int) -> "LogQuantity":
        if (self.denom, self.order) != (other.denom, other.order):
            raise PreconditionError("quantities live on different denominators")
        exps = dict(self.exponents)
        for p, e in other.exponents:
            exps[p] = exps.get(p, 0) + sign * e
        return LogQuantity._of(exps, self.denom, self.order)

    def __add__(self, other: "LogQuantity") -> "LogQuantity":
        return self._combine(other, 1)

    def __sub__(self, other: "LogQuantity") -> "LogQuantity":
        return self._combine(other, -1)

    def _sign(self, other: "LogQuantity") -> int:
        """Sign of self - other; exact integers decide inside ORDER_TOLERANCE."""
        diff = self - other
        terms = [e * math.log(p) for p, e in diff.exponents]
        total = math.fsum(terms)
        if abs(total) > ORDER_TOLERANCE * math.fsum(map(abs, terms)):
            return 1 if total > 0 else -1
        num, den = diff._parts()
        return (num > den) - (num < den)

    def __le__(self, other: "LogQuantity") -> bool:
        return self._sign(other) <= 0

    def __lt__(self, other: "LogQuantity") -> bool:
        return self._sign(other) < 0

    def __repr__(self) -> str:
        return f"LogQuantity({self.value:.6f})"


def _fold(size: int, columns: Iterable[np.ndarray], base: int) -> tuple[np.ndarray, int]:
    """(key, bound): an injective key per entry of its column values (each
    below base), renumbered by np.unique after every column, so that it stays
    below bound, its number of distinct values."""
    key, bound = np.zeros(size, np.int64), 1
    for col in columns:
        values, key = np.unique(key * base + col, return_inverse=True)
        bound = len(values)
    return key, bound


# Integer keys, and the products of their bounds, stay below this bound, so
# forming a pair key never leaves int64.
DENSE_KEY_BOUND = 2**62


def _int_array(rows: list, width: int, bound: int, what: str) -> np.ndarray:
    """rows as an int64 array of shape (len(rows), width), entries in 0..bound-1."""
    try:
        arr = np.array(rows).reshape(len(rows), width)
    except ValueError as exc:  # ragged rows, or rows of another length
        raise DimensionMismatch(f"every {what} must have length {width}") from exc
    if arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= bound:
        raise PreconditionError(f"{what} symbols must be integers in 0..{bound - 1}")
    return arr.astype(np.int64)


class JointDistribution:
    """Exact joint distribution of (message, transmitted packets).

    Entries carry integer weights over the common denominator T; the
    support is every coset member of every message, so uniform weights give
    the canonical 'S uniform, X conditionally uniform' case; the support is
    C1, so the scan cap bounds it.  Weights must be integers (int or numpy
    integer).  The support is held as arrays: message symbols, weights
    (int64 while T fits, else Python ints), a key of X, and the base-q digits
    of X (m x n x entries, the layout linalg.RowImages reads), with the row
    images and values of the last wiretap asked, and nothing per row id met.
    uniform and seeded list C1 by NestedScheme.codeword_digits.
    """

    def __init__(self, scheme: NestedScheme, weights: dict):
        require_scan_cap(scheme.c1.codeword_count())
        if not all(isinstance(w, (int, np.integer)) for w in weights.values()):
            raise PreconditionError("weights must be integers")
        support = [(S, X, int(w)) for (S, X), w in weights.items() if w]  # no uint8 sum wraps
        total = sum(w for _, _, w in support)
        if total <= 0 or any(w < 0 for _, _, w in support):
            raise PreconditionError("weights must be nonnegative with a positive total")
        ctx = scheme.ctx
        x = _int_array([X for _, X, _ in support], scheme.n, ctx.order, "X")
        self._adopt(scheme, _int_array([S for S, _, _ in support], scheme.l, ctx.order, "S"),
                    [w for _, _, w in support], total, field_digits(x.T, ctx.q, ctx.m))

    def _adopt(self, scheme: NestedScheme, symbols: np.ndarray, weights, total: int,
               digits: np.ndarray) -> None:
        """Hold the support arrays (weights int64 while T < 2^63) and key X."""
        self.scheme, self.ctx, self.total, self._symbols_arr = scheme, scheme.ctx, total, symbols
        self._weights = np.array(weights, np.int64 if total < 2**63 else object)
        self._digits, self._message_memo = digits, None
        self._images, self._rows = RowImages(digits, self.ctx.q), []
        self._x_key, self._x_bound = _fold(len(weights), field_values(digits, self.ctx.q),
                                           self.ctx.order)

    @property
    def entries(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """The support as (S, X, weight) triples."""
        x = field_values(self._digits, self.ctx.q).T
        return list(zip(map(tuple, self._symbols_arr.tolist()), map(tuple, x.tolist()),
                        self._weights.tolist()))

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _listed(scheme: NestedScheme, weights, total: int) -> "JointDistribution":
        """Entry e of NestedScheme.codeword_digits, weighing weights[e]; its
        message is the base-order digits of e // |C2|, S_0 the most significant."""
        message = np.arange(len(weights)) // scheme.c2.codeword_count()
        dist = JointDistribution.__new__(JointDistribution)
        dist._adopt(scheme, np.stack(np.unravel_index(message, (scheme.ctx.order,) * scheme.l), 1),
                    weights, total, np.concatenate(list(scheme.codeword_digits()), axis=2))
        return dist

    @staticmethod
    def uniform(scheme: NestedScheme) -> "JointDistribution":
        require_scan_cap(count := scheme.c1.codeword_count())
        return JointDistribution._listed(scheme, np.ones(count, np.int64), count)

    @staticmethod
    def seeded(scheme: NestedScheme, rng: random.Random,
               max_weight: int = 4) -> "JointDistribution":
        """Random integer weights: message weight times per-coset weight.

        Per-coset weight patterns share a common sum so that one global
        denominator exists (a coset redraws its pattern until the sums match,
        at most decoder.DEFAULT_SAMPLED_BUDGET times); weights >= 1 keep full support.
        """
        if not isinstance(max_weight, int) or max_weight < 1:
            raise PreconditionError(f"max_weight must be an integer >= 1, got {max_weight!r}")
        require_scan_cap(scheme.c1.codeword_count())
        coset_size, budget = scheme.c2.codeword_count(), decoder.DEFAULT_SAMPLED_BUDGET
        pattern_sum, weights = None, []
        for _ in scheme.messages():
            sw = rng.randrange(1, max_weight + 1)
            for _ in range(budget + 1):  # the first draw, then the redraws
                pattern = [rng.randrange(1, max_weight + 1) for _ in range(coset_size)]
                pattern_sum = pattern_sum or sum(pattern)  # the first coset's sum, >= 1
                if sum(pattern) == pattern_sum:
                    break
            else:
                raise EnumerationTooLarge(f"seeded weights: a coset redrew more than {budget}"
                                          " patterns (decoder.DEFAULT_SAMPLED_BUDGET)")
            weights += [sw * w for w in pattern]
        return JointDistribution._listed(scheme, weights, sum(weights))

    # -- exact quantities --------------------------------------------------------

    def integer(self, k: int) -> LogQuantity:
        return LogQuantity.from_integer(k, self.total, self.ctx.order)

    def _masses(self, key: np.ndarray) -> np.ndarray:
        """Exact integer sum of the weights of each key value, in key order,
        by a sort: the path for any key and any T, and the reference."""
        by_key = np.argsort(key)
        ranked = key[by_key]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        return np.add.reduceat(self._weights[by_key], starts)

    def _group_masses(self, key: np.ndarray, bound: int | None) -> np.ndarray:
        """_masses, by one float64 np.bincount when every key is below a bound
        of at most the support size and T < 2^53: each weight and partial sum
        is then an integer below 2^53, which float64 holds exactly."""
        if bound is None or bound > len(self._weights) or self.total >= 2**53:
            return self._masses(key)
        sums = np.bincount(key, weights=self._weights)
        return sums[sums > 0].astype(np.int64)  # no support entry weighs 0

    def entropy(self, key: np.ndarray, bound: int | None = None) -> LogQuantity:
        """H of the weights grouped by an integer key per entry; bound, if
        given, exceeds every key."""
        return self._entropy_of(self._group_masses(key, bound))

    def _entropy_of(self, masses: np.ndarray) -> LogQuantity:
        """H of the group masses c over the common denominator T, exact:
        exp(T * H) = T^T / prod c^c, so each prime p has exponent
        T v_p(T) - sum c v_p(c)."""
        masses, groups = np.unique(masses, return_counts=True)
        exps = {p: self.total * e for p, e in factor(self.total)}
        for c, g in zip(masses.tolist(), groups.tolist()):
            for p, e in factor(c):
                exps[p] = exps.get(p, 0) - c * g * e
        return LogQuantity._of(exps, self.total, self.ctx.order)

    def _symbols(self, z_indices: Sequence[int] | None) -> tuple[int, ...]:
        """The message index set Z; None means all l symbols."""
        if z_indices is None:
            return tuple(range(self.scheme.l))
        z = tuple(sorted(set(z_indices)))
        if not set(z) <= set(range(self.scheme.l)):
            raise PreconditionError("indices must lie in 0..l-1")
        return z

    def _message(self, z: tuple[int, ...]) -> tuple[np.ndarray, int, LogQuantity]:
        """The key of S_Z per entry, its bound and H(S_Z), kept for the last Z asked."""
        if self._message_memo is None or self._message_memo[0] != z:
            key, bound = _fold(len(self._weights), self._symbols_arr[:, z].T, self.ctx.order)
            self._message_memo = (z, key, bound, self.entropy(key, bound))
        return self._message_memo[1:]

    def _observation_key(self, B: Matrix) -> tuple[np.ndarray, int]:
        """(key, bound) of W = X B^T per entry: the dense key sum_r w_r (q^m)^r
        while (q^m)^R <= DENSE_KEY_BOUND, else the rows' values folded.  Row r
        of W is the image of B's row id b_r, stepped from the image of row r
        of the last B asked (canonical bases vary row 0 fastest, so mostly by
        one unit); only those rows are kept, with their values."""
        q, order, n = self.ctx.q, self.ctx.order, self.scheme.n
        if B.ncols != n:
            raise DimensionMismatch(f"wiretap matrix needs {n} columns, got {B.ncols}")
        if not all(isinstance(c, int) and 0 <= c < q for row in B.rows for c in row):
            raise PreconditionError(f"wiretap entries must lie in F_{q}")
        rows = []
        for r, row in enumerate(B.rows):
            b = sum(c * q**j for j, c in enumerate(row))
            frm, image, values = self._rows[r] if r < len(self._rows) else (0, self._images.zero, None)
            if frm != b or values is None:
                image = self._images.step(image, frm, b)
                values = field_values(image, q)
            rows.append((b, image, values))
        self._rows = rows
        if order**B.nrows > DENSE_KEY_BOUND:
            return _fold(len(self._weights), [values for _, _, values in rows], order)
        key = np.zeros(len(self._weights), np.int64)
        for _, _, values in reversed(rows):  # Horner's rule, from the last row
            key *= order
            key += values
        return key, order**B.nrows

    def _joint(self, key: np.ndarray, bound: int, other: np.ndarray,
               other_bound: int) -> tuple[np.ndarray, int]:
        """(key, bound) of the pair of two keys, the first folded (its bound is
        its number of values).  If that number is the support size, the first
        key tells the entries apart alone and is the pair's key; otherwise the
        second is folded first if the product of the bounds would pass
        DENSE_KEY_BOUND."""
        if bound == len(self._weights):
            return key, bound
        if bound * other_bound > DENSE_KEY_BOUND:
            other, other_bound = _fold(len(other), [other], other_bound)
        return key * other_bound + other, bound * other_bound

    def message_entropy(self, z_indices: Sequence[int] | None = None) -> LogQuantity:
        """H(S_Z)."""
        return self._message(self._symbols(z_indices))[2]

    def divergence_message_from_uniform(
            self, z_indices: Sequence[int] | None = None) -> LogQuantity:
        """D(S_Z || uniform) = |Z| - H(S_Z)."""
        z = self._symbols(z_indices)
        return self.integer(len(z)) - self.message_entropy(z)

    def divergence_packets_from_coset_uniform(
            self, z_indices: Sequence[int] | None = None) -> LogQuantity:
        """D(X || uniform on the coset of S_Z | S_Z) = log(coset size)
        - H(S_Z, X) + H(S_Z); given S_Z, X ranges over a coset of the partial
        subcode, of dimension dim C1 - |Z|."""
        z = self._symbols(z_indices)
        key, bound, entropy = self._message(z)
        joint = self.entropy(*self._joint(self._x_key, self._x_bound, key, bound))
        return self.integer(self.scheme.c1.k - len(z)) - joint + entropy

    def mutual_information(self, B: Matrix, z_indices: Sequence[int] | None = None) -> LogQuantity:
        """I(S_Z ; W) = H(S_Z) + H(W) - H(S_Z, W) for W = X B^T.  A W with a
        value per support entry tells the entries apart, so (S_Z, W) groups as
        W does and I = H(S_Z)."""
        key, bound, entropy = self._message(self._symbols(z_indices))
        observed, observed_bound = self._observation_key(B)
        masses = self._group_masses(observed, observed_bound)
        if len(masses) == len(self._weights):
            return entropy
        return (entropy + self._entropy_of(masses)
                - self.entropy(*self._joint(key, bound, observed, observed_bound)))


# -- leakage over all wiretap matrices ----------------------------------------


@dataclass
class LeakageReport:
    """Worst-case leakage at mu tapped links, with its exact prediction."""

    mu: int
    z_indices: tuple[int, ...] | None
    max_leakage: LogQuantity
    argmax_b: Matrix
    predicted: int
    slack_s: LogQuantity
    slack_x: LogQuantity
    equivocation: LogQuantity

    def sandwich_holds(self) -> bool:
        lo = self.predicted_quantity() - self.slack_s
        hi = self.predicted_quantity() + self.slack_x
        return lo <= self.max_leakage <= hi

    def predicted_quantity(self) -> LogQuantity:
        return LogQuantity.from_integer(self.predicted, self.max_leakage.denom,
                                        self.max_leakage.order)

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "z_indices": list(self.z_indices) if self.z_indices is not None else None,
            "max_leakage": self.max_leakage.value,
            "max_leakage_exact_integer": self.max_leakage.as_integer(),
            "argmax_b": self.argmax_b.to_json(),
            "predicted": self.predicted,
            "slack_s": self.slack_s.value,
            "slack_x": self.slack_x.value,
            "equivocation": self.equivocation.value,
            "sandwich_holds": self.sandwich_holds(),
        }


def predicted_leakage(scheme: NestedScheme, mu: int,
                      z_indices: Sequence[int] | None = None) -> int:
    """Profile value K_mu of the relevant dual pair; 0 for an empty index set.
    Beyond mu = n extra taps add nothing, so the prediction is K_n."""
    if z_indices is None:
        z_indices = tuple(range(scheme.l))
    z = tuple(sorted(set(z_indices)))
    if not z:
        return 0
    big = scheme.partial_subcode(z)
    outer, inner = big.dual(), scheme.c1.dual()
    if outer.k == inner.k:
        return 0
    return rdip(outer, inner).at(min(mu, scheme.n))


def leakage_report(scheme: NestedScheme, mu: int, dist: JointDistribution,
                   z_indices: Sequence[int] | None = None,
                   mode: str = "rowspace") -> LeakageReport:
    """Maximize I(S_Z ; X B^T) over wiretap matrices with <= mu rows."""
    if dist.scheme is not scheme and dist.scheme.to_json() != scheme.to_json():
        raise PreconditionError("distribution was built for a different scheme")
    if mu < 0:
        raise PreconditionError(f"need mu >= 0 tapped links, got {mu}")
    z = tuple(sorted(set(z_indices))) if z_indices is not None else None
    best = best_b = None
    for B in enumerate_wiretap(scheme.ctx.q, scheme.n, mu, mode=mode):
        value = dist.mutual_information(B, z)
        if best is None or best < value:  # strict: the first maximizer stays
            best, best_b = value, B
    return LeakageReport(
        mu=mu,
        z_indices=z,
        max_leakage=best,
        argmax_b=best_b,
        predicted=predicted_leakage(scheme, mu, z),
        slack_s=dist.divergence_message_from_uniform(z),
        slack_x=dist.divergence_packets_from_coset_uniform(z),
        equivocation=dist.message_entropy(z) - best,
    )


def universal_equivocation(scheme: NestedScheme, mu: int,
                           dist: JointDistribution) -> LeakageReport:
    return leakage_report(scheme, mu, dist)


def partial_leakage(scheme: NestedScheme, z_indices: Sequence[int], mu: int,
                    dist: JointDistribution) -> LeakageReport:
    return leakage_report(scheme, mu, dist, z_indices)


# -- universal maximum strength -------------------------------------------------


def omega_exact(scheme: NestedScheme) -> int:
    """Smallest over message-index subsets of (first weight of the dual
    partial pair plus the subset size), minus two.  The empty subset never
    leaks and so never constrains the minimum."""
    if scheme.l > MAX_STRENGTH_SUBSET_BITS:
        raise EnumerationTooLarge(f"2^l subsets with l={scheme.l} exceeds the cap")
    best = None
    for mask in range(1, 2**scheme.l):
        z = tuple(i for i in range(scheme.l) if mask >> i & 1)
        big = scheme.partial_subcode(z)
        value = first_rgrw(big.dual(), scheme.c1.dual()) + len(z)
        if best is None or value < best:
            best = value
    return best - 2


def omega_bounds(scheme: NestedScheme) -> tuple[int, int]:
    """(lower, upper) from l single-index computations each."""
    uppers = []
    lowers = []
    for i in range(scheme.l):
        c3 = scheme.partial_subcode([i])
        uppers.append(first_rgrw(c3.dual(), scheme.c1.dual()))
        d1, d2 = scheme.bound_codes(i)
        lowers.append(first_rgrw(d2.dual(), d1.dual()))
    return min(lowers) - 1, min(uppers) - 1


@dataclass
class StrengthWitness:
    omega: int
    zero_at: list[tuple[tuple[int, ...], int]]
    witness_z: tuple[int, ...]
    witness_mu: int
    witness_leakage: float


def verify_strength_empirically(scheme: NestedScheme, omega: int,
                                dist: JointDistribution | None = None) -> StrengthWitness:
    """Check the defining property of the strength at its boundary.

    For every nonempty index set Z, leakage of S_Z must be exactly zero at
    mu = omega - |Z| + 1; and some (Z, B) must leak at mu one larger.
    """
    if dist is None:
        dist = JointDistribution.uniform(scheme)
    zero_at = []
    witness = None
    for mask in range(1, 2**scheme.l):
        z = tuple(i for i in range(scheme.l) if mask >> i & 1)
        mu_safe = omega - len(z) + 1
        if mu_safe >= 0:
            report = partial_leakage(scheme, z, mu_safe, dist)
            require(report.max_leakage.as_integer() == 0,
                    f"leakage at the safe boundary for Z={z}")
            zero_at.append((z, mu_safe))
        if witness is None and mu_safe + 1 <= scheme.n:
            report = partial_leakage(scheme, z, mu_safe + 1, dist)
            leak = report.max_leakage
            if not (leak <= dist.integer(0)):
                witness = (z, mu_safe + 1, leak.value)
    require(witness is not None, "no leakage witness just beyond the strength")
    return StrengthWitness(omega, zero_at, witness[0], witness[1], witness[2])
