import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankguard import (DimensionMismatch, EnumerationTooLarge, InvariantViolated,
                       PreconditionError, ctx_new, decoder, security)
from rankguard.codes import LinearCode
from rankguard.coset_scheme import NestedScheme, build_proposed
from rankguard.linalg import Matrix, embed_base_matrix, ext_vec_times_base_transpose
from rankguard.gf import PrimeField
from rankguard.network import enumerate_wiretap, sample_matrix
from rankguard.security import (
    JointDistribution,
    LogQuantity,
    leakage_report,
    omega_bounds,
    omega_exact,
    partial_leakage,
    predicted_leakage,
    universal_equivocation,
    verify_strength_empirically,
)
from schemes import random_scheme

F16 = ctx_new(2, 4)
GF2 = PrimeField(2)


def flagship():
    return build_proposed(F16, l=1, n=3, k=2)


@pytest.fixture(scope="module")
def scheme():
    return flagship()


@pytest.fixture(scope="module")
def uniform(scheme):
    return JointDistribution.uniform(scheme)


def test_logquantity_arithmetic():
    a = LogQuantity.from_integer(2, 5, 16)
    b = LogQuantity.from_integer(1, 5, 16)
    assert (a - b).as_integer() == 1
    assert (a + b).as_integer() == 3
    assert b < a and b <= a and a == a


@st.composite
def _quantity_pairs(draw):
    # exponent maps over a few primes, whole numbers from_integer, and their
    # sums, which land on or next to whole numbers; one (denom, order) per pair
    denom, order = draw(st.sampled_from([1, 3, 6])), draw(st.sampled_from([4, 9, 25]))
    maps = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), st.integers(-40, 40), max_size=4)
    raw = maps.map(lambda exps: LogQuantity._of(exps, denom, order))
    whole = st.integers(-3, 3).map(lambda k: LogQuantity.from_integer(k, denom, order))
    pick = st.one_of(raw, whole, st.tuples(raw, whole).map(lambda pair: pair[0] + pair[1]))
    return draw(pick), draw(pick)


@given(_quantity_pairs())
def test_logquantity_agrees_with_its_power(pair):
    a, b = pair
    for x in pair:
        # the power is the reduced product of the prime powers
        ref = math.prod((Fraction(p) ** e for p, e in x.exponents), start=Fraction(1))
        assert x.power == ref
        assert (x.power.numerator, x.power.denominator) == (ref.numerator, ref.denominator)
    assert (a < b) == (a.power < b.power) and (b < a) == (b.power < a.power)
    assert (a <= b) == (a.power <= b.power) and (b <= a) == (b.power <= a.power)
    assert (a == b) == (a.power == b.power)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert (a - b) + b == a and hash((a - b) + b) == hash(a)
    for x in (a, b, a + b, a - b):
        whole = [k for k in range(math.floor(x.value) - 1, math.ceil(x.value) + 2)
                 if x.power == Fraction(x.order) ** (x.denom * k)]
        assert [x.as_integer()] == (whole or [None])


def test_near_tie_is_ordered_by_exact_integers(monkeypatch):
    # 2^64 + 1 = 274177 * 67280421310721, both prime: the logs differ by about
    # 5e-20, far inside the tolerance, so only the exact fallback can order them
    low = LogQuantity(((2, 64),), 1, 4)
    high = LogQuantity(((274177, 1), (67280421310721, 1)), 1, 4)
    terms = [64 * math.log(2), -math.log(274177), -math.log(67280421310721)]
    assert abs(math.fsum(terms)) <= security.ORDER_TOLERANCE * math.fsum(map(abs, terms))
    exact = []
    parts = LogQuantity._parts
    monkeypatch.setattr(LogQuantity, "_parts", lambda self: exact.append(self) or parts(self))
    assert low < high and low <= high
    assert not high < low and not high <= low
    assert len(exact) == 4
    assert low != high and low.power < high.power


MIXED_SCRIPT = """
from rankguard import PreconditionError
from rankguard.security import LogQuantity

a = LogQuantity.from_integer(1, 5, 16)
for b in (LogQuantity.from_integer(1, 6, 16), LogQuantity.from_integer(1, 5, 9)):
    for op in (a.__add__, a.__sub__, a.__lt__, a.__le__):
        try:
            op(b)
        except PreconditionError as exc:
            print("PreconditionError:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_mixed_denominators_raise(flags):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, *flags, "-c", MIXED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "PreconditionError: quantities live on different denominators\n" * 8


def test_uniform_entropy_is_l(scheme, uniform):
    assert uniform.message_entropy().as_integer() == scheme.l
    assert uniform.divergence_message_from_uniform().as_integer() == 0
    assert uniform.divergence_packets_from_coset_uniform().as_integer() == 0


def test_point_mass_entropies(scheme):
    S = (5,)
    X = next(iter(scheme.coset_elements(S)))
    pm = JointDistribution(scheme, {(S, X): 1})
    assert pm.message_entropy().as_integer() == 0
    assert pm.divergence_message_from_uniform().as_integer() == scheme.l


def test_mi_zero_for_zero_wiretap(scheme, uniform):
    B0 = Matrix(GF2, [], 3)
    assert uniform.mutual_information(B0).as_integer() == 0


def test_mi_full_observation_reveals_message(scheme, uniform):
    B = Matrix.identity(GF2, 3)
    assert uniform.mutual_information(B).as_integer() == scheme.l


def test_uniform_mi_equals_dual_dimension_gap(scheme, uniform):
    d2 = scheme.c2.dual()
    d1 = scheme.c1.dual()
    for B in enumerate_wiretap(2, 3, 3):
        measured = uniform.mutual_information(B).as_integer()
        rowspace = LinearCode(F16, embed_base_matrix(F16, B))
        expected = d2.intersect(rowspace).k - d1.intersect(rowspace).k
        assert measured == expected


def test_mi_invariant_under_row_operations(scheme, uniform):
    rng = random.Random(71)
    for _ in range(10):
        B = sample_matrix(rng, 2, 2, 3)
        canonical = B.row_basis()
        assert (uniform.mutual_information(B)
                == uniform.mutual_information(canonical))


def test_leakage_report_uniform_flagship(scheme, uniform):
    expected_leak = {0: 0, 1: 0, 2: 1, 3: 1}
    expected_theta = {0: 1, 1: 1, 2: 0, 3: 0}
    for mu in range(4):
        report = universal_equivocation(scheme, mu, uniform)
        assert report.max_leakage.as_integer() == expected_leak[mu]
        assert report.predicted == expected_leak[mu]
        assert report.equivocation.as_integer() == expected_theta[mu]
        assert report.sandwich_holds()


def test_leakage_report_streams_wiretaps(scheme, uniform, monkeypatch):
    # each B is measured before the next is drawn, so no list of the (up to
    # DEFAULT_ENUM_CAP) wiretap matrices or their leakages is held
    drawn, measured = [], []
    wiretaps, mutual_information = security.enumerate_wiretap, JointDistribution.mutual_information

    def draw(*args, **kwargs):
        for B in wiretaps(*args, **kwargs):
            assert len(measured) == len(drawn)
            drawn.append(B)
            yield B

    def measure(self, B, z=None):
        measured.append(B)
        return mutual_information(self, B, z)

    monkeypatch.setattr(security, "enumerate_wiretap", draw)
    monkeypatch.setattr(JointDistribution, "mutual_information", measure)
    report = leakage_report(scheme, 2, uniform)
    assert measured == drawn and len(drawn) > 1
    assert report.max_leakage.as_integer() == 1


def test_nonuniform_sandwich_exact(scheme):
    rng = random.Random(72)
    dist = JointDistribution.seeded(scheme, rng)
    for mu in range(4):
        report = leakage_report(scheme, mu, dist)
        assert report.sandwich_holds()


def test_skewed_packets_have_positive_divergence(scheme):
    rng = random.Random(73)
    dist = JointDistribution.seeded(scheme, rng)
    assert not (dist.divergence_packets_from_coset_uniform()
                <= dist.integer(0))


def test_partial_leakage_full_index_set_matches_universal(scheme, uniform):
    for mu in range(4):
        full = universal_equivocation(scheme, mu, uniform)
        part = partial_leakage(scheme, [0], mu, uniform)
        assert part.max_leakage == full.max_leakage
        assert part.predicted == full.predicted


def test_predicted_leakage_empty_set(scheme):
    assert predicted_leakage(scheme, 2, []) == 0


def test_omega_flagship(scheme):
    omega = omega_exact(scheme)
    assert omega == scheme.c1.k - 1 == 1
    low, high = omega_bounds(scheme)
    assert low == high == omega


def test_strength_empirical(scheme):
    witness = verify_strength_empirically(scheme, omega_exact(scheme))
    assert witness.witness_mu == 2
    assert witness.witness_leakage > 0.5


def test_wrong_strength_raises(scheme):
    # omega = 2 claims safety at mu = 2, where the flagship leaks one symbol
    with pytest.raises(InvariantViolated):
        verify_strength_empirically(scheme, 2)


def test_two_symbol_scheme_strength():
    f64 = ctx_new(2, 6)
    scheme = build_proposed(f64, l=2, n=4, k=3)
    assert omega_exact(scheme) == scheme.c1.k - 1 == 2
    low, high = omega_bounds(scheme)
    assert low == high == 2


def test_strength_depends_on_coset_map():
    # same (C1, C2), arbitrary coset-representative matrices: the strength
    # can drop below k-1, and the bounds always sandwich it
    from rankguard.coset_scheme import NestedScheme

    f64 = ctx_new(2, 6)
    s = build_proposed(f64, l=2, n=4, k=3)
    rng = random.Random(99)
    seen = Counter()
    trials = 0
    while trials < 8:
        coeffs = [[rng.randrange(64) for _ in range(s.c1.k)] for _ in range(s.l)]
        rows = [s.c1.encode(tuple(c)) for c in coeffs]
        try:
            alt = NestedScheme(s.c1, s.c2, Matrix(s.ctx, rows, 4))
        except Exception:
            continue
        trials += 1
        om = omega_exact(alt)
        low, high = omega_bounds(alt)
        assert low <= om <= high
        seen[om] += 1
    assert seen == Counter({1: 6, 2: 2})


@pytest.mark.parametrize("k", [1, 2])
def test_omega_bounds_sandwich_q3(k):
    # k = 1 gives C2 = {0}, k = n = 2 a one-dimensional C2
    scheme = build_proposed(ctx_new(3, 3), l=1, n=2, k=k)
    low, high = omega_bounds(scheme)
    assert low <= omega_exact(scheme) == scheme.c1.k - 1 <= high


def test_entropy_divergence_identity(scheme):
    # H(S) = log|space| - D(S || uniform), exact and after float conversion
    rng = random.Random(75)
    for dist in [JointDistribution.uniform(scheme),
                 JointDistribution.seeded(scheme, rng)]:
        h = dist.message_entropy()
        d = dist.divergence_message_from_uniform()
        assert (h + d).as_integer() == scheme.l
        assert abs(h.value + d.value - scheme.l) < 1e-12


@pytest.mark.parametrize("dist_kind", ["uniform", "seeded", "q3-uniform", "q3-seeded"])
def test_full_mode_leakage_matches_rowspace(scheme, uniform, dist_kind):
    # the raw sweep over every mu x n wiretap matrix is the reference for the
    # row-space reduction; it keeps the first maximizing B in enumeration order.
    # At q = 3 the raw wiretaps (entry 2, zero rows, repeated rows) step the
    # observation key's row images, each checked against the field counts
    q = 3 if dist_kind.startswith("q3-") else 2
    if q == 3:
        scheme = random_scheme(random.Random(31), ctx_new(3, 2), 3, 1, 1)
        uniform = JointDistribution.uniform(scheme)
    if dist_kind.endswith("uniform"):
        dist = uniform
    else:
        dist = JointDistribution.seeded(scheme, random.Random(3))
    for mu in range(3):
        full = leakage_report(scheme, mu, dist, mode="full")
        rowspace = leakage_report(scheme, mu, dist)
        assert full.max_leakage == rowspace.max_leakage
        assert full.argmax_b.nrows == mu
        if q == 3:
            for B in enumerate_wiretap(q, scheme.n, mu, mode="full"):
                assert _matches(dist.mutual_information(B),
                                _reference_quantities(dist, None, B)["I"])
    if q == 2:
        assert full.argmax_b.rows == ((0, 1, 0), (1, 0, 0))


def _cond_entropy(cells: Counter, order: int) -> float:
    total = sum(cells.values())
    w_marg = Counter()
    for (s, w), c in cells.items():
        w_marg[w] += c
    h = 0.0
    for (s, w), c in cells.items():
        h -= (c / total) * math.log(c / w_marg[w], order)
    return h


def test_data_processing_with_errors(scheme, uniform):
    # a noisy observation W' = X B^T + E can only raise the conditional entropy
    rng = random.Random(74)
    for _ in range(5):
        B = sample_matrix(rng, 2, 2, 3)
        errors = [tuple(rng.randrange(16) for _ in range(2)) for _ in range(2)]
        clean, noisy = Counter(), Counter()
        for S, X, w in uniform.entries:
            W = ext_vec_times_base_transpose(F16, X, B)
            for E in errors:
                Wn = tuple(F16.add(a, b) for a, b in zip(W, E))
                clean[(S, W)] += w
                noisy[(S, Wn)] += w
        assert _cond_entropy(noisy, 16) >= _cond_entropy(clean, 16) - 1e-12


def _hand_built_scheme(ctx):
    # l = 2 over F_q^m with n = 3, C1 the full space and C2 = <(1, a, 1)>
    from rankguard.coset_scheme import NestedScheme

    a = ctx.alpha
    c1 = LinearCode.full(ctx, 3)
    c2 = LinearCode(ctx, [[1, a, 1]], 3)
    return NestedScheme(c1, c2, Matrix(ctx, [[1, 0, 0], [0, 1, a]], 3))


# name -> scheme builder: two l = 2 schemes with a nontrivial C2 over F_4 and
# F_9 (support 729), the explicit construction over F_16, and an l = 1
# construction over F_125
_RATIO_SCHEMES = {
    "F4-n3": lambda: _hand_built_scheme(ctx_new(2, 2)),
    "F16-n2": lambda: build_proposed(F16, l=2, n=2, k=2),
    "F9-n3": lambda: _hand_built_scheme(ctx_new(3, 2)),
    "F125-n2": lambda: build_proposed(ctx_new(5, 3), l=1, n=2, k=1),
}
_RATIO_CASES = [(name, z) for name in _RATIO_SCHEMES
                for z in ([None, (0,), (1,), (0, 1)] if name != "F125-n2" else [None, (0,)])]


def _ratio_product(terms):
    """prod (num / den)^count over (num, den, count) terms, as an unreduced
    integer pair; equal bases are gathered first to keep the products few."""
    num, den = Counter(), Counter()
    for n, d, count in terms:
        num[n] += count
        den[d] += count
    return (math.prod(base**e for base, e in num.items()),
            math.prod(base**e for base, e in den.items()))


def _matches(quantity, ratio):
    # cross-multiplied, so that the reference needs no gcd
    power = quantity.power
    return power.numerator * ratio[1] == ratio[0] * power.denominator


def _reference_quantities(dist, z, B):
    """Each quantity as its own ratio product over the counts of S_Z and X,
    in integers only: nothing is shared with the exponent maps."""
    scheme, order, total = dist.scheme, dist.ctx.order, dist.total
    z = tuple(range(scheme.l)) if z is None else z
    sz, sx, cells = Counter(), Counter(), Counter()
    for S, X, w in dist.entries:
        s = tuple(S[i] for i in z)
        sz[s] += w
        sx[(s, X)] += w
        cells[(s, ext_vec_times_base_transpose(dist.ctx, X, B))] += w
    s_marg, w_marg = Counter(), Counter()
    for (s, o), c in cells.items():
        s_marg[s] += c
        w_marg[o] += c
    coset_size = scheme.c2.codeword_count() * order ** (scheme.l - len(z))
    return {
        "H": _ratio_product((total, c, c) for c in sz.values()),
        "D_S": _ratio_product((c * order ** len(z), total, c) for c in sz.values()),
        "D_X": _ratio_product((c * coset_size, sz[s], c) for (s, _), c in sx.items()),
        "I": _ratio_product((c * total, s_marg[s] * w_marg[o], c)
                            for (s, o), c in cells.items()),
    }


@pytest.mark.parametrize("dist_kind", ["uniform", "seeded"])
@pytest.mark.parametrize("which, z", _RATIO_CASES, ids=[f"{w}-{z}" for w, z in _RATIO_CASES])
def test_quantities_match_ratio_products(which, z, dist_kind):
    scheme = _RATIO_SCHEMES[which]()
    dist = (JointDistribution.uniform(scheme) if dist_kind == "uniform"
            else JointDistribution.seeded(scheme, random.Random(11)))
    for mu in range(scheme.n + 1):
        report = leakage_report(scheme, mu, dist, z)
        ref = _reference_quantities(dist, z, report.argmax_b)
        assert _matches(report.max_leakage, ref["I"])
        assert _matches(report.equivocation + report.max_leakage, ref["H"])
        assert _matches(report.slack_s, ref["D_S"])
        assert _matches(report.slack_x, ref["D_X"])
    for B in enumerate_wiretap(scheme.ctx.q, scheme.n, scheme.n):
        assert _matches(dist.mutual_information(B, z), _reference_quantities(dist, z, B)["I"])


def _odd_scheme():
    return build_proposed(ctx_new(3, 3), l=1, n=2, k=1)


@pytest.mark.parametrize("dist_kind", ["uniform", "seeded"])
def test_full_mode_leakage_matches_rowspace_q3(dist_kind):
    scheme = _odd_scheme()
    dist = (JointDistribution.uniform(scheme) if dist_kind == "uniform"
            else JointDistribution.seeded(scheme, random.Random(5)))
    for mu in range(3):
        full = leakage_report(scheme, mu, dist, mode="full")
        rowspace = leakage_report(scheme, mu, dist)
        assert full.max_leakage == rowspace.max_leakage
        assert full.max_leakage == dist.mutual_information(full.argmax_b)
        assert full.argmax_b.nrows == mu
        assert rowspace.predicted == min(mu, 1) and rowspace.sandwich_holds()
        if dist_kind == "uniform":
            assert full.max_leakage.as_integer() == rowspace.predicted


def test_strength_empirical_q3():
    scheme = _odd_scheme()
    assert omega_exact(scheme) == 0
    witness = verify_strength_empirically(scheme, 0)
    assert witness.witness_mu == 1 and witness.witness_leakage > 0.5


def test_distribution_refuses_non_integer_weights():
    # every weight 1.5 used to hold weights 1 over a float total, and the
    # first leakage report died on an AttributeError
    s = build_proposed(ctx_new(2, 3), l=1, n=2, k=1)
    entries = [(S, X) for S, X, _ in JointDistribution.uniform(s).entries]
    for bad in [1.5, 2.0, Fraction(1), np.float64(1), "1"]:
        with pytest.raises(PreconditionError, match="weights must be integers"):
            JointDistribution(s, {entry: bad for entry in entries})
    for good in [1, np.int64(1), np.uint8(200)]:  # 8 weights of 200 pass 255
        dist = JointDistribution(s, {entry: good for entry in entries})
        assert dist.total == int(good) * len(entries) == int(good) * 8
        report = leakage_report(s, 1, dist)
        assert report.max_leakage.as_integer() == report.predicted == 1


def test_wiretap_entries_must_lie_in_base_field(scheme, uniform):
    # alpha of F_16 is the int 2: not an element of F_2
    with pytest.raises(PreconditionError):
        uniform.mutual_information(Matrix(F16, [[F16.alpha, 0, 0]], 3))
    odd = _odd_scheme()
    with pytest.raises(PreconditionError):
        JointDistribution.uniform(odd).mutual_information(Matrix(PrimeField(3), [[4, 0]], 2))
    with pytest.raises(DimensionMismatch):
        uniform.mutual_information(Matrix(GF2, [[1, 0]], 2))


def test_support_is_validated(scheme):
    S = (5,)
    X = next(iter(scheme.coset_elements(S)))
    with pytest.raises(DimensionMismatch):
        JointDistribution(scheme, {(S, X[:2]): 1})
    with pytest.raises(DimensionMismatch):
        JointDistribution(scheme, {(S, X): 1, ((1, 2), X): 1})
    with pytest.raises(PreconditionError):
        JointDistribution(scheme, {((99,), X): 1})
    with pytest.raises(PreconditionError):
        JointDistribution(scheme, {(S, (16,) + X[1:]): 1})
    with pytest.raises(PreconditionError):
        JointDistribution(scheme, {(S, X): 2, ((6,), X): -1})


@pytest.mark.parametrize("base", [2**53, 2**63], ids=["int64", "bigint"])
def test_group_masses_stay_exact(scheme, base):
    # sums past 2^53 that a float64 bincount would round; past 2^63 the
    # weights are Python ints.  (The quantities themselves are not computed
    # here: their exponents need every mass factored, and trial division of
    # a prime mass near 2^53 takes about 5e7 divisions.)
    rng = random.Random(17)
    weights = {}
    for S in scheme.messages():
        for X in scheme.coset_elements(S):
            weights[(S, X)] = base + 2 * rng.randrange(2**20) + 1
    dist = JointDistribution(scheme, weights)
    ref = Counter()
    for (S, X), w in weights.items():
        ref[S[0]] += w
    key = np.array([S[0] for S, _, _ in dist.entries])
    assert dist._masses(key).tolist() == [ref[s] for s in sorted(ref)]
    assert dist.total == sum(weights.values())


def test_mutual_information_memory_is_bounded():
    # 2^16 support entries: the digits of X take 1.5 MiB, and one B . digits
    # product over the whole support in int64 alone would take 12 MiB.  A
    # full mu = n walk keeps the images of the last wiretap's rows only, not
    # one per row id met
    big = build_proposed(ctx_new(2, 8), l=1, n=3, k=2)
    dist = JointDistribution.uniform(big)
    assert len(dist._weights) == 2**16
    B = Matrix(GF2, [[1, 1, 1]], 3)
    dist.message_entropy()
    tracemalloc.start()
    try:
        leak = dist.mutual_information(B)
        leaks = [dist.mutual_information(B).as_integer() for B in enumerate_wiretap(2, 3, 3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert leak.as_integer() == 0
    assert leaks[0] == 0 and leaks[-1] == 1 and len(leaks) == 1 + 7 + 7 + 1
    assert len(dist._rows) == 3
    assert peak < 8 * 2**20


def test_one_distribution_serves_every_index_set():
    # H(S_Z) is kept for the last Z asked; alternating Z must not reuse it
    scheme = _RATIO_SCHEMES["F4-n3"]()
    dist = JointDistribution.seeded(scheme, random.Random(23))
    wiretaps = list(enumerate_wiretap(2, scheme.n, 2))
    for _ in range(2):
        for z in [None, (0,), (1,), ()]:
            for B in wiretaps[::3]:
                ref = _reference_quantities(dist, z, B)
                assert _matches(dist.mutual_information(B, z), ref["I"])
                assert _matches(dist.message_entropy(z), ref["H"])
                assert _matches(dist.divergence_packets_from_coset_uniform(z), ref["D_X"])


@pytest.mark.parametrize("total", [2**53 - 1, 2**53 + 1])
def test_dense_masses_match_sorted_masses(scheme, total, monkeypatch):
    # the float64 bincount serves totals below 2^53 only, where it is exact;
    # at 2^53 + 1 a float64 sum may round, so the sort must run
    dist = JointDistribution.uniform(scheme)
    size = len(dist._weights)
    rng = np.random.default_rng(total % 1000)
    weights = rng.integers(2**40, 2**44, size)
    weights[-1] += total - int(weights.sum())
    dist._weights, dist.total = weights, total
    sorted_calls = []
    masses = JointDistribution._masses
    monkeypatch.setattr(JointDistribution, "_masses",
                        lambda self, key: sorted_calls.append(key) or masses(self, key))
    for bound in (1, 7, size):
        key = rng.integers(0, bound, size)
        before = len(sorted_calls)
        assert dist._group_masses(key, bound).tolist() == masses(dist, key).tolist()
        assert len(sorted_calls) - before == (total >= 2**53)
    # a key bound past the support size takes the sort at any total
    key = rng.integers(0, 2 * size, size)
    assert dist._group_masses(key, 2 * size).tolist() == masses(dist, key).tolist()
    assert sorted_calls[-1] is key


@pytest.mark.parametrize("weights", ["uniform", "seeded"])
@pytest.mark.parametrize("k", [2, 1], ids=["C2", "C2=0"])
def test_small_total_leakage_report_never_sorts(k, weights, monkeypatch):
    # k = 2: mu <= dim C2 = 1 keeps every key of the flagship within its 256
    # entries, S_Z and (S_Z, W) below 16 * 16, and at mu = 2 every W of rank
    # 2 tells the entries apart, so I = H(S_Z); k = 1: C2 = {0}, so S tells
    # the 16 entries apart and is the pair key, and mu <= 1 keeps W below 16.
    # X always tells them apart.  The reports equal those of the sort.
    scheme = build_proposed(F16, l=1, n=3, k=k)
    mus = (0, 1, 2) if k == 2 else (0, 1)
    dist = (JointDistribution.uniform(scheme) if weights == "uniform"
            else JointDistribution.seeded(scheme, random.Random(5)))

    def reports():
        dist._message_memo = None
        return [leakage_report(scheme, mu, dist, z).to_json() for mu in mus for z in (None, (0,))]

    dense = reports()
    masses = JointDistribution._masses
    monkeypatch.setattr(JointDistribution, "_group_masses", lambda self, key, bound: masses(self, key))
    assert reports() == dense
    monkeypatch.undo()

    def no_sort(self, key):
        pytest.fail("a small-total leakage report sorted its group masses")

    monkeypatch.setattr(JointDistribution, "_masses", no_sort)
    assert reports() == dense


def test_shared_packets_and_folded_keys_match_ratio_products(scheme, monkeypatch):
    # some X carried under two messages, so that (S_Z, X) is not X alone; and
    # every wiretap key folded, as past 2^62, and every joint key renumbered
    rng = random.Random(29)
    weights = {}
    for S in scheme.messages():
        for X in scheme.coset_elements(S):
            weights[(S, X)] = rng.randrange(1, 4)
            if rng.random() < 0.1:
                weights[((S[0] ^ 1,), X)] = 1
    wiretaps = list(enumerate_wiretap(2, scheme.n, 2))[::4]
    for dense_bound in (security.DENSE_KEY_BOUND, 2):
        monkeypatch.setattr(security, "DENSE_KEY_BOUND", dense_bound)
        dist = JointDistribution(scheme, weights)
        assert dist._x_bound < len(dist._weights)
        for z in (None, ()):
            ref = _reference_quantities(dist, z, wiretaps[0])
            assert _matches(dist.divergence_packets_from_coset_uniform(z), ref["D_X"])
            for B in wiretaps:
                assert _matches(dist.mutual_information(B, z),
                                _reference_quantities(dist, z, B)["I"])
    # past the bound a pair key renumbers its second key first: 11 values
    key, bound, _ = dist._message(())
    sparse = 7 * (np.arange(len(dist._weights)) % 11)
    joint, joint_bound = dist._joint(key, bound, sparse, 77)
    assert joint_bound == 11 * bound and joint.max() < joint_bound


def _seeded_by_cosets(scheme, rng, max_weight):
    """The seeded distribution built through coset_elements and the dict
    constructor: the reference draw loop, message by message."""
    coset_size, pattern_sum, weights = scheme.c2.codeword_count(), None, {}
    for S in scheme.messages():
        sw = rng.randrange(1, max_weight + 1)
        while True:
            pattern = [rng.randrange(1, max_weight + 1) for _ in range(coset_size)]
            if pattern_sum is None:
                pattern_sum = sum(pattern)
            if sum(pattern) == pattern_sum:
                break
        for X, w in zip(scheme.coset_elements(S), pattern):
            weights[(S, X)] = sw * w
    return JointDistribution(scheme, weights)


class _TopRandom(random.Random):
    """Draws the top of every range, so that every pattern sum matches."""

    def randrange(self, start, stop):
        return stop - 1


def _assert_same_support(dist, ref):
    for name in ("_symbols_arr", "_weights", "_digits", "_x_key"):
        a, b = getattr(dist, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, b.flags.c_contiguous)
        assert a.tolist() == b.tolist(), name
    assert (dist._x_bound, dist.total, dist.entries) == (ref._x_bound, ref.total, ref.entries)
    assert type(dist.total) is type(ref.total)


@pytest.mark.parametrize("l, k2", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("q, m", [(2, 4), (3, 2), (5, 2)])
def test_listed_distributions_match_the_dict_constructor(q, m, l, k2, monkeypatch):
    # uniform and seeded list C1 on digit arrays; the dict constructor, fed
    # through coset_elements in messages() order, is the reference.  A seeded
    # total past 2^63 keeps Python-int weights.
    scheme = random_scheme(random.Random(q * 100 + l * 10 + k2), ctx_new(q, m), 3, l, k2)
    references = [
        JointDistribution(scheme, {(S, X): 1 for S in scheme.messages()
                                   for X in scheme.coset_elements(S)}),
        _seeded_by_cosets(scheme, random.Random(3), 4),
        _seeded_by_cosets(scheme, _TopRandom(), 2**40)]
    assert references[2].total >= 2**63 and references[2]._weights.dtype == object
    monkeypatch.setattr(NestedScheme, "coset_elements",
                        lambda *args: pytest.fail("a listed distribution ran field arithmetic"))
    listed = [JointDistribution.uniform(scheme),
              JointDistribution.seeded(scheme, random.Random(3), 4),
              JointDistribution.seeded(scheme, _TopRandom(), 2**40)]
    for dist, ref in zip(listed, references):
        _assert_same_support(dist, ref)


def test_seeded_refuses_bad_weights_and_endless_redraws(monkeypatch):
    # every coset must redraw until its pattern sum equals the first coset's:
    # with 16 draws of up to 2^40 each that never happens, and the redraws
    # stop past decoder.DEFAULT_SAMPLED_BUDGET, read at call time
    scheme = build_proposed(ctx_new(2, 4), 1, 3, 2)
    for bad in (0, -3, 2.5, "4"):
        with pytest.raises(PreconditionError, match="max_weight"):
            JointDistribution.seeded(scheme, random.Random(1), max_weight=bad)
    with pytest.raises(EnumerationTooLarge, match=r"more than 100000 patterns"):
        JointDistribution.seeded(scheme, random.Random(1), max_weight=2**40)

    class Counting(random.Random):
        draws = 0

        def randrange(self, start, stop):
            self.draws += 1
            return super().randrange(start, stop)

    monkeypatch.setattr(decoder, "DEFAULT_SAMPLED_BUDGET", 7)
    rng = Counting(1)
    with pytest.raises(EnumerationTooLarge, match=r"more than 7 patterns"):
        JointDistribution.seeded(scheme, rng, max_weight=2**40)
    # message 0 draws its weight and one pattern; message 1 its weight, its
    # first pattern and 7 redrawn ones
    assert rng.draws == (1 + 16) + (1 + 8 * 16)
