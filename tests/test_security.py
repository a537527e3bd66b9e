import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rankguard import DimensionMismatch, InvariantViolated, PreconditionError, ctx_new
from rankguard.codes import LinearCode
from rankguard.coset_scheme import build_proposed
from rankguard.linalg import Matrix, embed_base_matrix, ext_vec_times_base_transpose
from rankguard.gf import PrimeField
from rankguard.network import enumerate_wiretap, sample_matrix
from rankguard.security import (
    JointDistribution,
    LogQuantity,
    entropy_tools,
    leakage_report,
    omega_bounds,
    omega_exact,
    partial_leakage,
    predicted_leakage,
    universal_equivocation,
    verify_strength_empirically,
)

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


def test_uniform_entropy_is_l(scheme, uniform):
    assert uniform.message_entropy().as_integer() == scheme.l
    assert uniform.divergence_message_from_uniform().as_integer() == 0
    assert uniform.divergence_packets_from_coset_uniform().as_integer() == 0


def test_point_mass_entropies(scheme):
    S = (5,)
    X = next(iter(scheme.coset_elements(S)))
    pm = JointDistribution.point_mass(scheme, S, X)
    tools = entropy_tools(pm)
    assert tools["H_S"].as_integer() == 0
    assert tools["D_S_uniform"].as_integer() == scheme.l


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


def test_entropy_divergence_identity(scheme):
    # H(S) = log|space| - D(S || uniform), exact and after float conversion
    rng = random.Random(75)
    for dist in [JointDistribution.uniform(scheme),
                 JointDistribution.seeded(scheme, rng)]:
        h = dist.message_entropy()
        d = dist.divergence_message_from_uniform()
        assert (h + d).as_integer() == scheme.l
        assert abs(h.value + d.value - scheme.l) < 1e-12


@pytest.mark.parametrize("dist_kind", ["uniform", "seeded"])
def test_full_mode_leakage_matches_rowspace(scheme, uniform, dist_kind):
    # the raw sweep over every mu x n wiretap matrix is the reference for the
    # row-space reduction; it keeps the first maximizing B in enumeration order
    if dist_kind == "uniform":
        dist = uniform
    else:
        dist = JointDistribution.seeded(scheme, random.Random(3))
    for mu in range(3):
        full = leakage_report(scheme, mu, dist, mode="full")
        rowspace = leakage_report(scheme, mu, dist)
        assert full.max_leakage == rowspace.max_leakage
        assert full.argmax_b.nrows == mu
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
    power = Fraction(1)
    for ratio, count in terms:
        power *= ratio**count
    return power


def _reference_quantities(dist, z, B):
    """Each quantity as its own ratio product over the counts of S_Z and X."""
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
        "H": _ratio_product((Fraction(total, c), c) for c in sz.values()),
        "D_S": _ratio_product((Fraction(c * order ** len(z), total), c) for c in sz.values()),
        "D_X": _ratio_product((Fraction(c * coset_size, sz[s]), c) for (s, _), c in sx.items()),
        "I": _ratio_product((Fraction(c * total, s_marg[s] * w_marg[o]), c)
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
        assert report.max_leakage.power == ref["I"]
        assert (report.equivocation + report.max_leakage).power == ref["H"]
        assert report.slack_s.power == ref["D_S"]
        assert report.slack_x.power == ref["D_X"]
    for B in enumerate_wiretap(scheme.ctx.q, scheme.n, scheme.n):
        assert (dist.mutual_information(B, z).power
                == _reference_quantities(dist, z, B)["I"])


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
    other = next(iter(scheme.coset_elements((6,))))
    with pytest.raises(PreconditionError):
        JointDistribution.point_mass(scheme, S, other)
    with pytest.raises(DimensionMismatch):
        JointDistribution.point_mass(scheme, S, X[:2])
    assert JointDistribution.point_mass(scheme, S, X).entries == [(S, X, 1)]


@pytest.mark.parametrize("base", [2**53, 2**63], ids=["int64", "bigint"])
def test_group_masses_stay_exact(scheme, base):
    # sums past 2^53 that a float64 bincount would round; past 2^63 the
    # weights are Python ints.  (The exact power T^T of such a T has about
    # T log2 T bits, so the quantities themselves are not computed here.)
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
    # product over the whole support in int64 alone would take 12 MiB
    big = build_proposed(ctx_new(2, 8), l=1, n=3, k=2)
    dist = JointDistribution.uniform(big)
    assert len(dist._weights) == 2**16
    B = Matrix(GF2, [[1, 1, 1]], 3)
    dist.message_entropy()
    tracemalloc.start()
    try:
        leak = dist.mutual_information(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert leak.as_integer() == 0
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
                assert dist.mutual_information(B, z).power == ref["I"]
                assert dist.message_entropy(z).power == ref["H"]
                assert dist.divergence_packets_from_coset_uniform(z).power == ref["D_X"]
