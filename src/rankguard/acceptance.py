"""Registered verification suites: each re-derives a closed-form guarantee
by brute force and compares exactly.

Every suite returns CriterionResult rows; the CLI prints one line per row
and exits nonzero if any fails.  The same functions back the test suite,
so `rankguard acceptance all` and pytest agree by construction.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .codes import LinearCode, gabidulin
from .coset_scheme import NestedScheme, build_proposed, lift
from .decoder import (
    capability_report,
    construct_failure_witness,
    delta_min_noncoherent,
    run_trial,
)
from .errors import PacketTooShort, SuiteUnknown
from .gf import ctx_new
from .linalg import embed_base_matrix
from .network import enumerate_wiretap
from .rank_metrics import first_rgrw, rdip, rgrw
from .security import (
    JointDistribution,
    leakage_report,
    omega_bounds,
    omega_exact,
    universal_equivocation,
    verify_strength_empirically,
)


@dataclass
class CriterionResult:
    criterion: str
    detail: str
    expected: str
    measured: str
    passed: bool
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.criterion}: {self.detail} | expected {self.expected}"
                f" | measured {self.measured} ({self.seconds:.2f}s)")


def _result(criterion, detail, expected, measured, started) -> CriterionResult:
    return CriterionResult(criterion, detail, str(expected), str(measured),
                           str(expected) == str(measured), time.time() - started)


def _flagship():
    return build_proposed(ctx_new(2, 4), l=1, n=3, k=2)


# -- 1: MRD construction ---------------------------------------------------------


def suite_mrd() -> list[CriterionResult]:
    out = []
    for (m, n, k) in [(4, 4, 1), (4, 4, 2), (4, 4, 3), (5, 4, 2)]:
        started = time.time()
        code = gabidulin(ctx_new(2, m), n, k)
        measured = code.min_rank_distance(method="scan")
        out.append(_result("mrd-distance", f"[{n},{k}] over F_2^{m}",
                           n - k + 1, measured, started))
    return out


# -- 2: profile closed forms ------------------------------------------------------


def suite_profiles() -> list[CriterionResult]:
    out = []
    ctx = ctx_new(2, 4)
    c1 = gabidulin(ctx, 4, 2)
    rng = random.Random(2024)
    picked = 0
    while picked < 5:
        u = tuple(rng.randrange(16) for _ in range(2))
        if not any(u):
            continue
        picked += 1
        c2 = LinearCode(ctx, [c1.encode(u)], 4)
        started = time.time()
        weights = rgrw(c1, c2)
        expected_w = tuple(4 - c1.k + i for i in range(1, c1.k - c2.k + 1))
        out.append(_result("rgrw-closed-form", f"subcode #{picked}",
                           expected_w, weights.values, started))
        started = time.time()
        profile = rdip(c1, c2)
        expected_p = tuple(max(0, mu - 4 + c1.k) for mu in range(0, 4 - c2.k + 1))
        measured_p = profile.values[: 4 - c2.k + 1]
        out.append(_result("rdip-closed-form", f"subcode #{picked} (mu <= n-dim C2)",
                           expected_p, measured_p, started))
        out.append(_result("rdip-endpoint", f"subcode #{picked}",
                           c1.k - c2.k, profile.at(4), started))
    return out


# -- 3: bridge identity -------------------------------------------------------------


def suite_bridge() -> list[CriterionResult]:
    rng = random.Random(42)
    out = []
    made = 0
    while made < 20:
        n = rng.randrange(2, 5)
        m = rng.randrange(2, 6)
        k = rng.randrange(1, n)
        ctx = ctx_new(2, m)
        rows = [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(k)]
        code = LinearCode(ctx, rows, n)
        if code.k == 0:
            continue
        made += 1
        started = time.time()
        via_profile = first_rgrw(code, LinearCode.zero(ctx, n))
        via_scan = code.min_rank_distance(method="scan")
        out.append(_result("first-weight-bridge", f"code #{made} [n={n},k={code.k},m={m}]",
                           via_scan, via_profile, started))
    return out


# -- 4: duality identity ---------------------------------------------------------------


def suite_duality() -> list[CriterionResult]:
    rng = random.Random(43)
    ctx = ctx_new(2, 3)
    started = time.time()
    holds = 0
    for _ in range(100):
        n = rng.randrange(2, 5)
        k1 = rng.randrange(1, n + 1)
        rows = [[rng.randrange(8) for _ in range(n)] for _ in range(k1)]
        c1 = LinearCode(ctx, rows, n)
        if c1.k == 0:
            c1 = LinearCode(ctx, [[1] * n], n)
        sub_rows = [c1.encode(tuple(rng.randrange(8) for _ in range(c1.k)))
                    for _ in range(rng.randrange(0, c1.k))]
        c2 = LinearCode(ctx, sub_rows, n)
        V = LinearCode(
            ctx, [[rng.randrange(8) for _ in range(n)] for _ in range(rng.randrange(n + 1))], n)
        lhs = c1.intersect(V).k - c2.intersect(V).k
        rhs = ((c1.k - c2.k)
               - c2.dual().intersect(V.dual()).k
               + c1.dual().intersect(V.dual()).k)
        if lhs == rhs:
            holds += 1
    return [_result("duality-identity", "100 seeded (C1, C2, V) triples",
                    "100/100", f"{holds}/100", started)]


# -- 5: leakage equality -----------------------------------------------------------------


def suite_security_uniform() -> list[CriterionResult]:
    out = []
    scheme = _flagship()
    ctx = scheme.ctx
    dist = JointDistribution.uniform(scheme)
    d1, d2 = scheme.c1.dual(), scheme.c2.dual()
    started = time.time()
    mismatches = 0
    checked = 0
    for B in enumerate_wiretap(2, 3, 3):
        checked += 1
        measured = dist.mutual_information(B)
        rowspace = LinearCode(ctx, embed_base_matrix(ctx, B))
        expected = d2.intersect(rowspace).k - d1.intersect(rowspace).k
        exact = measured.as_integer()
        if exact != expected or abs(measured.value - expected) > 1e-9:
            mismatches += 1
    out.append(_result("leakage-per-rowspace", f"{checked} canonical row spaces",
                       "0 mismatches", f"{mismatches} mismatches", started))
    profile = rdip(d2, d1)
    for mu in range(4):
        started = time.time()
        report = universal_equivocation(scheme, mu, dist)
        out.append(_result("max-leakage", f"mu={mu}",
                           profile.at(mu), report.max_leakage.as_integer(), started))
    return out


# -- 6: equivocation closed form ------------------------------------------------------------


def suite_equivocation() -> list[CriterionResult]:
    scheme = _flagship()
    dist = JointDistribution.uniform(scheme)
    out = []
    for mu in range(4):
        started = time.time()
        report = universal_equivocation(scheme, mu, dist)
        # the closed form l - [mu - dim C2]^+ holds on the stated range
        # mu <= dim C1; the profile saturates at l beyond it
        expected = scheme.l - min(scheme.l, max(0, mu - scheme.c2.k))
        out.append(_result("equivocation", f"mu={mu}",
                           expected, report.equivocation.as_integer(), started))
    return out


# -- 7: maximum strength ---------------------------------------------------------------------


def suite_strength() -> list[CriterionResult]:
    scheme = _flagship()
    out = []
    started = time.time()
    omega = omega_exact(scheme)
    out.append(_result("strength-exact", "subset minimization",
                       scheme.c1.k - 1, omega, started))
    started = time.time()
    low, high = omega_bounds(scheme)
    out.append(_result("strength-bounds", "(lower, upper)", (1, 1), (low, high), started))
    started = time.time()
    witness = verify_strength_empirically(scheme, omega)
    measured = (len(witness.zero_at) == 1 and witness.zero_at[0][1] == omega
                and witness.witness_mu == omega + 1
                and abs(witness.witness_leakage - 1.0) < 1e-9)
    out.append(_result("strength-empirical",
                       "zero leakage at the boundary, unit leak one past it",
                       True, measured, started))
    return out


# -- 8: non-uniform sandwich ----------------------------------------------------------------


def suite_security_nonuniform() -> list[CriterionResult]:
    scheme = _flagship()
    rng = random.Random(44)
    dist = JointDistribution.seeded(scheme, rng)
    out = []
    started = time.time()
    skew = dist.divergence_packets_from_coset_uniform()
    out.append(_result("nonuniform-skew", "D(X||coset uniform|S) positive",
                       True, not (skew <= dist.integer(0)), started))
    for mu in range(4):
        started = time.time()
        report = leakage_report(scheme, mu, dist)
        out.append(_result("nonuniform-sandwich", f"mu={mu} exact rational compare",
                           True, report.sandwich_holds(), started))
    return out


# -- 9: error-correction iff ------------------------------------------------------------------


def suite_capability() -> list[CriterionResult]:
    scheme = build_proposed(ctx_new(2, 5), l=1, n=4, k=1)
    out = []
    started = time.time()
    m1 = first_rgrw(scheme.c1, scheme.c2)
    out.append(_result("capability-first-weight", "[4,1] over F_2^5", 4, m1, started))
    for (t, rho) in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]:
        started = time.time()
        rep = capability_report(scheme, t, rho, mode="exhaustive")
        out.append(_result(
            "capability-forward",
            f"t={t} rho={rho}: canonical classes x {rep.covered_tuples} tuples",
            True, rep.verified, started))
        started = time.time()
        full = capability_report(scheme, t, rho, mode="exhaustive-full")
        out.append(_result(
            "capability-forward-full-sweep",
            f"t={t} rho={rho}: every transfer matrix, {full.trials} (A,E) pairs",
            True, full.verified, started))
    for (t, rho) in [(1, 2), (2, 0)]:
        started = time.time()
        wit = construct_failure_witness(scheme, t, rho)
        out.append(_result("capability-converse",
                           f"t={t} rho={rho}: constructed failure witness",
                           True, wit["demonstrates_failure"], started))
    return out


# -- 10: noncoherent ----------------------------------------------------------------------------


def suite_noncoherent() -> list[CriterionResult]:
    out = []
    inner = build_proposed(ctx_new(2, 5), l=1, n=4, k=1)
    lifted = lift(inner, ctx_new(2, 9))
    rng = random.Random(45)
    started = time.time()
    failures = 0
    draws = 0
    for (t, rho) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for _ in range(50):
            draws += 1
            _, S, res = run_trial(rng, lifted, 4, t, rho)
            if not (res.ok and res.message == S):
                failures += 1
    out.append(_result("noncoherent-decode", f"{draws} seeded draws within capability",
                       "0 failures", f"{failures} failures", started))
    small_inner = build_proposed(ctx_new(2, 4), l=1, n=3, k=1)
    small = lift(small_inner, ctx_new(2, 7))
    m1 = first_rgrw(small_inner.c1, small_inner.c2)
    for rho in (0, 1):
        started = time.time()
        brute = delta_min_noncoherent(small, rho, method="bruteforce")
        out.append(_result("noncoherent-delta-identity",
                           f"3-packet instance, rho={rho}: delta + rho",
                           m1, brute + rho, started))
    return out


# -- 11: packet-length necessity ------------------------------------------------------------------


def suite_packet_length() -> list[CriterionResult]:
    out = []
    started = time.time()
    try:
        build_proposed(ctx_new(2, 3), l=1, n=3, k=2)
        rejected = False
    except PacketTooShort:
        rejected = True
    out.append(_result("short-packet-rejected", "m = l+n-1 refused",
                       True, rejected, started))
    started = time.time()
    summary = short_packet_search()
    conclusion = ("violations found" if summary["any_violation"]
                  else "all conclusions hold")
    out.append(CriterionResult(
        "short-packet-search",
        (f"{summary['valid_schemes']} systematic parents at m=3: "
         f"equivocation-form violations {summary['equivocation_violations']}, "
         f"correction-iff violations {summary['correction_violations']}, "
         f"strength violations {summary['strength_violations']}; {conclusion}"),
        "search completed", "search completed" if summary["completed"] else "incomplete",
        summary["completed"], time.time() - started))
    return out


def short_packet_search() -> dict:
    """Exhaustively emulate the explicit construction at m = l+n-1 and record
    which of its three guarantees survive.  The construction premise (a
    length-(l+n) code meeting the rank Singleton bound with equality) cannot
    hold at this packet length, so the guarantees may fail; the search
    documents whether they do."""
    ctx = ctx_new(2, 3)
    l, n, k = 1, 3, 2
    valid = 0
    eq_viol = corr_viol = str_viol = 0
    example = None
    for digits in itertools.product(ctx.elements(), repeat=k * (l + n - k)):
        p_entries = digits[::-1]
        gen_rows = []
        for r in range(k):
            row = [1 if c == r else 0 for c in range(k)]
            row += p_entries[r * (l + n - k):(r + 1) * (l + n - k)]
            gen_rows.append(row)
        parent = LinearCode(ctx, gen_rows, l + n)
        span = list(range(l, l + n))
        c1 = parent.puncture(span)
        c2 = parent.shorten(span)
        if c1.k != k or c2.k != k - l or not c1.contains(c2):
            continue
        delta_g = parent.gen.submatrix(rows=range(l), cols=span)
        try:
            scheme = NestedScheme(c1, c2, delta_g)
        except Exception:
            continue
        valid += 1
        profile = rdip(c2.dual(), c1.dual())
        eq_ok = all(profile.at(mu) == min(l, max(0, mu - c2.k))
                    for mu in range(0, k + 1))
        corr_ok = first_rgrw(c1, c2) == n - k + 1
        str_ok = omega_exact(scheme) == k - 1
        if not eq_ok:
            eq_viol += 1
        if not corr_ok:
            corr_viol += 1
        if not str_ok:
            str_viol += 1
        if example is None and not (eq_ok and corr_ok and str_ok):
            example = gen_rows
    return {
        "completed": True,
        "valid_schemes": valid,
        "equivocation_violations": eq_viol,
        "correction_violations": corr_viol,
        "strength_violations": str_viol,
        "any_violation": bool(eq_viol or corr_viol or str_viol),
        "violating_generator": example,
    }


SUITES = {
    "mrd": suite_mrd,
    "profiles": suite_profiles,
    "bridge": suite_bridge,
    "duality": suite_duality,
    "security-uniform": suite_security_uniform,
    "equivocation": suite_equivocation,
    "strength": suite_strength,
    "security-nonuniform": suite_security_nonuniform,
    "capability": suite_capability,
    "noncoherent": suite_noncoherent,
    "packet-length": suite_packet_length,
}


def run_suite(name: str) -> list[CriterionResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise SuiteUnknown(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
