"""Seeded workloads for the rankguard benchmark.

A workload turns (seed, pass index, size) into a list of jobs.  A job is
one call into rankguard's public reductions together with the answer that
the paper's closed forms predict for it.  The expected answer comes from
those identities and is never produced by the call being timed.

Every call goes through a module attribute (``rank_metrics.rdip``, not a
name imported here), so the tracer's wrappers see it.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs the same
code paths in about a second, for the self-tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from rankguard import ctx_new, decoder, rank_metrics, security
from rankguard.codes import LinearCode, gabidulin
from rankguard.coset_scheme import NestedScheme, build_proposed, lift
from rankguard.errors import DependentPoints
from rankguard.gf import PrimeField
from rankguard.linalg import Matrix, embed_base_matrix
from rankguard.security import JointDistribution

WORKLOADS = ("profile", "leakage", "capability")
SIZES = ("full", "tiny")


@dataclass
class Job:
    label: str
    call: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool]
    exact: Callable[[Any], Any]
    # (q, n) of the Frobenius-invariant families a profile-stream job
    # enumerates, for the shared-family share
    family: tuple[int, int] | None = None


def build(workload: str, seed: int, pass_index: int, size: str = "full") -> list[Job]:
    """The jobs of one pass; the same arguments always give the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    builder = {"profile": _profile, "leakage": _leakage, "capability": _capability}[workload]
    return builder(rng, pass_index, size)


# -- closed forms from the paper ------------------------------------------------


def mrd_tables(n: int, k1: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(RDIP, RGRW) of C1 > C2 when C1 is an [n, k1] MRD code, l = dim C1/C2.

    RGRW_i = n - k1 + i for i = 1..l, and the profile counts the weights
    not above mu."""
    weights = tuple(n - k1 + i for i in range(1, l + 1))
    profile = tuple(min(l, max(0, mu - (n - k1))) for mu in range(n + 1))
    return profile, weights


def construction_leakage(l: int, k2: int, mu: int) -> int:
    """Worst-case leakage of the explicit construction at mu taps."""
    return min(l, max(0, mu - k2))


def rank_r_matrices(q: int, rows: int, cols: int, r: int) -> int:
    """Number of rows x cols matrices over F_q of rank r."""
    num = den = 1
    for i in range(r):
        num *= (q**rows - q**i) * (q**cols - q**i)
        den *= q**r - q**i
    return num // den


def covered_tuples(q: int, m: int, n: int, N: int, l: int, k2: int, t: int, rho: int) -> int:
    """Transfer matrices x messages x coset members x error vectors."""
    transfers = sum(rank_r_matrices(q, N, n, r) for r in range(n - rho, n + 1))
    errors = sum(rank_r_matrices(q, m, N, r) for r in range(min(t, N, m) + 1))
    return transfers * q ** (m * l) * q ** (m * k2) * errors


# -- exact-answer digests -----------------------------------------------------------


def _big(x: int) -> str:
    # hashed so that megabit exact powers stay cheap to digest
    return hashlib.sha256(format(x, "x").encode()).hexdigest()[:16]


def _quantity(q) -> list[str]:
    return [_big(q.power.numerator), _big(q.power.denominator)]


def answer_digest(labelled: list[tuple[str, Any]]) -> str:
    h = hashlib.sha256()
    for label, exact in labelled:
        h.update(json.dumps([label, exact], sort_keys=True, default=str).encode())
    return h.hexdigest()


# -- input generators ---------------------------------------------------------------


def _invertible(rng: random.Random, q: int, n: int) -> Matrix:
    base = PrimeField(q)
    while True:
        T = Matrix(base, [[rng.randrange(q) for _ in range(n)] for _ in range(n)], n)
        if T.rref()[1] == n:
            return T


def isometric_copy(rng: random.Random, scheme: NestedScheme) -> NestedScheme:
    """The scheme with every codeword multiplied by a random invertible
    base-field matrix: an isometry of the rank metric, so profiles,
    weights, leakage and correction capability are unchanged."""
    ctx = scheme.ctx
    T = embed_base_matrix(ctx, _invertible(rng, ctx.q, scheme.n))
    return NestedScheme(LinearCode(ctx, scheme.c1.gen.matmul(T)),
                        LinearCode(ctx, scheme.c2.gen.matmul(T)),
                        scheme.delta_g.matmul(T))


def _random_word(rng, ctx, length):
    return tuple(rng.randrange(ctx.order) for _ in range(length))


def _random_code(rng, ctx, n, k) -> LinearCode:
    while True:
        code = LinearCode(ctx, Matrix(ctx, [_random_word(rng, ctx, n) for _ in range(k)], n))
        if code.k == k:
            return code


def _random_subcode(rng, c1: LinearCode, k2: int) -> LinearCode:
    while True:
        rows = [c1.encode(_random_word(rng, c1.ctx, c1.k)) for _ in range(k2)]
        c2 = LinearCode(c1.ctx, Matrix(c1.ctx, rows, c1.n))
        if c2.k == k2:
            return c2


def _random_gabidulin(rng, ctx, n, k) -> LinearCode:
    while True:
        try:
            return gabidulin(ctx, n, k, _random_word(rng, ctx, n))
        except DependentPoints:
            continue


# -- job builders ---------------------------------------------------------------------


def _tables(ans) -> list[list[int]]:
    profile, weights = ans
    return [list(profile.values), list(weights.values)]


def _profile_job(label, c1, c2, expected_tables) -> Job:
    return Job(label,
               lambda: (rank_metrics.rdip(c1, c2), rank_metrics.rgrw(c1, c2)),
               expected_tables,
               lambda ans, exp: tuple(map(tuple, _tables(ans))) == exp,
               _tables)


def _check_random_pair(ans, exp) -> bool:
    """Endpoints, unit steps, generalized Singleton and RGRW <= RGHW."""
    c1, c2 = exp
    n, k1, l = c1.n, c1.k, c1.k - c2.k
    profile, weights = (tuple(t) for t in _tables(ans))
    hamming = rank_metrics.rghw(c1, c2).values
    return (len(profile) == n + 1 and profile[0] == 0 and profile[n] == l
            and all(0 <= b - a <= 1 for a, b in zip(profile, profile[1:]))
            and len(weights) == l
            and all(w <= n - k1 + i for i, w in enumerate(weights, 1))
            and all(w <= h for w, h in zip(weights, hamming)))


def _profile(rng, pass_index, size) -> list[Job]:
    """Every pass has the same dimensions in the same order: each (k1, k2)
    at n = 4 and 5, and two mid-size pairs at n = 6, a minority of the jobs
    but about half of the time.  Job i of one pass differs from job i of
    another by the seeded code entries and by its kind (Gabidulin or
    random), which alternates between passes."""
    if size == "full":
        per_n = {4: [(k1, k2) for k1 in range(1, 4) for k2 in range(k1)] * 6,
                 5: [(k1, k2) for k1 in range(1, 5) for k2 in range(k1)],
                 6: [(3, 1), (4, 2)]}
    else:
        per_n = {3: [(1, 0), (2, 1)], 4: [(2, 0), (3, 1)]}
    jobs = []
    for n, dims in per_n.items():
        for j, (k1, k2) in enumerate(dims):
            ctx = ctx_new(2, 6 - j % (7 - n))
            if (j + pass_index) % 2 == 0:
                c1 = _random_gabidulin(rng, ctx, n, k1)
                c2 = _random_subcode(rng, c1, k2)
                jobs.append(_profile_job(f"gabidulin n={n} m={ctx.m} k1={k1} k2={k2}",
                                         c1, c2, mrd_tables(n, k1, k1 - k2)))
            else:
                c1 = _random_code(rng, ctx, n, k1)
                c2 = _random_subcode(rng, c1, k2)
                job = _profile_job(f"random n={n} m={ctx.m} k1={k1} k2={k2}",
                                   c1, c2, (c1, c2))
                job.check = _check_random_pair
                jobs.append(job)
            jobs[-1].family = (2, n)
    return jobs


def _uniform_leakage_job(scheme, dist, mu) -> Job:
    l, k2 = scheme.l, scheme.c2.k

    def check(rep, exp):
        return (rep.max_leakage.as_integer() == exp and rep.predicted == exp
                and abs(rep.max_leakage.value - exp) < 1e-9
                and rep.equivocation.as_integer() == l - exp)

    return Job(f"universal_equivocation uniform F_{scheme.ctx.q}^{scheme.ctx.m} mu={mu}",
               lambda: security.universal_equivocation(scheme, mu, dist),
               construction_leakage(l, k2, mu), check,
               lambda rep: [rep.max_leakage.as_integer(), rep.predicted,
                            rep.equivocation.as_integer(), list(rep.argmax_b.rows),
                            _quantity(rep.max_leakage)])


def _seeded_leakage_job(scheme, dist, mu) -> Job:
    def check(rep, exp):
        value = rep.max_leakage.value
        return (rep.predicted == exp and rep.sandwich_holds()
                and exp - rep.slack_s.value - 1e-9 <= value <= exp + rep.slack_x.value + 1e-9)

    return Job(f"leakage_report seeded mu={mu}",
               lambda: security.leakage_report(scheme, mu, dist),
               construction_leakage(scheme.l, scheme.c2.k, mu), check,
               lambda rep: [rep.predicted, list(rep.argmax_b.rows), _quantity(rep.max_leakage),
                            _quantity(rep.slack_s), _quantity(rep.slack_x)])


def _leakage(rng, pass_index, size) -> list[Job]:
    """Exact leakage and strength at q = 2, then the odd-characteristic jobs.

    mu stops at 1 (uniform) and 0 (seeded) so that a pass takes about 6 s
    and a run holds several passes; uniform leakage at mu = 2 takes 4 s and
    seeded leakage at mu = 1 takes 3 s."""
    if size == "full":
        scheme = build_proposed(ctx_new(2, 6), l=2, n=4, k=2)
        uniform_mus, seeded_mus = (0, 1), (0,)
    else:
        scheme = build_proposed(ctx_new(2, 4), l=1, n=3, k=2)
        uniform_mus, seeded_mus = (0, 1, 2, 3), (0, 1)
    uniform = JointDistribution.uniform(scheme)
    seeded = JointDistribution.seeded(scheme, rng, max_weight=2)
    k1 = scheme.c1.k
    jobs = [_uniform_leakage_job(scheme, uniform, mu) for mu in uniform_mus]
    jobs += [_seeded_leakage_job(scheme, seeded, mu) for mu in seeded_mus]
    jobs.append(Job("omega_exact", lambda: security.omega_exact(scheme), k1 - 1,
                    lambda ans, exp: ans == exp, lambda ans: ans))
    jobs.append(Job("omega_bounds", lambda: security.omega_bounds(scheme), (k1 - 1, k1 - 1),
                    lambda ans, exp: tuple(ans) == exp, list))
    return jobs + _odd_char(rng, size)


def _odd_char(rng, size) -> list[Job]:
    """q = 3: field additions go through coeffs/from_coeffs and ranks through
    Matrix.rref.  Leakage at mu = 0 and 2, the first tap count that leaks;
    the verified t = 1 capability budget (4 s) is left out to keep passes short."""
    if size == "full":
        ctx, n, mus = ctx_new(3, 4), 3, (0, 2)
        budgets = [(0, 1), (1, 1)]
    else:
        ctx, n, mus = ctx_new(3, 3), 2, (0, 1, 2)
        budgets = [(0, 0), (0, 1), (1, 0)]
    leaky = isometric_copy(rng, build_proposed(ctx, l=1, n=n, k=n - 1))
    robust = isometric_copy(rng, build_proposed(ctx, l=1, n=n, k=1))
    uniform = JointDistribution.uniform(leaky)
    jobs = [_uniform_leakage_job(leaky, uniform, mu) for mu in mus]
    first_weight = n - robust.c1.k + 1
    jobs += [_report_job(robust, t, rho, "exhaustive", first_weight) for t, rho in budgets]
    for name, s in (("leaky", leaky), ("robust", robust)):
        jobs.append(_profile_job(f"rdip+rgrw {name} [{n},{s.c1.k}] over F_3^{ctx.m}", s.c1, s.c2,
                                 mrd_tables(n, s.c1.k, s.l)))
    return jobs


def _report_job(scheme, t, rho, mode, first_weight) -> Job:
    ctx = scheme.ctx
    expected = (2 * t + rho < first_weight,
                covered_tuples(ctx.q, ctx.m, scheme.n, scheme.n, scheme.l, scheme.c2.k, t, rho))

    def check(rep, exp):
        verified, covered = exp
        return (rep.verified == verified and rep.covered_tuples == covered and rep.complete
                and (verified or rep.counterexample is not None))

    return Job(f"capability_report {mode} F_{ctx.q}^{ctx.m} t={t} rho={rho}",
               lambda: decoder.capability_report(scheme, t, rho, mode=mode),
               expected, check, lambda rep: rep.to_json())


def _witness_job(scheme, t, rho) -> Job:
    return Job(f"construct_failure_witness t={t} rho={rho}",
               lambda: decoder.construct_failure_witness(scheme, t, rho),
               True, lambda w, exp: w["demonstrates_failure"] is exp,
               lambda w: [list(w["A"].rows), list(w["Y"]), list(w["injected"]),
                          list(w["rival_message"]), list(w["discrepancies"]),
                          w["result"].status])


def _sampled_job(label, scheme, t, rho, trials, seed) -> Job:
    return Job(f"{label} t={t} rho={rho} trials={trials}",
               lambda: decoder.capability_report(scheme, t, rho, mode="sampled",
                                                 trials=trials, seed=seed),
               trials, lambda rep, exp: rep.verified and rep.complete and rep.trials == exp,
               lambda rep: rep.to_json())


def _capability(rng, pass_index, size) -> list[Job]:
    # the row-space reduction runs at every acceptance budget; the raw full
    # sweep (1 to 7 s per budget) at two of them, so that a pass takes about 5 s
    if size == "full":
        inner_ctx, outer_ctx, n = ctx_new(2, 5), ctx_new(2, 9), 4
        verified = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]
        full_sweep = [(0, 0), (1, 0)]
        refuted = [(1, 2), (2, 0)]
        sampled, lifted_trials = 100, 50
    else:
        inner_ctx, outer_ctx, n = ctx_new(2, 4), ctx_new(2, 7), 3
        verified, full_sweep, refuted = [(0, 0), (0, 1), (1, 0)], [(0, 0)], [(1, 1)]
        sampled, lifted_trials = 20, 10
    scheme = isometric_copy(rng, build_proposed(inner_ctx, l=1, n=n, k=1))
    lifted = lift(scheme, outer_ctx)
    first_weight = n - scheme.c1.k + 1
    jobs = [_report_job(scheme, t, rho, "exhaustive", first_weight) for t, rho in verified]
    jobs += [_report_job(scheme, t, rho, "exhaustive-full", first_weight) for t, rho in full_sweep]
    for t, rho in refuted:
        jobs.append(_report_job(scheme, t, rho, "exhaustive", first_weight))
        jobs.append(_report_job(scheme, t, rho, "exhaustive-full", first_weight))
        jobs.append(_witness_job(scheme, t, rho))
    t, rho = verified[-1]
    jobs.append(_sampled_job("sampled coherent", scheme, t, rho, sampled, rng.randrange(2**32)))
    jobs.append(_sampled_job("sampled noncoherent", lifted, t, rho, lifted_trials,
                             rng.randrange(2**32)))
    return jobs

