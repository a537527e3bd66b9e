"""Minimum-discrepancy decoding and capability verification.

Coherent decoding minimizes, over candidate cosets, the fewest injected
packets that could turn some coset member into the received word under the
known transfer matrix; that count equals the rank distance between the
transformed member and the received word.  Noncoherent decoding minimizes
the same quantity over every transfer matrix within the erasure budget;
for identity-header (lifted) packets the inner minimum collapses to a
closed form checked against brute force over enumerated transfer matrices.

Exhaustive capability verification covers the full quantifier space of the
correction definition through two exact reductions, each property-tested
elsewhere against the plain decoder:

* transfer matrices act through their row space only (A = R * rref(A) with
  R invertible, and conjugating the error by R bijects the error ball), so
  one canonical representative per row space suffices; and
* the decoder's discrepancy profile is translation-invariant, so success
  for every (message, coset member) at fixed (A, E) is equivalent to every
  nonzero difference coset scoring strictly worse than the true one.

A raw full-matrix sweep over every transfer matrix (no row-space
reduction) is also available for q = 2 via packed rank tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitrank import packed_rank_table
from .coset_scheme import LiftedScheme, NestedScheme
from .errors import BudgetExceeded, EnumerationTooLarge, PreconditionError, require
from .linalg import (
    Matrix,
    expand_to_base,
    ext_vec_times_base_transpose,
    pack_row_bits,
    vec_sub,
)
from .network import (
    ChannelRealization,
    all_matrices,
    enumerate_errors,
    sample_error_pair,
    sample_transfer,
    transmit,
)
from .rank_metrics import first_rgrw, rank_weight
from .subspaces import enumerate_base_subspaces, rank_r_count

DEFAULT_COSET_CAP = 2**16
DEFAULT_DECODE_CAP = 2**20
DEFAULT_ORACLE_A_CAP = 2**18
DEFAULT_SAMPLED_BUDGET = 10**5


@dataclass
class DecodeResult:
    status: str  # "decoded" | "ambiguous" | "failed"
    message: tuple[int, ...] | None
    discrepancy: int
    runner_up: int | None

    @property
    def ok(self) -> bool:
        return self.status == "decoded"


# -- coherent ------------------------------------------------------------------


def discrepancy_coherent(scheme: NestedScheme, A: Matrix, Y: Sequence[int],
                         S: Sequence[int], cap: int = DEFAULT_COSET_CAP) -> int:
    """Fewest injected packets explaining Y if the coset of S was sent."""
    if scheme.c2.codeword_count() > cap:
        raise EnumerationTooLarge("coset too large to scan")
    ctx = scheme.ctx
    best = None
    for X in scheme.coset_elements(S):
        d = rank_weight(ctx, vec_sub(ctx, Y, ext_vec_times_base_transpose(ctx, X, A)))
        if best is None or d < best:
            best = d
            if best == 0:
                break
    return best


def decode_coherent(scheme: NestedScheme, A: Matrix, Y: Sequence[int],
                    t_max: int | None = None,
                    cap: int = DEFAULT_DECODE_CAP) -> DecodeResult:
    """Return the message of the unique closest coset; ties are reported as
    ambiguous rather than broken, so capability boundaries stay observable."""
    if scheme.message_count() * scheme.c2.codeword_count() > cap:
        raise EnumerationTooLarge("coset family too large to scan")
    return _closest(((S, discrepancy_coherent(scheme, A, Y, S)) for S in scheme.messages()),
                    t_max)


def _closest(scored, t_max: int | None) -> DecodeResult:
    """Unique minimizer of (message, discrepancy) pairs; a tie for the
    minimum is ambiguous, and a minimum above t_max is a failure."""
    best_val = best_msg = runner = None
    tie = False
    for S, val in scored:
        if best_val is None or val < best_val:
            runner = best_val
            best_val, best_msg, tie = val, S, False
        elif val == best_val:
            tie = True
            runner = val
        elif runner is None or val < runner:
            runner = val
    if tie:
        return DecodeResult("ambiguous", None, best_val, runner)
    if t_max is not None and best_val > t_max:
        return DecodeResult("failed", None, best_val, runner)
    return DecodeResult("decoded", best_msg, best_val, runner)


def delta_distance(scheme: NestedScheme, A: Matrix, cap: int = DEFAULT_DECODE_CAP) -> int:
    """Least rank of v A^T over codewords v of C1 outside C2."""
    return _closest_difference(scheme, A, cap)[0]


def _closest_difference(scheme: NestedScheme, A: Matrix, cap: int = DEFAULT_DECODE_CAP):
    """(least rank of v A^T, first codeword v of C1 outside C2 attaining it)."""
    ctx = scheme.ctx
    best = best_v = None
    for v in scheme.c1.codewords(cap):
        if scheme.c2.contains_word(v):
            continue
        d = rank_weight(ctx, ext_vec_times_base_transpose(ctx, v, A))
        if best is None or d < best:
            best, best_v = d, v
    return best, best_v


def delta_min_over_A(scheme: NestedScheme, rho: int, cap: int = DEFAULT_DECODE_CAP) -> int:
    """min over transfer matrices of rank >= n - rho of the coset delta
    distance.  v A^T has the same rank for every A with a given row space,
    so canonical representatives per row space suffice."""
    n = scheme.n
    if not 0 <= rho <= n:
        raise PreconditionError("need 0 <= rho <= n")
    best = None
    for r in range(n - rho, n + 1):
        for Abase in enumerate_base_subspaces(scheme.ctx.q, n, r):
            if r == 0:
                d = 0
            else:
                d = delta_distance(scheme, Abase, cap)
            if best is None or d < best:
                best = d
        if best == 0:
            break
    return best


# -- noncoherent -----------------------------------------------------------------


def _split_received(lifted: LiftedScheme, Y: Sequence[int]) -> tuple[Matrix, Matrix]:
    MY = expand_to_base(lifted.ctx, Y)
    header = MY.submatrix(rows=range(lifted.n))
    payload = MY.submatrix(rows=range(lifted.n, lifted.ctx.m))
    return header, payload


def _member_discrepancy_fast(lifted: LiftedScheme, header: Matrix, payload: Matrix,
                             x_inner: Sequence[int], rho: int) -> int:
    """Closed form for one lifted coset member.

    Minimizing rank(M_X A^T - M_Y) over A within the erasure budget: row
    operations cancel the header block, leaving the residual
    C = phi(x) * Y_header - Y_payload plus however many fresh dimensions are
    needed to push the transfer rank up to n - rho."""
    inner = expand_to_base(lifted.inner.ctx, x_inner)
    residual = inner.matmul(header).add(payload.scale(payload.field.neg(1)))
    c_rank = residual.rank()
    span = header.stack(residual).rank()
    return c_rank + max(0, lifted.n - rho - span)


def discrepancy_noncoherent(lifted: LiftedScheme, Y: Sequence[int], S: Sequence[int],
                            rho: int, mode: str = "fast",
                            cap: int = DEFAULT_ORACLE_A_CAP) -> int:
    """Fewest injected packets explaining Y under some transfer matrix of
    rank >= n - rho, minimized over the coset of S."""
    if mode == "fast":
        header, payload = _split_received(lifted, Y)
        return min(_member_discrepancy_fast(lifted, header, payload, x, rho)
                   for x in lifted.inner.coset_elements(S))
    if mode == "oracle":
        ctx, N, n = lifted.ctx, len(Y), lifted.n
        if ctx.q ** (N * n) > cap:
            raise EnumerationTooLarge("oracle mode enumerates every transfer matrix")
        members = [lifted.lift_vector(x) for x in lifted.inner.coset_elements(S)]
        return min((rank_weight(ctx, vec_sub(ctx, Y, ext_vec_times_base_transpose(ctx, X, A)))
                    for A in all_matrices(ctx.q, N, n) if A.rank() >= n - rho
                    for X in members), default=None)
    raise PreconditionError(f"unknown mode {mode!r}")


def decode_noncoherent(lifted: LiftedScheme, Y: Sequence[int], rho: int,
                       mode: str = "fast", t_max: int | None = None) -> DecodeResult:
    return _closest(((S, discrepancy_noncoherent(lifted, Y, S, rho, mode))
                     for S in lifted.inner.messages()), t_max)


def delta_min_noncoherent(lifted: LiftedScheme, rho: int, method: str = "closed",
                          N: int | None = None) -> int:
    """Minimum noncoherent delta distance of the lifted coset family."""
    if method == "closed":
        return max(0, first_rgrw(lifted.inner.c1, lifted.inner.c2) - rho)
    if method != "bruteforce":
        raise PreconditionError(f"unknown method {method!r}")
    # brute force: min over coset pairs, members and transfer-matrix pairs of
    # the rank distance between the two transformed lifted packets
    n = lifted.n
    N = n if N is None else N
    q = lifted.ctx.q
    m = lifted.ctx.m
    if q != 2 or m * N > 22:
        raise EnumerationTooLarge("bruteforce path needs q=2 and m*N <= 22 bits")
    table = packed_rank_table(m, N)
    a_mats = [A for r in range(n - rho, n + 1)
              for A in all_matrices(q, N, n) if A.rank() == r]
    keys = []  # keys[message index] = np.array over (member, A)
    inner = lifted.inner
    for S in inner.messages():
        mk = []
        for x in inner.coset_elements(S):
            X = lifted.lift_vector(x)
            MX = expand_to_base(lifted.ctx, X)
            mrows = [pack_row_bits(r) for r in MX.rows]
            for A in a_mats:
                arows = [pack_row_bits(r) for r in A.rows]
                mk.append(_product_key(mrows, arows, N))
        keys.append(np.array(mk, dtype=np.uint32))
    best = None
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            xo = keys[i][:, None] ^ keys[j][None, :]
            d = int(table.lookup(xo).min())
            if best is None or d < best:
                best = d
            if best == 0:
                return 0
    return best


def _product_key(mrows: list[int], arows: list[int], ncols: int) -> int:
    """Packed key of (M A^T) for bit-row M (m x n) and bit-row A (N x n)."""
    key = 0
    shift = 0
    for mr in mrows:
        bits = 0
        for i, ar in enumerate(arows):
            if (mr & ar).bit_count() & 1:
                bits |= 1 << i
        key |= bits << shift
        shift += ncols
    return key


# -- capability verification ------------------------------------------------------


@dataclass
class CapabilityReport:
    verified: bool
    mode: str
    t: int
    rho: int
    n: int
    N: int
    trials: int
    covered_tuples: int | None
    counterexample: dict | None
    complete: bool = True

    def to_json(self) -> dict:
        return {
            "verified": self.verified, "mode": self.mode, "t": self.t,
            "rho": self.rho, "n": self.n, "N": self.N, "trials": self.trials,
            "covered_tuples": self.covered_tuples,
            "counterexample": self.counterexample, "complete": self.complete,
        }


def capability_report(scheme, t: int, rho: int, mode: str = "exhaustive", *,
                      N: int | None = None, trials: int | None = None,
                      budget: int = DEFAULT_SAMPLED_BUDGET, seed: int = 0,
                      error_cap: int = 10**6) -> CapabilityReport:
    """Verify (or refute) correction of every t-error pattern at every
    transfer matrix within the erasure budget rho."""
    if t < 0 or not 0 <= rho <= scheme.n:
        raise PreconditionError(f"need t >= 0 and 0 <= rho <= n, got t={t}, rho={rho}")
    if trials is not None and trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    if isinstance(scheme, LiftedScheme):
        if mode != "sampled":
            raise PreconditionError("lifted schemes support sampled verification only")
        return _sampled(scheme, t, rho, N, trials or 200, budget, seed)
    if mode == "exhaustive":
        return _exhaustive_coherent(scheme, t, rho, N, error_cap)
    if mode == "exhaustive-full":
        return _full_sweep_coherent(scheme, t, rho, N, error_cap)
    if mode == "sampled":
        return _sampled(scheme, t, rho, N, trials or 1000, budget, seed)
    raise PreconditionError(f"unknown mode {mode!r}")


def _covered_tuples(scheme, q, N, n, rho, n_errors) -> int:
    a_count = sum(rank_r_count(q, N, n, r) for r in range(n - rho, n + 1))
    return a_count * scheme.message_count() * scheme.c2.codeword_count() * n_errors


def _exhaustive_coherent(scheme: NestedScheme, t: int, rho: int,
                         N: int | None, error_cap: int) -> CapabilityReport:
    ctx, n = scheme.ctx, scheme.n
    N = n if N is None else N
    if N < n - rho:
        raise PreconditionError("N too small for the rank constraint")
    errors = list(enumerate_errors(ctx, N, t, cap=error_cap))
    c2_words = list(scheme.c2.codewords())
    nonzero_msgs = [S for S in scheme.messages() if any(S)]
    reps = {S: scheme.representative(S) for S in nonzero_msgs}
    counterexample = None
    trials = 0
    for r in range(n - rho, n + 1):
        for Abase in enumerate_base_subspaces(ctx.q, n, r):
            A = Matrix(Abase.field,
                       list(Abase.rows) + [[0] * n for _ in range(N - r)], n)
            c2_at = [ext_vec_times_base_transpose(ctx, c, A) for c in c2_words]
            rep_at = {S: ext_vec_times_base_transpose(ctx, reps[S], A)
                      for S in nonzero_msgs}
            for E in errors:
                trials += 1
                true_val = min(rank_weight(ctx, vec_sub(ctx, E, cat)) for cat in c2_at)
                for S in nonzero_msgs:
                    base_vec = vec_sub(ctx, E, rep_at[S])
                    other = min(rank_weight(ctx, vec_sub(ctx, base_vec, cat))
                                for cat in c2_at)
                    if other <= true_val:
                        counterexample = {
                            "A": A.to_json(), "E": [list(ctx.coeffs(e)) for e in E],
                            "difference_message": list(S),
                            "true_discrepancy": true_val, "other_discrepancy": other,
                        }
                        break
                if counterexample:
                    break
            if counterexample:
                break
        if counterexample:
            break
    return CapabilityReport(
        verified=counterexample is None, mode="exhaustive", t=t, rho=rho, n=n, N=N,
        trials=trials,
        covered_tuples=_covered_tuples(scheme, ctx.q, N, n, rho, len(errors)),
        counterexample=counterexample)


def _full_sweep_coherent(scheme: NestedScheme, t: int, rho: int,
                         N: int | None, error_cap: int) -> CapabilityReport:
    """Every transfer matrix literally, via packed rank tables (q = 2)."""
    ctx, n = scheme.ctx, scheme.n
    N = n if N is None else N
    q, m = ctx.q, ctx.m
    if q != 2 or m * N > 22 or N * n > 22 or m * scheme.c1.k > 20:
        raise EnumerationTooLarge("full sweep needs q=2 and packable dimensions")
    a_table = packed_rank_table(N, n)
    e_table = packed_rank_table(m, N)
    a_keys = np.nonzero(a_table.table >= n - rho)[0]
    errors = list(enumerate_errors(ctx, N, t, cap=error_cap))
    e_keys = np.array(
        [_pack_expansion(ctx, E, N) for E in errors], dtype=np.uint32)
    # F_2 generators of C1; C2 generators sit in the low subset bits so that
    # combos reshape into [message combo, coset member combo]
    alpha_powers = [ctx.pow(ctx.alpha, j) if ctx.m > 1 else 1 for j in range(m)]
    gen_rows = list(scheme.c2.gen.rows) + list(scheme.delta_g.rows)
    generators = []
    for row in gen_rows:
        for ap in alpha_powers:
            v = tuple(ctx.mul(ap, x) for x in row)
            generators.append([pack_row_bits(r) for r in expand_to_base(ctx, v).rows])
    n_msg_bits = m * scheme.l
    n_bits = len(generators)
    counterexample = None
    trials = 0
    for a_key in a_keys:
        arows = [int(a_key) >> (i * n) & ((1 << n) - 1) for i in range(N)]
        gen_keys = [_product_key(g, arows, N) for g in generators]
        combos = np.zeros(1 << n_bits, dtype=np.uint32)
        for idx in range(1, 1 << n_bits):
            low = idx & -idx
            combos[idx] = combos[idx ^ low] ^ gen_keys[low.bit_length() - 1]
        grouped = combos.reshape(-1, 1 << (n_bits - n_msg_bits)) \
            if n_bits > n_msg_bits else combos.reshape(-1, 1)
        # grouped[msg_combo, c2_combo]: key of (rep+mask) A^T
        vals = e_table.lookup(grouped[:, :, None] ^ e_keys[None, None, :]).min(axis=1)
        trials += len(e_keys)
        bad = vals[1:] <= vals[0][None, :]
        if bad.any():
            mi, ei = np.argwhere(bad)[0]
            counterexample = {"A_key": int(a_key), "error_index": int(ei),
                              "difference_combo": int(mi) + 1}
            break
    covered = _covered_tuples(scheme, q, N, n, rho, len(errors))
    return CapabilityReport(
        verified=counterexample is None, mode="exhaustive-full", t=t, rho=rho,
        n=n, N=N, trials=trials, covered_tuples=covered,
        counterexample=counterexample)


def _pack_expansion(ctx, vec: Sequence[int], width: int) -> int:
    M = expand_to_base(ctx, vec)
    return sum(pack_row_bits(r) << (i * width) for i, r in enumerate(M.rows))


def run_trial(rng: random.Random, scheme, N: int, t: int, rho: int):
    """One seeded encode -> transmit -> decode round: (A, S, DecodeResult).

    Draws, in order, a transfer matrix of rank >= n - rho, a t-packet error,
    a uniform message and its coset member; a LiftedScheme is decoded
    noncoherently, a NestedScheme coherently with A known."""
    ctx, n = scheme.ctx, scheme.n
    lifted = isinstance(scheme, LiftedScheme)
    A = sample_transfer(rng, ctx.q, N, n, rho)
    D, Z = sample_error_pair(rng, ctx, N, t)
    order = scheme.inner.ctx.order if lifted else ctx.order
    S = tuple(rng.randrange(order) for _ in range(scheme.l))
    X = scheme.lift_encode(S, rng) if lifted else scheme.encode(S, rng)
    real = ChannelRealization(A, Matrix.zeros(ctx.base, 0, n), D, Matrix.zeros(ctx.base, 0, t), Z)
    Y, _ = transmit(ctx, X, real)
    result = decode_noncoherent(scheme, Y, rho) if lifted else decode_coherent(scheme, A, Y)
    return A, S, result


def _sampled(scheme, t: int, rho: int, N: int | None, trials: int, budget: int,
             seed) -> CapabilityReport:
    n = scheme.n
    N = n if N is None else N
    rng = random.Random(seed)
    run = min(trials, budget)
    counterexample = None
    for i in range(run):
        A, S, result = run_trial(rng, scheme, N, t, rho)
        if not (result.ok and result.message == S):
            counterexample = {"trial": i, "A": A.to_json(), "S": list(S),
                              "status": result.status}
            break
    report = CapabilityReport(
        verified=counterexample is None, mode="sampled", t=t, rho=rho, n=n, N=N,
        trials=run, covered_tuples=None, counterexample=counterexample,
        complete=trials <= budget)
    if trials > budget:
        raise BudgetExceeded(f"requested {trials} trials exceeds budget {budget}",
                             report=report)
    return report


# -- constructive failure witnesses -------------------------------------------------


def split_error_by_rank(base_field, M_rows: list[Sequence[int]], ncols: int,
                        part: int) -> tuple[Matrix, Matrix]:
    """Split a base-field matrix into two summands of rank (part, rank-part)."""
    M = Matrix(base_field, M_rows, ncols)
    red, rank, pivots = M.rref()
    if not 0 <= part <= rank:
        raise PreconditionError("part must lie within the rank")
    basis = red.rows[:rank]
    coeffs = [[row[p] for p in pivots] for row in M.rows]  # M = coeffs * basis
    first = [[base_field.zero] * ncols for _ in M.rows]
    second = [[base_field.zero] * ncols for _ in M.rows]
    for i, crow in enumerate(coeffs):
        for s, c in enumerate(crow):
            if not c:
                continue
            target = first if s < part else second
            for j, b in enumerate(basis[s]):
                if b:
                    target[i][j] = base_field.add(target[i][j], base_field.mul(c, b))
    return Matrix(base_field, first, ncols), Matrix(base_field, second, ncols)


def _vector_from_expansion(ctx, M: Matrix) -> tuple[int, ...]:
    return tuple(ctx.from_coeffs([M.rows[r][j] for r in range(M.nrows)])
                 for j in range(M.ncols))


def construct_failure_witness(scheme: NestedScheme, t: int, rho: int,
                              N: int | None = None) -> dict:
    """A concrete admissible (A, error) on which min-discrepancy decoding
    cannot recover the sender, for budgets with 2t + rho >= the first
    relative weight.

    A rank-(n - rho) transfer matrix compresses a minimum-weight difference
    codeword; the compressed image u (rank d <= 2t) splits as W + W' with
    rank(W) = ceil(d/2) <= t.  Sending the zero coset and injecting W makes
    the rival coset score d - ceil(d/2) <= ceil(d/2), so the decoder ties
    or prefers the rival."""
    ctx, n = scheme.ctx, scheme.n
    N = n if N is None else N
    m1 = first_rgrw(scheme.c1, scheme.c2)
    if 2 * t + rho < m1:
        raise PreconditionError("within capability: no failure witness exists")
    v = next(w for w in scheme.c1.codewords()
             if not scheme.c2.contains_word(w) and rank_weight(ctx, w) == m1)
    base = ctx.base
    # transfer matrix whose row space contains the support complement of v
    # and has rank exactly max(n - rho, n - m1): then rank(v A^T) = [m1-rho]^+
    support = expand_to_base(ctx, v).row_basis()
    perp = support.right_kernel()
    a_rows = [list(r) for r in perp.rows]
    target = max(n - rho, n - m1)
    for j in range(n):  # extend with unit vectors independent modulo perp
        if len(a_rows) == target:
            break
        cand = [1 if c == j else 0 for c in range(n)]
        if Matrix(base, a_rows + [cand], n).rank() > len(a_rows):
            a_rows.append(cand)
    if len(a_rows) > N:
        raise PreconditionError(f"witness needs N >= {len(a_rows)}")
    a_rows += [[0] * n] * (N - len(a_rows))
    A = Matrix(base, a_rows, n)
    require(A.rank() >= n - rho, "witness transfer matrix lost rank")
    # the achieving difference codeword under this A, and its exact distance
    d_pair, w_best = _closest_difference(scheme, A)
    require(d_pair <= max(0, m1 - rho) <= 2 * t, "compressed difference exceeds 2t")
    u = ext_vec_times_base_transpose(ctx, w_best, A)
    part = (d_pair + 1) // 2
    w_mat, _ = split_error_by_rank(base, list(expand_to_base(ctx, u).rows), N, part)
    injected = _vector_from_expansion(ctx, w_mat)
    require(rank_weight(ctx, injected) == part <= t, "injected error rank is not ceil(d/2)")
    zero_msg = (0,) * scheme.l
    Y = injected  # zero coset sent, error = injected
    result = decode_coherent(scheme, A, Y)
    return {
        "A": A, "Y": Y, "injected": injected,
        "true_message": zero_msg,
        "rival_message": scheme.decode_message_of(w_best),
        "discrepancies": (part, d_pair - part),
        "result": result,
        "demonstrates_failure": not (result.ok and result.message == zero_msg),
    }
