"""Minimum-discrepancy decoding and capability verification.

Coherent decoding minimizes, over candidate cosets, the fewest injected
packets that could turn some coset member into the received word under the
known transfer matrix; that count equals the rank distance between the
transformed member and the received word.  Noncoherent decoding minimizes
the same quantity over every transfer matrix within the erasure budget;
for identity-header (lifted) packets it is coherent decoding of the inner
scheme with the received header as the transfer matrix, every discrepancy
raised by one shift (_as_coherent states the proof).  Decoding scores
every coset of C1 at once, on packed keys at q = 2 within their bit bounds
and on base-field digit arrays otherwise; no decode runs field arithmetic.

Exhaustive capability verification covers the full quantifier space of the
correction definition through two exact reductions, each property-tested
elsewhere against the plain decoder:

* transfer matrices act through their row space only (A = R * rref(A) with
  R invertible, and conjugating the error by R bijects the error ball), so
  one canonical representative per row space suffices; and
* the decoder's discrepancy profile is translation-invariant, so success
  for every (message, coset member) at fixed (A, E) is equivalent to every
  nonzero difference coset scoring strictly worse than the true one.

One decision rule then holds at every q.  Let delta(A) be the least rank of
v A^T over C1's codewords v outside C2; the row-space loop hits at A (some
error E of rank <= t and nonzero difference S whose coset scores no better
than the true one at received word E) exactly when delta(A) <= 2t.  More
finely, combo c (a nonzero difference message, l_c its coset leader) fails
at A exactly when some member u of (l_c + C2) A^T has rank(u) <= 2t.  Only
if: if c ties or beats the true coset at Y = E, the true coset scores s <=
rank(E) <= t (its member 0 maps to 0), so the two cosets' images lie within
2s <= 2t of each other.  If: take u of least rank d <= 2t in c's coset and
Y its first ceil(d/2) rank-one terms; c scores at most floor(d/2) at Y, and
if C2 A^T scored less through some w, u - w would be a member of c's coset
of rank below d.  So c fails at the error Y, of rank ceil(d/2) <= t, and
ceil(d/2) <= min(N, m), so Y is in the enumerated error ball.  (At N = 0,
v A^T is empty: delta(A) = 0 and the empty error ties every coset.)  Only
rank-metric facts are used, over any F_q.  Verification decides this rule
first and builds a report only for a refuted budget; a refuted report must
hit at the decider's first failing A, or InvariantViolated is raised.

For q = 2 both exhaustive modes and coherent decoding work on packed GF(2)
keys: an F_{2^m} vector is pack_key(x, m), entry j on bits j*m .. j*m + m - 1,
and an N x n transfer matrix pack_key(rows, n).  The keys of v A^T are read
from the scheme's row-id image tables (NestedScheme.row_images), entry j
being v times row j of A.  Combo c is the difference message whose symbol i
is (c >> i*m) & (2^m - 1); combo 0 is the true coset.

* The decider finds, over transfer keys in the order given, the first A
  under which some nonzero combo fails, and the least such combo c: one
  rank-table lookup per (A, codeword of C1 outside C2).
* The error keys are built directly, in enumerate_errors order and in
  blocks (_error_key_blocks): E = z R, R a canonical basis of dimension r,
  has key XOR_s z_s * spread(R_s), each row's bit j spread to bit j*m, kept
  when that key has rank r.
* _packed_scores scores every coset at many received words: each word's
  key is XORed into C1's codeword keys under its A (or one A for all), one
  rank-table lookup per (word, codeword), and each run of codewords folds
  into its cosets' minima (codeword i lies in the coset of combo
  i >> (m * dim C2)); reversing the combo's symbols gives messages() order.

The decider and the scorer span C1's codewords under many A at once when
all of C1 fits in PACKED_BLOCK elements, else under one A in runs of
codewords; each temporary holds at most PACKED_BLOCK elements, or one run's
lookups for a block of words that its caller sizes by |C1|.

For q > 2, and past the packed bit bounds, the row-space check decides on
base-field digit arrays: C1's codewords outside C2 are the base-q digits
NestedScheme.codeword_digits lists from entry |C2| on (its first |C2|
entries, the zero message's coset, are C2); the canonical A stream as row
ids, the digits of v A^T are gathered from linalg.RowImages of the group's
distinct ids, and linalg.rank_mod_q ranks every m x N digit matrix of v A^T
in one batched F_q elimination; delta_min_over_A reads the same least ranks
at every q.  _digit_scores scores words on digit arrays, a coset's score
being the least rank of the word minus a member's image.  A decode scores
its words, each under its own A, with _packed_scores within the packed
bounds and _digit_scores past them; a tie for the least score is ambiguous.

Every exhaustive mode counts trials and covered tuples with
network.error_count.  A refuted budget is reported by one search at every
q, _first_hit: the errors, in enumerate_errors order and in blocks that
start at one error and double, are received words under the decider's
first failing A alone, scored on error keys where the decider packs and on
error digits (_error_digits) otherwise.  The row-space check reports the
first hit in (E, S) row-major order, S in messages() order, as the
field-arithmetic loop does, its trials offset by the row spaces before it;
the raw full sweep (every transfer key, ascending) reports combo c's first
failing error.  No report runs field arithmetic.

The field-arithmetic row-space loop and the coset scans it runs on (in the
tests) are the reference for both deciders' reports and for every decode;
_packed_scores under one A, over every error, is the reference for the
packed decider; _closest_difference, for the digit decider's least ranks;
enumerate_errors, for the error keys and digits.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bitrank import PACKED_BLOCK, pack_key, packed_rank_table, row_image_tables, span_keys
from .codes import require_scan_cap
from .coset_scheme import LiftedScheme, NestedScheme
from .errors import DimensionMismatch, EnumerationTooLarge, PreconditionError, require
from .linalg import (
    Matrix,
    RowImages,
    expand_to_base,
    ext_vec_times_base_transpose,
    field_digits,
    rank_mod_q,
    vec_sub,
)
from .network import (
    all_matrices,
    error_count,
    require_error_cap,
    sample_error_pair,
    sample_transfer,
    transmit,
)
from .rank_metrics import first_rgrw, rank_weight
from .subspaces import (base_subspace_ids, gaussian_binomial, rank_r_count, require_enum_cap,
                        row_digits)

DEFAULT_SAMPLED_BUDGET = 10**5


@dataclass
class DecodeResult:
    status: str  # "decoded" | "ambiguous"
    message: tuple[int, ...] | None
    discrepancy: int
    runner_up: int | None

    @property
    def ok(self) -> bool:
        return self.status == "decoded"


# -- coherent ------------------------------------------------------------------


def _require_word(ctx, *Ys: Sequence[int]) -> None:
    """Refuse received words with a symbol outside 0..q^m - 1."""
    if not all(isinstance(y, (int, np.integer)) and 0 <= y < ctx.order
               for y in itertools.chain.from_iterable(Ys)):
        raise PreconditionError(f"received symbols must be integers in 0..{ctx.order - 1}")


def _require_budget(n: int, N: int, rho: int) -> None:
    """Refuse an erasure budget outside 0..n, or N < n - rho packets, which
    no transfer matrix of rank >= n - rho delivers."""
    if not 0 <= rho <= n:
        raise PreconditionError("need 0 <= rho <= n")
    if N < n - rho:
        raise PreconditionError("N too small for the rank constraint")


def discrepancy_coherent(scheme: NestedScheme, A: Matrix, Y: Sequence[int],
                         S: Sequence[int]) -> int:
    """Fewest injected packets explaining Y if the coset of S was sent: the
    least rank(Y - X A^T) over the coset's members X, C2 listed alone."""
    ctx = scheme.ctx
    _require_word(ctx, Y)
    return min(rank_weight(ctx, vec_sub(ctx, Y, ext_vec_times_base_transpose(ctx, X, A)))
               for X in scheme.coset_elements(S))


def decode_coherent(scheme: NestedScheme, A: Matrix, Y: Sequence[int]) -> DecodeResult:
    """Return the message of the unique closest coset; ties are reported as
    ambiguous rather than broken, so capability boundaries stay observable."""
    return _decode_block(scheme, [A], [Y])[0]


def _packs(ctx, N: int, n: int) -> bool:
    """Whether length-N words over F_{2^m} and N x n transfer matrices fit
    packed q = 2 keys (m N <= 22 and N n <= 32 bits)."""
    return ctx.q == 2 and ctx.m * N <= 22 and N * n <= 32


def _decode_block(scheme: NestedScheme, As: Sequence[Matrix],
                  Ys: Sequence[Sequence[int]]) -> list[DecodeResult]:
    """decode_coherent of each received word Ys[w] under As[w], all of one
    length N, every coset scored at once: at q = 2 within the packed bounds,
    one rank-table lookup per (word, codeword of C1); else on digit arrays,
    C1's images under each word's A against the word's digits."""
    ctx, n, q = scheme.ctx, scheme.n, scheme.ctx.q
    _require_word(ctx, *Ys)
    N = As[0].nrows
    require_scan_cap(scheme.c1.codeword_count())
    if any(A.ncols != n for A in As):
        raise DimensionMismatch("A ncols must equal len(x)")
    if any(A.nrows != N for A in As):
        raise DimensionMismatch("vector lengths differ")
    entries = np.array([A.rows for A in As]).reshape(len(As), N * n)
    if entries.size and not (entries.dtype.kind in "biu" and 0 <= entries.min()
                             and entries.max() < q):
        raise PreconditionError(f"A must have base-field entries in 0..{q - 1}")
    if any(len(Y) != N for Y in Ys):
        raise DimensionMismatch("vector lengths differ")
    if _packs(ctx, N, n):
        a_keys = entries.astype(np.uint32) @ (np.uint32(1) << np.arange(N * n, dtype=np.uint32))
        scores = _packed_scores(scheme, a_keys, _pack_vectors(list(Ys), ctx.m, N), N)
    else:
        transfers = entries.astype(np.int64).reshape(len(As), N, n) @ q ** np.arange(n)  # row ids
        words = field_digits(np.reshape(Ys, (len(Ys), N)), q, ctx.m).transpose(1, 2, 0)
        scores = _digit_scores(q, words, _negated_images(scheme, transfers))
    pairs = np.partition(scores, 1, axis=1)[:, :2].tolist()
    symbols = np.unravel_index(scores.argmin(axis=1), (ctx.order,) * scheme.l)
    return [DecodeResult("ambiguous", None, best, runner) if best == runner else
            DecodeResult("decoded", S, best, runner)
            for (best, runner), S in zip(pairs, zip(*(s.tolist() for s in symbols)))]


def _difference_words(scheme: NestedScheme) -> list[tuple[int, ...]]:
    """C1's codewords outside C2, in codewords() order; no A changes them."""
    return [v for v in scheme.c1.codewords() if not scheme.c2.contains_word(v)]


def _closest_difference(ctx, words: list[tuple[int, ...]], A: Matrix):
    """(least rank of v A^T over words, the first v attaining it)."""
    best = best_v = None
    for v in words:
        d = rank_weight(ctx, ext_vec_times_base_transpose(ctx, v, A))
        if best is None or d < best:
            best, best_v = d, v
    return best, best_v


def delta_min_over_A(scheme: NestedScheme, rho: int) -> int:
    """min over transfer matrices of rank >= n - rho of the coset delta
    distance.  v A^T has the same rank for every A with a given row space,
    so canonical representatives per row space suffice."""
    _require_budget(scheme.n, scheme.n, rho)
    best = scheme.n  # no v A^T has rank above n
    for _, least in _least_rank_groups(scheme, rho, scheme.n):
        best = min(best, int(least.min()))
        if best == 0:
            break
    return best


# -- noncoherent -----------------------------------------------------------------


def _vector_from_expansion(ctx, M: Matrix) -> tuple[int, ...]:
    return tuple(ctx.from_coeffs([M.rows[r][j] for r in range(M.nrows)])
                 for j in range(M.ncols))


def _as_coherent(lifted: LiftedScheme, Y: Sequence[int],
                 rho: int) -> tuple[Matrix, tuple[int, ...], int]:
    """(A, y, shift): noncoherent decoding of Y is coherent decoding of the
    inner scheme under A, y, every discrepancy raised by shift.

    lift_vector puts packet j's header on base-q digits 0..n-1 of its symbol
    and the inner coefficients above, so M_Y = expand_to_base(Y) stacks the
    n header rows H over the payload rows P, read from the digits: row j of
    A = H^T is row_digits(Y_j mod q^n), y_j = Y_j // q^n is column j of P
    as an inner-field symbol, rank M_Y is the rank weight of Y, and shift =
    [n - rho - rank M_Y]^+ (after Silva, Kschischang and Koetter, IEEE Trans.
    IT 2008).  Over transfer matrices A' of rank >= n - rho, the least
    rank(M_X A'^T - M_Y) for the lifted member X of x is rank(R) +
    [n - rho - rank [H; R]]^+, with the residual R = phi(x) H - P and phi(x)
    the expansion of x; mode="oracle" of discrepancy_noncoherent checks this
    by brute force.  R is the expansion of x A^T - y, so rank(R) is the
    coherent discrepancy of x at y.  Adding -phi(x) times the header block
    to R takes [H; R] to [H; -P], so rank [H; R] = rank M_Y for every x: the
    second term is one shift for every member of every coset."""
    q, n = lifted.ctx.q, lifted.n
    A = Matrix(lifted.ctx.base, [row_digits(v % q**n, q, n) for v in Y], n)
    return A, tuple(v // q**n for v in Y), max(0, n - rho - rank_weight(lifted.ctx, Y))


def _shifted(r: DecodeResult, shift: int) -> DecodeResult:
    """r with both discrepancies raised by shift."""
    return DecodeResult(r.status, r.message, r.discrepancy + shift, r.runner_up + shift)


def discrepancy_noncoherent(lifted: LiftedScheme, Y: Sequence[int], S: Sequence[int],
                            rho: int, mode: str = "fast") -> int:
    """Fewest injected packets explaining Y under some transfer matrix of
    rank >= n - rho, minimized over the coset of S.  The oracle mode
    minimizes over every transfer matrix by brute force."""
    _require_word(lifted.ctx, Y)
    _require_budget(lifted.n, len(Y), rho)
    if mode == "fast":
        A, y, shift = _as_coherent(lifted, Y, rho)
        return discrepancy_coherent(lifted.inner, A, y, S) + shift
    if mode == "oracle":
        ctx, N, n = lifted.ctx, len(Y), lifted.n
        transfers = all_matrices(ctx.q, N, n)
        members = list(lifted.coset_elements(S))
        return min(rank_weight(ctx, vec_sub(ctx, Y, ext_vec_times_base_transpose(ctx, X, A)))
                   for A in transfers if A.rank() >= n - rho
                   for X in members)
    raise PreconditionError(f"unknown mode {mode!r}")


def decode_noncoherent(lifted: LiftedScheme, Y: Sequence[int], rho: int) -> DecodeResult:
    """decode_coherent of the inner scheme under _as_coherent(Y), with its
    discrepancies shifted."""
    _require_word(lifted.ctx, Y)
    _require_budget(lifted.n, len(Y), rho)
    A, y, shift = _as_coherent(lifted, Y, rho)
    return _shifted(decode_coherent(lifted.inner, A, y), shift)


def delta_min_noncoherent(lifted: LiftedScheme, rho: int, method: str = "closed",
                          N: int | None = None) -> int:
    """Minimum noncoherent delta distance of the lifted coset family."""
    n = lifted.n
    N = n if N is None else N
    _require_budget(n, N, rho)
    if method == "closed":
        return max(0, first_rgrw(lifted.inner.c1, lifted.inner.c2) - rho)
    if method != "bruteforce":
        raise PreconditionError(f"unknown method {method!r}")
    # brute force: min over coset pairs, members and transfer-matrix pairs of
    # the rank distance between the two transformed lifted packets
    m = lifted.ctx.m
    _require_packable(lifted.ctx.q, "bruteforce path", [("m*N", m * N, 22), ("N*n", N * n, 22)])
    table = packed_rank_table(N, m).table
    a_keys = _transfer_keys(N, n, rho)
    # keys[message index] = np.array over (A, member)
    keys = [_product_keys(row_image_tables(list(lifted.coset_elements(S)), m),
                          a_keys, m, n, N).ravel()
            for S in lifted.inner.messages()]
    # slices of keys[i]: each XOR table holds at most PACKED_BLOCK keys, or one row
    step = max(1, PACKED_BLOCK // len(keys[0]))
    best = None
    for i, j in itertools.combinations(range(len(keys)), 2):
        for lo in range(0, len(keys[i]), step):
            d = int(table[keys[i][lo:lo + step, None] ^ keys[j]].min())
            if best is None or d < best:
                best = d
            if best == 0:
                return 0
    return best


# -- packed q = 2 keys ---------------------------------------------------------------


def _require_packable(q: int, what: str, bounds: list[tuple[str, int, int]]) -> None:
    """Refuse a packed q = 2 enumeration: PreconditionError unless q = 2,
    EnumerationTooLarge naming the first (name, bits, cap) bound exceeded."""
    if q != 2:
        raise PreconditionError(f"{what} needs q = 2, got q = {q}")
    for name, bits, cap in bounds:
        if bits > cap:
            raise EnumerationTooLarge(f"{what}: {name} = {bits} > {cap} bits")


def _pack_vectors(vectors, m: int, width: int) -> np.ndarray:
    """pack_key(x, m) of each F_{2^m} vector x of length width, over the last
    axis: entry j lands on bits j*m .. j*m + m - 1."""
    shifts = np.arange(0, width * m, m, dtype=np.uint32)
    return np.bitwise_or.reduce(np.array(vectors, dtype=np.uint32) << shifts, axis=-1)


def _error_key_blocks(ctx, N: int, t: int, most: int) -> Iterator[np.ndarray]:
    """Packed keys of enumerate_errors(ctx, N, t), in its order (q = 2), in
    blocks from one candidate doubling up to most, as _error_digits yields.

    E = z R has key XOR_s z_s * spread(R_s), where spread puts bit j of row
    R_s on bit j*m; carry-free, as z_s < 2^m.  The candidates run over
    subspaces, then z in product order; the errors are those of key rank r
    (z's components F_2-independent)."""
    require_error_cap(ctx, N, t)
    table = packed_rank_table(N, ctx.m).table
    z = np.arange(1, ctx.order, dtype=np.uint32)
    yield np.zeros(1, dtype=np.uint32)
    nz, size = len(z), min(2, most)
    for r in range(1, min(t, N, ctx.m) + 1):
        ids = np.array(list(base_subspace_ids(2, N, r)), dtype=np.uint32)[..., None]
        rows = _pack_vectors(ids >> np.arange(N, dtype=np.uint32) & np.uint32(1), ctx.m, N)
        count, lo = len(rows) * nz ** r, 0
        while lo < count:
            idx = np.arange(lo, min(lo + size, count), dtype=np.int64)
            keys = np.zeros(len(idx), dtype=np.uint32)
            for s in range(r):  # z_s - 1 is digit r - 1 - s of idx in base 2^m - 1
                keys ^= z[idx // nz ** (r - 1 - s) % nz] * rows[idx // nz ** r, s]
            yield keys[table[keys] == r]
            lo, size = lo + len(idx), min(2 * size, most)


def _error_keys(ctx, N: int, t: int) -> np.ndarray:
    """Every block of _error_key_blocks, each within PACKED_BLOCK candidates, in one array."""
    return np.concatenate(list(_error_key_blocks(ctx, N, t, PACKED_BLOCK)))


def _unpack_key(key: int, m: int, N: int) -> tuple[int, ...]:
    """The F_{2^m} vector of length N whose packed key is key."""
    return tuple((key >> (j * m)) & ((1 << m) - 1) for j in range(N))


def _transfer_keys(N: int, n: int, rho: int) -> np.ndarray:
    """Packed keys (row j at bit j*n), ascending, of every N x n binary
    matrix of rank >= n - rho."""
    return np.nonzero(packed_rank_table(N, n).table >= n - rho)[0].astype(np.uint32)


def _product_keys(images, a_keys: np.ndarray, m: int, n: int, N: int) -> np.ndarray:
    """keys[A, k]: packed key of x_k A^T for every N x n key A in a_keys, from
    images = row_image_tables(x, m); the group of rows at row j goes to bit j*m."""
    rows, windows = images
    keys = np.zeros((len(a_keys), windows[0][1].shape[1]), dtype=np.uint32)
    for j in range(0, N, rows):
        for lo, table in windows:
            idx = (a_keys >> np.uint32(j * n + lo)) & np.uint32(len(table) - 1)
            keys ^= table[idx] << np.uint32(j * m)
    return keys


def _codeword_runs(scheme: NestedScheme, a_keys: np.ndarray,
                   N: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (start, first, keys) in order: keys[a, i] is the packed key under
    a_keys[start + a] of codeword first + i of C1, the sum of the F_2
    generators (C2's first) picked by its bits."""
    m = scheme.ctx.m
    bits = m * scheme.c1.k
    # many A at once when all of C1 fits in the block; else one A in runs of
    # 2^low codewords, the low generators' span plus each sum of the high ones
    low = min(bits, PACKED_BLOCK.bit_length() - 1)
    batch = max(1, PACKED_BLOCK >> bits)
    for start in range(0, len(a_keys), batch):
        gen_keys = _product_keys(scheme.row_images, a_keys[start:start + batch], m, scheme.n, N)
        span = span_keys(gen_keys[:, :low])
        for high, offsets in enumerate(span_keys(gen_keys[:, low:]).T):
            yield start, high << low, span ^ offsets[:, None] if high else span


def _first_failing_transfer(scheme: NestedScheme, a_keys: np.ndarray, t: int,
                            N: int) -> tuple[int, int] | None:
    """(i, c) for the first transfer key a_keys[i] under which some nonzero
    combo fails for an error of rank <= t, c the least such combo; or None.
    Combo c fails exactly when a member of (l_c + C2) A^T has rank <= 2t."""
    table = packed_rank_table(N, scheme.ctx.m).table
    n_c2 = scheme.ctx.m * scheme.c2.k
    for start, first, keys in _codeword_runs(scheme, a_keys, N):
        failing = table[keys] <= 2 * t
        failing[:, :max(0, (1 << n_c2) - first)] = False  # true coset
        if failing.any():
            a, i = divmod(int(failing.argmax()), failing.shape[1])
            return start + a, (first + i) >> n_c2
    return None


def _packed_scores(scheme: NestedScheme, a_keys: np.ndarray, y_keys: np.ndarray,
                   N: int) -> np.ndarray:
    """scores[w, c]: coset c's discrepancy, in messages() order, at the packed
    word y_keys[w] under the transfer key a_keys[w], or a_keys[0] for every
    word; each run of _codeword_runs folds into its cosets' minima, so a word
    keeps one byte per message."""
    ctx, l = scheme.ctx, scheme.l
    table = packed_rank_table(N, ctx.m).table
    members = scheme.c2.codeword_count()
    scores = np.full((len(y_keys), scheme.message_count()), N, dtype=np.uint8)  # no rank above N
    for start, first, keys in _codeword_runs(scheme, a_keys, N):
        rows = slice(start, start + len(keys)) if len(a_keys) > 1 else slice(None)
        ranks = table[keys ^ y_keys[rows, None]]
        # codeword i lies in the coset of combo i // |C2|; a run spans whole cosets or lies in one
        least = ranks.reshape(len(ranks), -1, min(members, ranks.shape[1])).min(axis=2)
        cosets = slice(first // members, first // members + least.shape[1])
        np.minimum(scores[rows, cosets], least, out=scores[rows, cosets])
    # combo c has symbol i on bits i*m: reversing the symbol axes gives messages() order
    return scores.reshape(len(scores), *(ctx.order,) * l).transpose(
        0, *range(l, 0, -1)).reshape(len(scores), -1)


def _packed_hit(scheme: NestedScheme, a_key: int, t: int, N: int,
                column: int | None = None) -> tuple[int, np.ndarray, int, int, int] | None:
    """_first_hit under the packed N x n transfer key a_key (q = 2), E given
    as its N x m digits: the errors are _error_key_blocks of up to
    PACKED_BLOCK // |C1| candidates, scored by _packed_scores."""
    m, a_keys = scheme.ctx.m, np.array([a_key], dtype=np.uint32)
    blocks = _error_key_blocks(scheme.ctx, N, t, max(1, PACKED_BLOCK // scheme.c1.codeword_count()))
    hit = _first_hit(blocks, lambda errors: _packed_scores(scheme, a_keys, errors, N), column)
    # bit j*m + d of an error key is digit d of entry j
    return hit and (hit[0], field_digits(int(hit[1]), 2, m * N).reshape(N, m), *hit[2:])


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
                      seed: int = 0) -> CapabilityReport:
    """Verify (or refute) correction of every t-error pattern at every
    transfer matrix within the erasure budget rho.  Sampled mode runs
    trials seeded rounds (default 1000, or 200 for a lifted scheme) and
    refuses more than DEFAULT_SAMPLED_BUDGET before the first one."""
    for name, value in (("t", t), ("rho", rho), ("N", N), ("trials", trials)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer, type(None))):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")  # not True as 1
    if t < 0 or not 0 <= rho <= scheme.n:
        raise PreconditionError(f"need t >= 0 and 0 <= rho <= n, got t={t}, rho={rho}")
    if trials is not None and trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    N = scheme.n if N is None else N
    _require_budget(scheme.n, N, rho)
    if isinstance(scheme, LiftedScheme):
        if mode != "sampled":
            raise PreconditionError("lifted schemes support sampled verification only")
        return _sampled(scheme, t, rho, N, trials or 200, seed)
    if mode == "exhaustive":
        return _exhaustive_coherent(scheme, t, rho, N)
    if mode == "exhaustive-full":
        return _full_sweep_coherent(scheme, t, rho, N)
    if mode == "sampled":
        return _sampled(scheme, t, rho, N, trials or 1000, seed)
    raise PreconditionError(f"unknown mode {mode!r}")


def _exhaustive_report(scheme, mode: str, t: int, rho: int, N: int, trials: int,
                       n_errors: int, counterexample: dict | None) -> CapabilityReport:
    q, n = scheme.ctx.q, scheme.n
    a_count = sum(rank_r_count(q, N, n, r) for r in range(n - rho, n + 1))
    return CapabilityReport(
        verified=counterexample is None, mode=mode, t=t, rho=rho, n=n, N=N, trials=trials,
        covered_tuples=a_count * scheme.message_count() * scheme.c2.codeword_count() * n_errors,
        counterexample=counterexample)


def _transfer_count(q: int, n: int, N: int, rho: int) -> int:
    """The number of row spaces of F_q^n of dimension n - rho .. min(n, N)."""
    return sum(gaussian_binomial(n, r, q) for r in range(n - rho, min(n, N) + 1))


def _require_transfer_cap(q: int, n: int, N: int, rho: int) -> None:
    """Admit the transfer family before its first member is listed."""
    require_enum_cap(_transfer_count(q, n, N, rho), "transfer row spaces")


def _transfer_groups(q: int, n: int, N: int, rho: int, size: int) -> Iterator[np.ndarray]:
    """One N x n transfer matrix per row space of dimension n - rho .. min(n,
    N), its canonical basis padded with zero rows, as arrays of row ids of
    shape (count, N), the zero rows id 0, at most size at a time."""
    _require_transfer_cap(q, n, N, rho)
    for r in range(n - rho, min(n, N) + 1):
        ids = base_subspace_ids(q, n, r)
        while chunk := list(itertools.islice(ids, size)):
            group = np.zeros((len(chunk), N), np.int64)
            group[:, :r] = np.reshape(chunk, (len(chunk), r))
            yield group


def _images_under(words: np.ndarray, q: int, transfers: np.ndarray) -> np.ndarray:
    """Digits of v A^T, shape (count, N, m, width), for the words v (digits
    m x n x width) and each N x n base-field matrix A whose row ids are
    transfers[i]: the RowImages of the distinct ids, ascending, gathered."""
    ids, where = np.unique(transfers, return_inverse=True)
    return RowImages(words, q).of(ids.tolist())[where.reshape(transfers.shape)]


def _c1_digits(scheme: NestedScheme) -> Callable[..., Iterable[np.ndarray]]:
    """codeword_digits for one report: C1 listed once and kept while its
    digits fit in PACKED_BLOCK elements, else listed afresh at each call."""
    if scheme.c1.codeword_count() * scheme.n * scheme.ctx.m > PACKED_BLOCK:
        return scheme.codeword_digits
    kept = np.concatenate(list(scheme.codeword_digits()), axis=2)
    return lambda start=0: [kept[:, :, start:]]


def _least_ranks(scheme: NestedScheme, transfers: np.ndarray, digits=None) -> np.ndarray:
    """least[i]: the least rank of v A^T over C1's codewords v outside C2, for
    each N x n base-field matrix A with row ids transfers[i], on digit arrays
    (each temporary within PACKED_BLOCK elements) listed by digits."""
    q, m = scheme.ctx.q, scheme.ctx.m
    count, N = transfers.shape
    least = np.full(count, N)  # no v A^T has rank above N
    width = max(1, PACKED_BLOCK // max(1, count * N * m))
    for words in (digits or scheme.codeword_digits)(scheme.c2.codeword_count()):
        for lo in range(0, words.shape[2], width):
            images = _images_under(words[:, :, lo:lo + width], q, transfers)
            ranks = rank_mod_q(images.transpose(0, 3, 1, 2), q)  # the m x N matrix of each v A^T
            np.minimum(least, ranks.min(axis=1), out=least)
    return least


def _least_rank_groups(scheme: NestedScheme, rho: int, N: int,
                       digits=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(transfers, least): the _transfer_groups of N x n matrices and their
    _least_ranks, many A at once when all their products fit in PACKED_BLOCK."""
    m, n, digits = scheme.ctx.m, scheme.n, digits or _c1_digits(scheme)
    words = scheme.c1.codeword_count() - scheme.c2.codeword_count()
    for group in _transfer_groups(scheme.ctx.q, n, N, rho,
                                  max(1, PACKED_BLOCK // max(1, N * m * words))):
        yield group, _least_ranks(scheme, group, digits)


def _first_failing_row_space(scheme: NestedScheme, t: int, rho: int, N: int,
                             digits) -> tuple[int, list[int]] | None:
    """(index in _transfer_groups order, row ids) of the first A under
    which some nonzero combo fails for an error of rank <= t, that is the
    first A whose least difference rank is <= 2t; or None."""
    seen = 0
    for group, least in _least_rank_groups(scheme, rho, N, digits):
        hits = np.flatnonzero(least <= 2 * t)
        if len(hits):
            return seen + int(hits[0]), group[hits[0]].tolist()
        seen += len(least)
    return None


def _error_digits(ctx, N: int, t: int, most: int) -> Iterator[np.ndarray]:
    """enumerate_errors(ctx, N, t) in its order as base-q digit blocks of
    shape (count, N, m), from blocks of one candidate doubling up to most.

    E = z R has digit d of entry j sum_s (digit d of z_s) R_s[j] mod q, for R
    a canonical basis of dimension r (row ids) and z in product order; it is
    kept when z's m x r digit matrix has rank r.  Past r = m no z qualifies."""
    require_error_cap(ctx, N, t)
    q, m, nz = ctx.q, ctx.m, ctx.order - 1
    z = field_digits(np.arange(1, ctx.order), q, m).T.astype(np.int64)  # (nz, m)
    yield np.zeros((1, N, m), np.min_scalar_type(q - 1))
    size = min(2, most)
    for r in range(1, min(t, N, m) + 1):
        rows = field_digits(np.array(list(base_subspace_ids(q, N, r))), q, N)  # (N, bases, r)
        count, lo = rows.shape[1] * nz**r, 0
        while lo < count:
            idx = np.arange(lo, min(lo + size, count))
            # z_s - 1 is digit r - 1 - s of idx in base q^m - 1, R is idx // nz^r
            zs = np.stack([z[idx // nz ** (r - 1 - s) % nz] for s in range(r)], axis=2)
            basis = rows[:, idx // nz**r].astype(np.int64)  # (N, count, r)
            errors = np.einsum("kds,jks->kjd", zs, basis) % q
            yield errors[rank_mod_q(zs, q) == r].astype(np.min_scalar_type(q - 1))
            lo, size = lo + len(idx), min(2 * size, most)


def _negated_images(scheme: NestedScheme, transfers: np.ndarray, digits=None) -> np.ndarray:
    """Digits of -v A^T mod q, shape (count, messages, |C2|, N, m), for C1's
    codewords v in codeword_digits order (one row per coset, in messages()
    order) and each N x n base-field matrix A with row ids transfers[i]:
    N m |C1| digits per A, which callers size their blocks by."""
    q = scheme.ctx.q
    images = np.concatenate([_images_under(words, q, transfers)
                             for words in (digits or scheme.codeword_digits)()], axis=3)
    negated = (q - images.astype(np.min_scalar_type(2 * (q - 1)))) % q
    return negated.transpose(0, 3, 1, 2).reshape(
        len(transfers), scheme.message_count(), scheme.c2.codeword_count(), *images.shape[1:3])


def _digit_scores(q: int, words: np.ndarray, negated: np.ndarray) -> np.ndarray:
    """scores[w, c]: coset c's discrepancy at words[w] (digits N x m), the
    least rank of words[w] - v A^T over its members v, from _negated_images
    under one A or one A per word; each temporary within PACKED_BLOCK
    elements, or one coset's differences."""
    acc = np.min_scalar_type(2 * (q - 1))  # a word digit plus a negated image digit
    step = max(1, PACKED_BLOCK // max(1, len(words) * math.prod(negated.shape[-3:])))
    return np.concatenate([
        rank_mod_q(np.add(words[:, None, None], negated[:, lo:lo + step], dtype=acc) % q,
                   q).min(axis=2) for lo in range(0, negated.shape[1], step)], axis=1)


def _first_hit(blocks: Iterable[np.ndarray], score: Callable[[np.ndarray], np.ndarray],
               column: int | None = None) -> tuple[int, object, int, int, int] | None:
    """(k, E, c, true, other): the first hit under one transfer matrix A in
    (E, S) row-major order, as the field-arithmetic row-space loop meets it:
    E = errors[k] of the blocks' stream, scored as received words under A by
    score (scores[w, c], c in messages() order), and the least c > 0 (or c =
    column alone) whose coset scores other <= true, the true coset's score;
    or None."""
    lo, hi = (1, None) if column is None else (column, column + 1)
    seen = 0
    for errors in blocks:
        if not len(errors):
            continue
        scores = score(errors)
        hits = scores[:, lo:hi] <= scores[:, :1]
        if hits.any():
            k = int(hits.any(axis=1).argmax())
            c = lo + int(hits[k].argmax())
            return seen + k, errors[k], c, int(scores[k, 0]), int(scores[k, c])
        seen += len(errors)
    return None


def _rowspace_counterexample(A: Matrix, E: list, S, true_val: int, other: int) -> dict:
    """E is the error's list of coefficient vectors."""
    return {"A": A.to_json(), "E": E, "difference_message": list(S),
            "true_discrepancy": true_val, "other_discrepancy": other}


def _exhaustive_coherent(scheme: NestedScheme, t: int, rho: int, N: int) -> CapabilityReport:
    """Row-space check, one canonical A per row space, decided first.  For
    q = 2 the packed decider takes N x n transfer keys (uint32) under its bit
    bounds and the transfer cap, not the scan cap.  Otherwise (q > 2, past
    those bounds, or past 2^20 messages or coset members) the digit decider
    runs on C1 listed once for the report (_c1_digits) or, past PACKED_BLOCK,
    streamed under the scan cap.  A refuted budget is scored by _first_hit at
    the first failing A, its trials offset by the row spaces before it."""
    ctx, n, m, l = scheme.ctx, scheme.n, scheme.ctx.m, scheme.l
    require_error_cap(ctx, N, t)
    n_errors = error_count(ctx, N, t)
    if not _packs(ctx, N, n) or m * max(l, scheme.c2.k) > 20:
        digits = _c1_digits(scheme)
        failing = _first_failing_row_space(scheme, t, rho, N, digits)
        if failing is None:
            return _exhaustive_report(scheme, "exhaustive", t, rho, N,
                                      _transfer_count(ctx.q, n, N, rho) * n_errors, n_errors, None)
        i, ids = failing
        negated = _negated_images(scheme, np.array([ids]), digits)
        hit = _first_hit(_error_digits(ctx, N, t, max(1, PACKED_BLOCK // max(1, negated.size))),
                         lambda errors: _digit_scores(ctx.q, errors, negated))
    else:
        _require_transfer_cap(2, n, N, rho)
        # at q = 2 a row id is the row's bits, and the zero padding rows add nothing
        a_keys = np.fromiter((pack_key(ids, n) for r in range(n - rho, min(n, N) + 1)
                              for ids in base_subspace_ids(2, n, r)), dtype=np.uint32)
        failing = _first_failing_transfer(scheme, a_keys, t, N)
        if failing is None:
            return _exhaustive_report(scheme, "exhaustive", t, rho, N,
                                      len(a_keys) * n_errors, n_errors, None)
        i = failing[0]
        ids, hit = _unpack_key(int(a_keys[i]), n, N), _packed_hit(scheme, int(a_keys[i]), t, N)
    require(hit is not None, "no error fails at the decider's first failing row space")
    k, E, c, true_val, other = hit
    A = Matrix(ctx.base, [row_digits(b, ctx.q, n) for b in ids], n)
    S = [int(s) for s in np.unravel_index(c, (ctx.order,) * l)]
    return _exhaustive_report(scheme, "exhaustive", t, rho, N, i * n_errors + k + 1, n_errors,
                              _rowspace_counterexample(A, E.tolist(), S, true_val, other))


def _full_sweep_coherent(scheme: NestedScheme, t: int, rho: int, N: int) -> CapabilityReport:
    """Every transfer matrix literally, in ascending packed key (q = 2).  The
    decider finds the first failing A and its least failing combo c;
    _first_hit scores that A alone, for c's first failing error."""
    ctx, n, m, l = scheme.ctx, scheme.n, scheme.ctx.m, scheme.l
    _require_packable(ctx.q, "full sweep", [("m*N", m * N, 22), ("N*n", N * n, 22)])
    require_scan_cap(scheme.c1.codeword_count())
    a_keys = _transfer_keys(N, n, rho)
    require_error_cap(ctx, N, t)
    n_errors = error_count(ctx, N, t)
    hit = _first_failing_transfer(scheme, a_keys, t, N)
    if hit is None:
        return _exhaustive_report(scheme, "exhaustive-full", t, rho, N,
                                  len(a_keys) * n_errors, n_errors, None)
    i, c = hit
    # symbol j of combo c sits on bits j*m; messages() order puts symbol 0 first
    column = sum((c >> (j * m) & (ctx.order - 1)) * ctx.order ** (l - 1 - j) for j in range(l))
    first = _packed_hit(scheme, int(a_keys[i]), t, N, column)
    require(first is not None, "no error fails for the decider's least failing combo")
    return _exhaustive_report(scheme, "exhaustive-full", t, rho, N, (i + 1) * n_errors, n_errors,
                              {"A_key": int(a_keys[i]), "error_index": first[0],
                               "difference_combo": c})


def _draw(rng: random.Random, scheme, N: int, t: int, rho: int):
    """One seeded round's draws from rng, in order: a transfer matrix A of
    rank >= n - rho, a t-packet error (D, Z), a uniform message S and its
    coset member X (lifted for a LiftedScheme); returns (A, S, Y), Y the
    received word."""
    ctx, lifted = scheme.ctx, isinstance(scheme, LiftedScheme)
    A = sample_transfer(rng, ctx.q, N, scheme.n, rho)
    D, Z = sample_error_pair(rng, ctx, N, t)
    order = scheme.inner.ctx.order if lifted else ctx.order
    S = tuple(rng.randrange(order) for _ in range(scheme.l))
    X = scheme.lift_encode(S, rng) if lifted else scheme.encode(S, rng)
    return A, S, transmit(ctx, X, A, D, Z)


def trial_stream(rng: random.Random, scheme, N: int, t: int, rho: int,
                 count: int) -> Iterator[tuple[Matrix, tuple[int, ...], DecodeResult]]:
    """count seeded encode -> transmit -> decode rounds from rng, in order,
    as (A, S, DecodeResult): a LiftedScheme decoded noncoherently, a
    NestedScheme coherently with A known.  Rounds are drawn by _draw and
    decoded in blocks of max(1, PACKED_BLOCK // max(|C1| w, N n, 1)) words,
    w = 1 on packed keys and N m on digit arrays, so a block's scores (or
    image digits) and transfer entries stay within PACKED_BLOCK; a lifted
    block decodes as _as_coherent states.  The budget is refused before any
    draw, and exactly count rounds are drawn."""
    _require_budget(scheme.n, N, rho)
    lifted = isinstance(scheme, LiftedScheme)
    inner = scheme.inner if lifted else scheme
    w = 1 if _packs(inner.ctx, N, scheme.n) else N * inner.ctx.m
    size = max(1, PACKED_BLOCK // max(inner.c1.codeword_count() * w, N * scheme.n, 1))
    for lo in range(0, count, size):
        drawn = [_draw(rng, scheme, N, t, rho) for _ in range(min(size, count - lo))]
        views = [_as_coherent(scheme, Y, rho) if lifted else (A, Y, 0) for A, _, Y in drawn]
        results = _decode_block(inner, [A for A, _, _ in views], [y for _, y, _ in views])
        for (A, S, _), result, (_, _, shift) in zip(drawn, results, views):
            yield A, S, _shifted(result, shift)


def require_trial_cap(trials: int) -> None:
    """Refuse more than DEFAULT_SAMPLED_BUDGET seeded trials before the first."""
    if trials > DEFAULT_SAMPLED_BUDGET:
        raise EnumerationTooLarge(
            f"requested {trials} trials exceeds cap {DEFAULT_SAMPLED_BUDGET}")


def _sampled(scheme, t: int, rho: int, N: int, trials: int, seed) -> CapabilityReport:
    require_trial_cap(trials)
    counterexample = None
    stream = trial_stream(random.Random(seed), scheme, N, t, rho, trials)
    for i, (A, S, result) in enumerate(stream):
        if not (result.ok and result.message == S):
            counterexample = {"trial": i, "A": A.to_json(), "S": list(S),
                              "status": result.status}
            break
    return CapabilityReport(
        verified=counterexample is None, mode="sampled", t=t, rho=rho, n=scheme.n, N=N,
        trials=trials, covered_tuples=None, counterexample=counterexample)


# -- constructive failure witnesses -------------------------------------------------


def split_error_by_rank(base_field, M_rows: list[Sequence[int]], ncols: int,
                        part: int) -> tuple[Matrix, Matrix]:
    """Split a base-field matrix into two summands of rank (part, rank-part)."""
    M = Matrix(base_field, M_rows, ncols)
    red, rank, pivots = M.rref()
    if not 0 <= part <= rank:
        raise PreconditionError("part must lie within the rank")
    C = M.submatrix(cols=pivots)  # M = C * red[:rank]
    return (C.submatrix(cols=range(part)).matmul(red.submatrix(rows=range(part))),
            C.submatrix(cols=range(part, rank)).matmul(red.submatrix(rows=range(part, rank))))


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
    words = _difference_words(scheme)
    v = next(w for w in words if rank_weight(ctx, w) == m1)
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
    d_pair, w_best = _closest_difference(ctx, words, A)
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
