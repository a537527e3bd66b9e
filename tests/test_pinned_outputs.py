"""Byte-level pins of seeded outputs.

The values were recorded from the implementation before its trial loops,
matrix enumerators and decoder argmin were merged, and the exhaustive
capability reports before the sweeps became batched numpy kernels; any
change to an rng draw order, an enumeration order or a tie-break shows up
here.
"""

import hashlib
import json
import random

import pytest

from rankguard import ctx_new
from rankguard.cli import main
from rankguard.codes import LinearCode
from rankguard.coset_scheme import NestedScheme, build_proposed, lift
from rankguard.decoder import _error_keys, _unpack_key, capability_report
from rankguard.linalg import Matrix
from rankguard.network import enumerate_errors, enumerate_wiretap
from rankguard.rank_metrics import rdip, rdlp, rghw, rgrw

F16 = ctx_new(2, 4)


def _two_symbol_scheme():
    """C2 = <[1,2,4]> over F_16 with message rows [1,0,0] and [0,1,1]: its
    least failing difference combo is not 1."""
    c2 = Matrix(F16, [[1, 2, 4]], 3)
    delta = Matrix(F16, [[1, 0, 0], [0, 1, 1]], 3)
    return NestedScheme(LinearCode(F16, c2.stack(delta)), LinearCode(F16, c2), delta)


SCHEMES = {
    # C2 = {0}: first weight 4
    "f32": lambda: build_proposed(ctx_new(2, 5), l=1, n=4, k=1),
    # one-dimensional C2: first weight 2, and the min over C2 members matters
    "flagship": lambda: build_proposed(F16, l=1, n=3, k=2),
    # one-dimensional C2 over F_32 at n = 4
    "f32 k=2": lambda: build_proposed(ctx_new(2, 5), l=1, n=4, k=2),
    "two-symbol": _two_symbol_scheme,
}

SIMULATE_BASE = {"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
                 "mu": 0, "t": 1, "rho_max": 1, "trials": 40, "seed": 11}


@pytest.mark.parametrize("extra, digest", [
    ({}, "bb68f4f21574c65d745b09bf97d08ec81261d9f6894354f2f8c3311c74aea296"),
    ({"m": 7, "mode": "noncoherent"},
     "34387dc24ab7cc20d9df06dc1f3e6fd5d66061cbda32420cadf33d0fd41086d7"),
    # q = 3: the [2,1] scheme over F_27 at N = n + 1, and lifted into F_3^5
    ({"q": 3, "m": 3, "n": 2, "k": 1},
     "141180ff0b7c93ef3eb928802213b88388b63d33e36f7f1beb239af1fa7c7665"),
    ({"q": 3, "m": 5, "n": 2, "k": 1, "N": 2, "mode": "noncoherent"},
     "f206bc10f0489e04a0609205d3687c954e41fddba0710ef253d46b38865deeed"),
])
def test_simulate_csv_digest(tmp_path, extra, digest):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({**SIMULATE_BASE, **extra}))
    out = tmp_path / "trials.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _sampled(t, rho, counterexample, n=3, N=3):
    return {"verified": counterexample is None, "mode": "sampled", "t": t, "rho": rho,
            "n": n, "N": N, "trials": 30, "covered_tuples": None,
            "counterexample": counterexample, "complete": True}


REFUTED_AT_TRIAL_5 = {"trial": 5, "S": [1], "status": "ambiguous",
                      "A": {"rows": 3, "cols": 3,
                            "entries": [[1, 0, 1], [1, 0, 1], [0, 0, 0]]}}


@pytest.mark.parametrize("lifted", [False, True], ids=["coherent", "lifted"])
@pytest.mark.parametrize("t, rho, seed, counterexample", [
    (0, 1, 5, None),
    (0, 2, 0, REFUTED_AT_TRIAL_5),
], ids=["verified", "refuted"])
def test_sampled_capability_report(lifted, t, rho, seed, counterexample):
    scheme = build_proposed(F16, l=1, n=3, k=2)
    if lifted:
        scheme = lift(scheme, ctx_new(2, 7))
    report = capability_report(scheme, t, rho, mode="sampled", trials=30, seed=seed)
    assert report.to_json() == _sampled(t, rho, counterexample)


def _two_symbol_refutation(trial, entries, S, status):
    return {"trial": trial, "S": S, "status": status,
            "A": {"rows": 3, "cols": 2, "entries": entries}}


# two message symbols over F_16 with C2 = {0} at N = n + 1: the order of the
# decoded symbols and the extra transfer row both reach these reports
@pytest.mark.parametrize("lifted", [False, True], ids=["coherent", "lifted"])
@pytest.mark.parametrize("t, rho, seed", [(0, 0, 0), (0, 1, 1), (1, 0, 0)],
                         ids=["verified", "refuted-rho", "refuted-t"])
def test_sampled_two_symbol_report(lifted, t, rho, seed):
    scheme = build_proposed(F16, l=2, n=2, k=2)
    if lifted:
        scheme = lift(scheme, ctx_new(2, 6))
    counterexample = {
        (0, 0): None,
        (0, 1): _two_symbol_refutation(9, [[0, 0], [0, 0], [1, 1]], [11, 14], "ambiguous"),
        # a wrong message coherently; the lifted decode ties
        (1, 0): _two_symbol_refutation(0, [[1, 1], [0, 1], [1, 1]], [4, 9],
                                       "ambiguous" if lifted else "decoded"),
    }[t, rho]
    report = capability_report(scheme, t, rho, mode="sampled", N=3, trials=30, seed=seed)
    assert report.to_json() == _sampled(t, rho, counterexample, n=2, N=3)


def _refutation(trial, entries, S, status):
    return {"trial": trial, "S": S, "status": status,
            "A": {"rows": len(entries), "cols": len(entries[0]), "entries": entries}}


# decodes past the packed q = 2 path: q = 3 with C2 = {0} at N = n + 1 and
# with C2 != {0} at N = n, and F_2^8 at m N = 24 > 22 bits
@pytest.mark.parametrize("name, lifted, t, rho, seed, counterexample", [
    ("q3 [2,1]", False, 0, 1, 5, None),
    ("q3 [2,1]", True, 0, 1, 5, None),
    ("q3 [2,1]", False, 1, 0, 2, _refutation(6, [[2, 1], [2, 1], [1, 1]], [14], "ambiguous")),
    ("q3 [2,1]", True, 1, 0, 2, _refutation(13, [[0, 0], [2, 2], [1, 0]], [18], "ambiguous")),
    ("q3 [2,2]", False, 1, 0, 0, _refutation(0, [[1, 1], [0, 1]], [25], "decoded")),
    ("q3 [2,2]", True, 1, 0, 0, _refutation(0, [[1, 1], [0, 1]], [25], "ambiguous")),
    ("F256 [3,1]", False, 1, 0, 5, None),
    ("F256 [3,1]", False, 1, 1, 0, _refutation(4, [[0, 1, 1], [0, 1, 0], [0, 0, 0]], [66],
                                               "ambiguous")),
])
def test_sampled_report_past_packed_decode(name, lifted, t, rho, seed, counterexample):
    build, N, outer = {
        "q3 [2,1]": (lambda: build_proposed(ctx_new(3, 3), l=1, n=2, k=1), 3, ctx_new(3, 5)),
        "q3 [2,2]": (lambda: build_proposed(ctx_new(3, 3), l=1, n=2, k=2), 2, ctx_new(3, 5)),
        "F256 [3,1]": (lambda: build_proposed(ctx_new(2, 8), l=1, n=3, k=1), 3, None),
    }[name]
    scheme = lift(build(), outer) if lifted else build()
    report = capability_report(scheme, t, rho, mode="sampled", N=N, trials=30, seed=seed)
    assert report.to_json() == _sampled(t, rho, counterexample, n=scheme.n, N=N)


def test_full_wiretap_order():
    # base-q digits of a running stamp fill the entries row-major, least
    # significant first: entry (0, 0) varies fastest
    mats = [B.rows for B in enumerate_wiretap(2, 3, 2, mode="full")]
    assert len(mats) == 64
    assert mats[:6] == [
        ((0, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 0, 0)),
        ((0, 1, 0), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 0)),
        ((1, 0, 1), (0, 0, 0)),
    ]
    assert mats[8] == ((0, 0, 0), (1, 0, 0))
    assert mats[-1] == ((1, 1, 1), (1, 1, 1))


@pytest.mark.parametrize("q, m, N, t, count, digest", [
    (3, 2, 3, 2, 729, "a6700660eb8f738f129bfab3f196f36ee8418cddd9670b7d3b2b7afa4d3d0345"),
    (2, 4, 4, 3, 45376, "ed4191c9f17d9bfdad995f6c99a4bc1b7cf9e9199e383ee2fc3138285bb8c8f0"),
])
def test_error_stream_digest(q, m, N, t, count, digest):
    # the capability sweeps report counterexamples by index into this stream
    errors = list(enumerate_errors(ctx_new(q, m), N, t))
    assert len(errors) == count
    assert hashlib.sha256(json.dumps(errors).encode()).hexdigest() == digest
    if q == 2:
        # the packed sweeps' error keys, unpacked, are the same stream
        keys = [_unpack_key(int(key), m, N) for key in _error_keys(ctx_new(q, m), N, t)]
        assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == digest


def _rowspace_witness(a_entries, e_coeffs, message, true_val, other_val):
    n = len(a_entries[0])
    return {"A": {"rows": len(a_entries), "cols": n, "entries": a_entries},
            "E": e_coeffs, "difference_message": message,
            "true_discrepancy": true_val, "other_discrepancy": other_val}


def _sweep_witness(a_key, error_index, difference_combo):
    return {"A_key": a_key, "error_index": error_index, "difference_combo": difference_combo}


@pytest.mark.parametrize("name, mode, t, rho, trials, covered, counterexample", [
    ("f32", "exhaustive", 0, 0, 1, 645120, None),
    ("f32", "exhaustive", 1, 0, 466, 300625920, None),
    ("f32", "exhaustive", 1, 1, 7456, 864299520, None),
    ("f32", "exhaustive", 1, 2, 2, 973902720, _rowspace_witness(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], [14], 1, 1)),
    ("f32", "exhaustive", 2, 0, 467, 21299281920, _rowspace_witness(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], [18], 2, 2)),
    ("f32", "exhaustive-full", 0, 0, 20160, 645120, None),
    ("f32", "exhaustive-full", 1, 0, 9394560, 300625920, None),
    ("f32", "exhaustive-full", 1, 1, 27009360, 864299520, None),
    ("f32", "exhaustive-full", 1, 2, 466, 973902720, _sweep_witness(18, 4, 1)),
    ("f32", "exhaustive-full", 2, 0, 33016, 21299281920, _sweep_witness(4680, 923, 1)),
    ("flagship", "exhaustive", 0, 0, 1, 43008, None),
    ("flagship", "exhaustive", 1, 0, 2, 4558848, _rowspace_witness(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [2], 1, 1)),
    ("flagship", "exhaustive", 1, 1, 2, 12536832, _rowspace_witness(
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [1], 1, 1)),
    ("flagship", "exhaustive", 1, 2, 1, 13866496, _rowspace_witness(
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [1], 0, 0)),
    ("flagship", "exhaustive", 2, 0, 2, 67780608, _rowspace_witness(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [2], 1, 1)),
    ("flagship", "exhaustive-full", 0, 0, 168, 43008, None),
    ("flagship", "exhaustive-full", 1, 0, 106, 4558848, _sweep_witness(84, 2, 1)),
    ("flagship", "exhaustive-full", 1, 1, 106, 12536832, _sweep_witness(10, 1, 1)),
    ("flagship", "exhaustive-full", 1, 2, 106, 13866496, _sweep_witness(1, 0, 1)),
    ("flagship", "exhaustive-full", 2, 0, 1576, 67780608, _sweep_witness(84, 2, 1)),
    ("f32 k=2", "exhaustive", 1, 1, 2, 27657584640, _rowspace_witness(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], [3], 1, 1)),
    ("f32 k=2", "exhaustive", 1, 2, 2, 31164887040, _rowspace_witness(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], [1], 1, 1)),
    ("f32 k=2", "exhaustive", 0, 3, 1, 67107840, _rowspace_witness(
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], [1], 0, 0)),
    ("f32 k=2", "exhaustive", 2, 0, 467, 681577021440, _rowspace_witness(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], [1], 2, 2)),
    ("f32 k=2", "exhaustive-full", 1, 1, 466, 27657584640, _sweep_witness(292, 3, 1)),
    ("f32 k=2", "exhaustive-full", 1, 2, 466, 31164887040, _sweep_witness(18, 1, 1)),
    ("f32 k=2", "exhaustive-full", 0, 3, 1, 67107840, _sweep_witness(1, 0, 1)),
    # the failing error lies past the first 256 of the 33,016
    ("f32 k=2", "exhaustive-full", 2, 0, 33016, 681577021440, _sweep_witness(4680, 466, 1)),
    ("two-symbol", "exhaustive", 0, 1, 1, 1892352, _rowspace_witness(
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [1, 2], 0, 0)),
    ("two-symbol", "exhaustive-full", 0, 1, 1, 1892352, _sweep_witness(10, 0, 25)),
])
def test_exhaustive_capability_report(name, mode, t, rho, trials, covered, counterexample):
    scheme = SCHEMES[name]()
    report = capability_report(scheme, t, rho, mode=mode)
    assert report.to_json() == {
        "verified": counterexample is None, "mode": mode, "t": t, "rho": rho,
        "n": scheme.n, "N": scheme.n, "trials": trials, "covered_tuples": covered,
        "counterexample": counterexample, "complete": True}
    # the report is what the CLI serializes
    assert json.loads(json.dumps(report.to_json())) == report.to_json()


def _seeded_pair(q, m, n, k1, k2, entries):
    """A nested pair C1 > C2 from a seeded rng: C1's generator entries come
    from the base field ("base") or the whole extension ("ext"), and C2 is
    spanned by k2 random codewords of C1."""
    ctx = ctx_new(q, m)
    rng = random.Random(f"pin:{q}:{m}:{n}:{k1}:{k2}:{entries}")
    top = q if entries == "base" else ctx.order
    while True:
        c1 = LinearCode(ctx, [[rng.randrange(top) for _ in range(n)] for _ in range(k1)], n)
        if c1.k != k1:
            continue
        rows = [c1.encode(tuple(rng.randrange(top) for _ in range(k1))) for _ in range(k2)]
        c2 = LinearCode(ctx, rows, n)
        if c2.k == k2:
            return c1, c2


# recorded from the Matrix-based gap kernel, before the families were cached
# as row ids
@pytest.mark.parametrize("q, m, n, k1, k2, entries, profile, weights, hamming_profile, "
                         "hamming_weights", [
    (2, 4, 4, 1, 0, "base", (0, 1, 1, 1, 1), (1,), (0, 0, 0, 1, 1), (3,)),
    (2, 4, 4, 2, 1, "ext", (0, 0, 1, 1, 1), (2,), (0, 0, 1, 1, 1), (2,)),
    (2, 4, 4, 3, 1, "base", (0, 1, 2, 2, 2), (1, 2), (0, 1, 1, 2, 2), (1, 3)),
    (2, 4, 4, 3, 2, "ext", (0, 1, 1, 1, 1), (1,), (0, 0, 1, 1, 1), (2,)),
    (2, 6, 6, 2, 0, "base", (0, 1, 2, 2, 2, 2, 2), (1, 2), (0, 0, 1, 2, 2, 2, 2), (2, 3)),
    (2, 6, 6, 3, 1, "ext", (0, 0, 0, 1, 1, 2, 2), (3, 5), (0, 0, 0, 0, 1, 2, 2), (4, 5)),
    (2, 6, 6, 4, 2, "base", (0, 1, 2, 2, 2, 2, 2), (1, 2), (0, 0, 1, 2, 2, 2, 2), (2, 3)),
    (3, 2, 3, 1, 0, "base", (0, 1, 1, 1), (1,), (0, 0, 1, 1), (2,)),
    (3, 2, 3, 2, 1, "ext", (0, 1, 1, 1), (1,), (0, 0, 1, 1), (2,)),
    (3, 2, 3, 2, 0, "base", (0, 1, 2, 2), (1, 2), (0, 1, 1, 2), (1, 3)),
    (5, 2, 3, 1, 0, "ext", (0, 0, 1, 1), (2,), (0, 0, 0, 1), (3,)),
    (5, 2, 3, 2, 1, "base", (0, 1, 1, 1), (1,), (0, 1, 1, 1), (1,)),
    (5, 2, 3, 2, 0, "ext", (0, 1, 1, 2), (1, 3), (0, 0, 1, 2), (2, 3)),
])
def test_profile_tables(q, m, n, k1, k2, entries, profile, weights, hamming_profile,
                        hamming_weights):
    c1, c2 = _seeded_pair(q, m, n, k1, k2, entries)
    assert rdip(c1, c2).values == profile
    assert rgrw(c1, c2).values == weights
    assert rdlp(c1, c2).values == hamming_profile
    assert rghw(c1, c2).values == hamming_weights


# build-scheme arguments and n for one q = 2 and one q = 3 scheme
EQUIVOCATION_SCHEMES = {
    "q2": (["--m", "4", "--l", "1", "--n", "3", "--k", "2"], 3),
    "q3": (["--q", "3", "--m", "3", "--l", "1", "--n", "2", "--k", "2"], 2),
}


# the stdout of `equivocation` at every mu from 0 to n, byte for byte: the
# reported floats must not drift by an ulp when the exact arithmetic changes
@pytest.mark.parametrize("name, dist, digest", [
    ("q2", ["--dist", "uniform"],
     "ec9a62255e1c9cb992034dacf5155c17671690c102eae8b3aee7250552393a9d"),
    ("q2", ["--dist", "seeded", "--seed", "3"],
     "e6a51d0339bec2e14b67784a44f302d35466f75aa67360108bfc54d8db07bb5e"),
    ("q3", ["--dist", "uniform"],
     "4b05d366c7e074048aeb83859f668d271137946291b3042bf9e9a93316f02f76"),
    ("q3", ["--dist", "seeded", "--seed", "3"],
     "401ef427150e6b9773a895ea80dd5c4a47827db9b055513c4d73926ca6c31c7e"),
], ids=["q2-uniform", "q2-seeded", "q3-uniform", "q3-seeded"])
def test_equivocation_stdout(tmp_path, capsys, name, dist, digest):
    build, n = EQUIVOCATION_SCHEMES[name]
    path = tmp_path / "scheme.json"
    assert main(["build-scheme", *build, "--out", str(path)]) == 0
    stdout = []
    for mu in range(n + 1):
        assert main(["equivocation", "--scheme", str(path), "--mu", str(mu), *dist]) == 0
        stdout.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(stdout).encode()).hexdigest() == digest
