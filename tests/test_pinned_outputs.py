"""Byte-level pins of seeded outputs.

The values were recorded from the implementation before its trial loops,
matrix enumerators and decoder argmin were merged; any change to an rng
draw order, an enumeration order or a tie-break shows up here.
"""

import hashlib
import json

import pytest

from rankguard import ctx_new
from rankguard.cli import main
from rankguard.coset_scheme import build_proposed, lift
from rankguard.decoder import capability_report
from rankguard.network import enumerate_wiretap

F16 = ctx_new(2, 4)

SIMULATE_BASE = {"version": 1, "q": 2, "m": 4, "l": 1, "n": 3, "k": 2, "N": 3,
                 "mu": 0, "t": 1, "rho_max": 1, "trials": 40, "seed": 11}


@pytest.mark.parametrize("extra, digest", [
    ({}, "bb68f4f21574c65d745b09bf97d08ec81261d9f6894354f2f8c3311c74aea296"),
    ({"m": 7, "mode": "noncoherent"},
     "34387dc24ab7cc20d9df06dc1f3e6fd5d66061cbda32420cadf33d0fd41086d7"),
])
def test_simulate_csv_digest(tmp_path, extra, digest):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({**SIMULATE_BASE, **extra}))
    out = tmp_path / "trials.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _sampled(t, rho, counterexample):
    return {"verified": counterexample is None, "mode": "sampled", "t": t, "rho": rho,
            "n": 3, "N": 3, "trials": 30, "covered_tuples": None,
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
