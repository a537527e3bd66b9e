"""One test per acceptance criterion; each prints a pass/fail line per check.

Run with `pytest tests/test_acceptance.py -s` to see the lines, or use
`rankguard acceptance all` for the same checks outside pytest.
"""

from rankguard.acceptance import (
    suite_bridge,
    suite_capability,
    suite_duality,
    suite_equivocation,
    suite_mrd,
    suite_noncoherent,
    suite_packet_length,
    suite_profiles,
    suite_security_nonuniform,
    suite_security_uniform,
    suite_strength,
)


def _run(suite, total_budget=None, per_item_budget=None):
    results = suite()
    for r in results:
        print(r.line())
    assert results, "suite produced no checks"
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)
    if per_item_budget is not None:
        slow = [r for r in results if r.seconds > per_item_budget]
        assert not slow, f"over per-check budget {per_item_budget}s: {slow}"
    if total_budget is not None:
        total = sum(r.seconds for r in results)
        assert total < total_budget, f"suite took {total:.1f}s, budget {total_budget}s"
    return results


def test_criterion_01_mrd_construction():
    _run(suite_mrd, per_item_budget=5.0)


def test_criterion_02_profile_closed_forms():
    _run(suite_profiles, total_budget=30.0)


def test_criterion_03_first_weight_bridge():
    _run(suite_bridge, total_budget=60.0)


def test_criterion_04_duality_identity():
    _run(suite_duality)


def test_criterion_05_leakage_equality():
    _run(suite_security_uniform, total_budget=60.0)


def test_criterion_06_equivocation_closed_form():
    _run(suite_equivocation)


def test_criterion_07_maximum_strength():
    _run(suite_strength)


def test_criterion_08_nonuniform_sandwich():
    _run(suite_security_nonuniform)


def test_criterion_09_error_correction_iff():
    _run(suite_capability, total_budget=600.0)


def test_criterion_10_noncoherent():
    _run(suite_noncoherent)


def test_criterion_11_packet_length_necessity():
    search = _run(suite_packet_length)[1]
    # the counts of the exhaustive search at m = 3, recorded before the
    # profile families were cached
    assert search.detail == (
        "4032 systematic parents at m=3: equivocation-form violations 2268, "
        "correction-iff violations 2520, strength violations 2268; violations found")
