"""Self-tests of the benchmark, at the tiny size.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _digest_line(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("digest "))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_and_repeats_its_digest(workload):
    digests = set()
    for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        lines, result = _bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {s["name"]: s["unit"] for s in specs}
        assert any(line.startswith("fail_ratio = 0/") and line.endswith("= 0.0") for line in lines)
        digests.add(_digest_line(lines))
    # the trace-1 run also compares its traced pass with its untraced one
    assert len(digests) == 1


def test_corrupted_expected_value_and_raising_job_count_as_failures():
    jobs = workloads.build("profile", 3, 0, "tiny")
    assert run.run_pass(jobs).failures == []

    corrupted = next(j for j in jobs if j.label.startswith("gabidulin"))
    profile, weights = corrupted.expected
    corrupted.expected = (profile, tuple(w + 1 for w in weights))
    raising = next(j for j in jobs if j is not corrupted)
    raising.call = lambda: 1 // 0
    failures = run.run_pass(jobs).failures
    assert len(failures) == 2
    assert any(f.startswith(corrupted.label) and "closed form" in f for f in failures)
    assert any(f.startswith(raising.label) and "ZeroDivisionError" in f for f in failures)


def _bindings() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("rankguard"):
            continue
        for attr, obj in vars(module).items():
            out[(name, attr)] = id(obj)
            if isinstance(obj, type) and obj.__module__.startswith("rankguard"):
                for cattr, raw in vars(obj).items():
                    out[(name, attr, cattr)] = id(raw)
    return out


def test_tracer_removes_its_wrappers_and_leaves_answers_unchanged():
    before = _bindings()
    plain = run.run_pass(workloads.build("leakage", 3, 0, "tiny"))
    tracer = Tracer()
    traced = run.run_pass(workloads.build("leakage", 3, 0, "tiny"), tracer)
    assert _bindings() == before
    assert traced.failures == [] and traced.digest == plain.digest

    metrics = tracer.layer_metrics()
    assert metrics["gf.add_calls"][0] > 0 and metrics["decoder.trials"][0] > 0
    assert all(metrics[f"{layer}.self_s"][0] >= 0 for layer in LAYERS)
    names = {name for _, _, name, _, _ in tracer.spans}
    assert {"decoder.capability_report", "rank_metrics.rdip",
            "security.universal_equivocation"} <= names


def test_speed_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period_s=0.001) as probe:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) > 1 and probe.scale() > 0
