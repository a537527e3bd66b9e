#!/usr/bin/env python3
"""Benchmark of rankguard's exact reductions on seeded workloads.

Run from the root of a checkout (nothing to build; rankguard is imported
from ``src/``):

    python3 perfbench/run.py --workload profile --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes, with the
set-up time measured in fresh processes.  ``--trace 1`` repeats the
untraced passes, then runs pass 0 again in a fresh process under the
tracer and reports the per-layer metrics and the tracing overhead.

A pass is one workload's list of jobs.  Passes repeat, with fresh inputs
from (seed, pass index), while another pass still fits in ``--seconds``;
at least one pass always runs.  Untraced passes and set-up run under
``speed.SpeedProbe``, and their times are reported in its reference
seconds, so that the machine's own slow and fast stretches cancel out;
``wall_s`` is the median over passes.  Every answer is checked against
the paper's closed forms after the timed call.  The last line of stdout
is one JSON object; the exit code is 0 only if every answer was right.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_PERIOD_S = 0.002
CHILD_TIMEOUT_S = 170


@dataclass
class PassResult:
    wall_s: float  # measured seconds, probe samples excluded
    scale: float  # SpeedProbe.scale() over the pass
    op_ms: list[float]
    attempted: int
    failures: list[str]
    digest: str
    families: list[tuple[int, int]] = field(default_factory=list)


def run_pass(jobs, tracer=None) -> PassResult:
    """Time every job's call, then check every answer outside the timing.

    With a tracer, its wrappers are installed only around the calls, and
    the speed probe samples only after them, so no self time includes it."""
    from workloads import answer_digest

    answers, op_s, errors = [], [], {}
    probe = SpeedProbe(sampling=tracer is None)
    with probe, tracer or contextlib.nullcontext():
        for i, job in enumerate(jobs):
            probed = probe.ns
            t0 = time.perf_counter()
            try:
                answers.append(job.call())
            except Exception as exc:  # a raising job is a failed job; the run goes on
                answers.append(None)
                errors[i] = f"{type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - t0 - (probe.ns - probed) / 1e9)

    failures, labelled = [], []
    for i, (job, answer) in enumerate(zip(jobs, answers)):
        if i in errors:
            failures.append(f"{job.label}: raised {errors[i]}")
            labelled.append((job.label, "raised"))
            continue
        try:
            ok = bool(job.check(answer, job.expected))
            exact = job.exact(answer)
        except Exception as exc:  # a malformed answer is a wrong answer
            ok, exact = False, f"unreadable: {type(exc).__name__}"
        if not ok:
            failures.append(f"{job.label}: answer differs from the closed form")
        labelled.append((job.label, exact))
    scale = probe.scale()
    return PassResult(sum(op_s), scale, [s * scale * 1e3 for s in op_s], len(jobs), failures,
                      answer_digest(labelled), [j.family for j in jobs if j.family])


def run_passes(workload, seed, size, seconds, first_jobs) -> list[PassResult]:
    from workloads import build

    started = time.perf_counter()
    results, jobs, index = [], first_jobs, 0
    while True:
        pass_started = time.perf_counter()
        results.append(run_pass(jobs))
        now = time.perf_counter()
        if (now - started) + (now - pass_started) > seconds:
            return results
        index += 1
        jobs = build(workload, seed, index, size)


def measure_setup(args) -> float:
    """Median reference seconds, in fresh processes, to import rankguard and
    build pass 0."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = _child(args, "setup")
        samples.append(float(out["setup_s"]))
    return statistics.median(samples)


def _child(args, role) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--role", role]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "RANKGUARD_THREADS": "unset (1 thread)"}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_child(args) -> dict:
    """Pass 0 under the tracer; per-layer metrics, wall time and digest.

    ``gf.tables_built`` also counts the field contexts built with the inputs."""
    from tracing import COUNTS, Tracer
    from workloads import build

    with Tracer() as setup:  # field contexts are built with the inputs
        jobs = build(args.workload, args.seed, 0, args.size)
    tracer = Tracer()
    result = run_pass(jobs, tracer)
    metrics = tracer.layer_metrics()
    built = setup.count(COUNTS["gf.tables_built"]) + metrics["gf.tables_built"][0]
    metrics["gf.tables_built"] = (built, "count")
    return {"wall_s": result.wall_s, "digest": result.digest, "attempted": result.attempted,
            "failures": result.failures, "metrics": {k: list(v) for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", help="'tiny' is for the self-tests")
    parser.add_argument("--role", default="main", choices=("main", "setup", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if "RANKGUARD_THREADS" in os.environ:
        print("perfbench: unset RANKGUARD_THREADS; the benchmark runs one thread",
              file=sys.stderr)
        return 2
    if not (SRC / "rankguard" / "__init__.py").is_file():
        print(f"perfbench: no rankguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.role == "setup":
        with SpeedProbe(SETUP_PERIOD_S) as probe:
            t0 = time.perf_counter()
            from workloads import build
            build(args.workload, args.seed, 0, args.size)
            setup_s = time.perf_counter() - t0 - probe.ns / 1e9
        print(json.dumps({"setup_s": setup_s * probe.scale()}))
        return 0
    if args.role == "traced":
        print(json.dumps(traced_child(args)))
        return 0

    from workloads import build
    try:
        first_jobs = build(args.workload, args.seed, 0, args.size)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = measure_setup(args) if args.trace == 0 else None
    passes = run_passes(args.workload, args.seed, args.size, args.seconds, first_jobs)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    digest = passes[0].digest
    op_ms = [t for p in passes for t in p.op_ms]

    print("meta " + json.dumps(metadata(args)))
    seen, repeats = set(), 0
    for fam in (f for p in passes for f in p.families):
        repeats += fam in seen
        seen.add(fam)
    if seen:
        jobs_with_family = sum(len(p.families) for p in passes)
        print(f"shared-family share = {repeats}/{jobs_with_family} = "
              f"{repeats / jobs_with_family:.4f} (jobs whose (q, n) was already seen)")
    if len(op_ms) >= 100:  # p90 needs ten samples beyond it
        p50, p90 = statistics.median(op_ms), statistics.quantiles(op_ms, n=10)[8]
        print(f"op_p50_ms = {p50} ms ({len(op_ms)} samples)")
        print(f"op_p90_ms = {p90} ms ({len(op_ms)} samples)")

    print(f"measured pass seconds = {[round(p.wall_s, 3) for p in passes]}; "
          f"probe scale = {[round(p.scale, 3) for p in passes]}")
    if args.trace == 0:
        metrics = {
            "wall_s": (statistics.median(p.wall_s * p.scale for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
        notes = {"wall_s": f"reference seconds, median of {len(passes)} passes of "
                           f"{len(passes[0].op_ms)} jobs",
                 "setup_s": f"reference seconds, median of {SETUP_REPEATS} fresh processes"}
    else:
        traced = _child(args, "traced")
        attempted += traced["attempted"]
        failures += traced["failures"]
        if traced["digest"] != digest:
            failures.append(f"traced digest {traced['digest']} != untraced {digest}")
        metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - passes[0].wall_s, "s")
        notes = {"trace.overhead_s": "traced pass 0 minus untraced pass 0, measured seconds"}

    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {value} {unit}{note}")
    print(f"fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted}")
    print(f"digest {args.workload} seed={args.seed} = {digest}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
