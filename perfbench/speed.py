"""Machine-speed probe: turns measured seconds into reference seconds.

On a shared machine the CPU runs the same pure-Python code 30 to 80 %
slower in some stretches than in others, and the stretches last from
under a second to minutes, so two runs of the same code minutes apart can
differ by more than any useful regression bound.  ``SpeedProbe`` runs a
fixed pure-Python snippet from a SIGALRM timer every ``period_s`` seconds
while the measured code runs.  The snippet thus samples the machine's
speed at the moments the measured code ran, and the time it takes is
subtracted from the measurement (see ``ns``).

``scale()`` is ``NOMINAL_S`` over the snippet's median time, raised to
``SENSITIVITY``, so seconds times ``scale()`` read as seconds on a machine
where the snippet takes ``NOMINAL_S``.  On the 2-vCPU Xeon the benchmark
was tuned on, the snippet's median took 260 to 370 us while a pass's jobs
ran, so reference seconds there are close to measured seconds.  A change
to rankguard moves the measurement but not the snippet; a slow stretch of
the machine moves both.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

NOMINAL_S = 350e-6
PERIOD_S = 0.01
# rankguard slows less than the snippet in a slow stretch: over 30 runs
# (about 300 passes), the log of pass time against the log of the snippet's
# median time has slope 0.64 to 0.76 per workload (correlation 0.87 to
# 0.94), and import-bound set-up 0.45 to 0.75.  The full ratio over-corrects.
SENSITIVITY = 0.7

_TABLE = [(i * 37 + 11) % 251 for i in range(256)]
_MOD = (1 << 521) - 1


class _Digits:
    """Base-3 digit vectors with method-call-heavy addition."""

    def __init__(self, q: int, m: int):
        self.q, self.m = q, m

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(a % self.q)
            a //= self.q
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed([c % self.q for c in coeffs]):
            a = a * self.q + c
        return a

    def add(self, a: int, b: int) -> int:
        return self.from_coeffs([x + y for x, y in zip(self.coeffs(a), self.coeffs(b))])


_DIGITS = _Digits(3, 4)


def snippet() -> int:
    """Fixed work: list and dict lookups, tuples, small and big integers,
    and method calls."""
    acc, seen = 0, {}
    for i in range(200):
        a = _TABLE[(acc ^ i) & 255]
        key = (a, i & 15)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc * 3 + a) & 0xFFFF
    row = [x ^ acc for x in _TABLE[:64]]
    x = 0x9E3779B97F4A7C15 + acc
    for i in range(40):
        x = (x * x + i) % _MOD
    rows = [[(i * j) % 81 for j in range(6)] for i in range(4)]
    d = 1
    for k in range(6):
        r = rows[k % 4]
        rows[k % 4] = [_DIGITS.add(a, d) for a in r]
        d = _DIGITS.add(d, r[k % 6])
    return acc + len(seen) + sum(row) + math.gcd(x, _MOD - 2) + d


class SpeedProbe:
    """Context manager; with ``sampling`` off it only samples on exit."""

    def __init__(self, period_s: float = PERIOD_S, sampling: bool = True):
        self.period_s = period_s
        self.sampling = sampling
        self.ns = 0  # time spent in the snippet so far
        self.samples: list[int] = []  # ns per snippet run
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter_ns()
        snippet()
        dt = time.perf_counter_ns() - t0
        self.ns += dt
        self.samples.append(dt)

    def __enter__(self) -> "SpeedProbe":
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # a run shorter than one period still gets a sample

    def scale(self) -> float:
        # the median, so that a sample the OS preempted does not count
        return (NOMINAL_S / (statistics.median(self.samples) / 1e9)) ** SENSITIVITY
