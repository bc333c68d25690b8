"""Host-speed reference for the end-to-end timings.

The shared host runs this process at speeds up to about 1.5x apart, and the
speed switches on a scale of seconds (thread CPU time equals wall time, so
it is not preemption).  Over a 30 s run the share of slow time moved whole-
run throughput by about a fifth between runs of identical inputs.

A fixed reference kernel, timed between systems every REF_EVERY_S of
measured work, tracks that speed.  Each system's wall time is scaled by
REF_NOMINAL_S over the median kernel time around it, and so is each cold
import of ``setup_s``; the end-to-end timings read as on a host that runs
the kernel in REF_NOMINAL_S.  The kernel is exact rational arithmetic: of
the candidates tried on recorded runs of all three workloads (rational
arithmetic, short numpy vector steps as in RK4, a plain integer loop, and
their mixes), it tracked every workload best, verify's RK4 included.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_EVERY_S = 0.05  # measured work between two kernel timings
REF_WINDOW = 9  # kernel timings whose median sets a system's scale
# A round figure near the kernel's median time on a 2 vCPU Xeon KVM guest
# (Python 3.11, numpy 2.4); it sets the units, not the spread.
REF_NOMINAL_S = 2.0e-4


def _kernel() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 25):
        acc += Fraction(k, k + 1) * Fraction(2 * k - 1, 3)
    return acc


def kernel_seconds() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class HostSpeed:
    """Kernel timings taken between systems, and the scale they give each."""

    def __init__(self):
        self.times: list[float] = []

    def _due(self, taken: int, busy: float) -> int:
        while taken * REF_EVERY_S <= busy:
            taken += 1
        return taken

    def between(self, busy: float) -> None:
        """Called untimed before each system, with the measured work so far."""
        for _ in range(self._due(len(self.times), busy) - len(self.times)):
            self.times.append(kernel_seconds())

    def scaled(self, measure) -> float:
        """The seconds `measure()` returns, scaled by kernel timings taken
        just before and after it."""
        before = [kernel_seconds() for _ in range(REF_WINDOW // 2 + 1)]
        seconds = measure()
        after = [kernel_seconds() for _ in range(REF_WINDOW // 2)]
        return seconds * REF_NOMINAL_S / statistics.median(before + after)

    def scale(self, latencies: list[float]) -> list[float]:
        """Each system's latency times REF_NOMINAL_S over the median of the
        REF_WINDOW kernel timings nearest to it; `latencies` are the systems
        `between` was called for, in order."""
        n = len(self.times)
        half = REF_WINDOW // 2
        out = []
        busy = 0.0
        taken = 0
        for dt in latencies:
            taken = self._due(taken, busy)
            lo = min(max(0, taken - half), max(0, n - REF_WINDOW))
            out.append(dt * REF_NOMINAL_S / statistics.median(self.times[lo:lo + REF_WINDOW]))
            busy += dt
        return out
