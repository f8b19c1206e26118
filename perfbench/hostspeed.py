"""A gauge of the host's speed, sampled between jobs.

The benchmark shares its machine: on the 2-vCPU Intel Xeon VM it was
tuned on, the same job stream ran 30% faster in some minutes than in
others, with no change to the program.  Each sample times a fixed piece
of pure-Python work (exact fractions, tuples, a dict) that shares no
code with singindex; a job's wall time is then scaled by
``NOMINAL_S / probe time`` around it, which puts every run on the scale
of that machine at its typical speed.  A change to the program cannot
move the probe, so it still moves the scaled times in full.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

# median probe time on the reference VM
NOMINAL_S = 0.0025
# wall time between samples; a job longer than this gets one after it
SPACING_S = 0.05
# a single probe jitters; the host's speed holds for seconds at a time
WINDOW_S = 0.5


def probe():
    """Seconds taken by a fixed piece of work, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 800):
            acc += Fraction(i % 7 - 3, i % 11 + 1)
            table[(i % 97, i % 13)] = acc
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    def __init__(self):
        self.times = []
        self.durations = []
        self.sample()

    def sample(self):
        self.times.append(perf_counter())
        self.durations.append(probe())

    def maybe_sample(self):
        """Sample if SPACING_S has passed since the last sample; True if it did."""
        if perf_counter() - self.times[-1] >= SPACING_S:
            self.sample()
            return True
        return False

    def scale(self, t):
        """Factor to nominal speed at time t, from the median sample within
        WINDOW_S of t (or the two samples around t, if none is)."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < 2:
            k = bisect.bisect_left(self.times, t)
            lo, hi = max(0, k - 1), k + 1
        return NOMINAL_S / statistics.median(self.durations[lo:hi])

    def speed(self):
        """Median host speed over the run, relative to nominal."""
        ordered = sorted(self.durations)
        return NOMINAL_S / ordered[len(ordered) // 2]
