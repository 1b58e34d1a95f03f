"""Machine-speed reference that every reported time is scaled by.

On the 2-core reference machine a fixed pure-Python loop runs up to twice as
slowly in phases that last from seconds to minutes, because the host is
shared.  A whole 30-second run can fall in a slow phase, and a phase can also
change in the middle of a run, so no statistic over one run's passes removes
the drift.  The benchmark therefore times the fixed loop below before each
set-up process and between operations, and turns every interval it measures
into nominal seconds by the loop's median time within WINDOW_S of that
interval.  The loop belongs to the benchmark and does not call the package,
so a change to prodstruct moves the scaled times as much as the raw ones.

The package's operations slow down less than the loop does in a slow phase:
over 75 runs of the four workloads, the slope of log(operation time) on
log(loop time) was 0.5 to 0.8.  So the factor is (NOMINAL_S / loop time)
to the power EXPONENT.  Over ten runs per workload, scaling each operation
by the loop within a second of it cut the spread of wall_s on exact-large
from 0.165 (raw) and 0.085 (one factor per run) to 0.020.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.010       # about the loop's time on the reference machine
EVERY_S = 0.1           # sample the loop before an operation at most this often
BURST = 3
WINDOW_S = 1.0          # loop samples this close to an interval scale it
EXPONENT = 0.7

_MASKS = np.array([(1 << ((i + 1) % 9)) | (1 << ((i + 4) % 9)) for i in range(9)],
                  dtype=np.int64)


def reference_seconds():
    """Time of a fixed loop of the interpreter work the package does: dict and
    set updates, integer bit operations, and scalar reads and writes of a
    numpy table (as in the pure subset-DP kernels)."""
    t0 = time.perf_counter()
    seen, last, acc = set(), {}, 0
    for i in range(12000):
        k = (i * 2654435761) & 0xFFFF
        last[k & 511] = k
        if k & 1:
            seen.add(k & 1023)
        acc ^= (k >> 3) | len(seen)
    table = np.zeros(512, dtype=np.int8)
    for s in range(1, 512):
        best, rest = 127, s
        while rest:
            bit = rest & -rest
            rest ^= bit
            cost = int(table[s ^ bit]) + bin(int(_MASKS[bit.bit_length() - 1]) & s).count("1")
            best = min(best, cost)
        table[s] = best
    return time.perf_counter() - t0


class Sampler:
    """Samples the reference loop during one run."""

    def __init__(self):
        self.at = []              # perf_counter() at the start of each sample
        self.samples = []
        self.last = -EVERY_S

    def sample(self):
        self.at.append(time.perf_counter())
        self.samples.append(reference_seconds())
        self.last = time.perf_counter()

    def maybe_sample(self):
        """One sample per EVERY_S since the last one, at most BURST, so that
        long operations are sampled before and after as densely as short ones."""
        owed = int((time.perf_counter() - self.last) / EVERY_S)
        for _ in range(min(owed, BURST)):
            self.sample()

    def nominal(self, t0, t1):
        """The interval [t0, t1] of perf_counter() in nominal seconds.  Call it
        after the run, so that samples on both sides of the interval count."""
        near = self.samples[bisect.bisect_left(self.at, t0 - WINDOW_S):
                            bisect.bisect_right(self.at, t1 + WINDOW_S)]
        return (t1 - t0) * (NOMINAL_S / statistics.median(near)) ** EXPONENT

    def scale(self):
        """One factor for the whole run, for times without an interval."""
        return (NOMINAL_S / statistics.median(self.samples)) ** EXPONENT
