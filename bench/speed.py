"""Machine-speed trace, for timing on a shared machine.

On a machine shared with other tenants the speed of one core swings by
up to 2x within a minute, and the program's timings follow it.  A run
therefore samples that speed throughout: an interval timer runs a fixed
calibration routine every PERIOD seconds and records how long it took.
The routine mixes what toricball spends its time on (exact Fraction
elimination, float powers and exponentials, tuples and dict lookups)
and uses nothing from toricball, so a change to the program does not
change it.  A timed interval is reported

* raw: wall time minus the time the sampler spent inside it;
* scaled: raw times REF_S / (routine time), where the routine time is
  the mean over the samples taken during the interval when there are
  at least MIN_SAMPLES of them, and otherwise the median over those
  within WINDOW_S of the interval.

The mean is the right average for a long interval: its wall time is
the integral of the machine's slowness over the interval, so a slow
spell counts in proportion to its length.  A median there discounts
slow spells, which are short and bursty, and leaves scaled times
moving with the machine.  A short interval has too few samples for a
mean that one interrupted sample cannot swing, hence the median.

A sample that took more than CLIP times the run's median was
interrupted (the process was descheduled during it) rather than slowed,
and the time lost is already excluded from raw.  It counts as CLIP
times the median, so that it cannot halve the speed of a short
interval on its own.

Each sample runs the routine twice and times the second run, so that
it measures the machine's speed on warm caches rather than how much
of the routine the program pushed out of them.

Scaled seconds are seconds at the speed at which the routine takes
REF_S: program work moves them, a slow spell of the machine does not.
Only the main thread is sampled, between bytecodes, so a long call into
C delays a sample rather than splitting it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array
from fractions import Fraction

PERIOD = 0.02
REF_S = 120e-6  # warm routine time at a quiet moment of a 2-core x86-64 VM, Python 3.11
WINDOW_S = 0.04
MIN_SAMPLES = 3
CLIP = 3.0

_MATRIX = ((3, 1, 2, Fraction(7, 3)), (1, 4, 1, Fraction(5, 2)), (2, 1, 5, Fraction(11, 5)))
_TABLE = {i: (i % 5, i * 0.5) for i in range(256)}


def calibration_routine():
    """Fixed work: Gauss-Jordan on a 3x3 rational system, then float
    monomials over a small table."""
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    for c in range(3):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(3):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    acc = 0.0
    for i in range(0, 256, 4):
        e, b = _TABLE[i]
        w = (b * 0.001, 0.5, 0.25)
        acc += math.exp(-w[0]) * w[1] ** 3 * w[2] ** e
    return rows, acc


class SpeedTrace:
    """Context manager that samples speed while it is open."""

    def __init__(self):
        self.at = array("d")  # sample start, perf_counter seconds
        self.took = array("d")  # routine time of the sample
        self.spent = 0.0  # total time inside the sampler
        self._cap = (0, 0.0)  # (samples when computed, clip value)
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_routine()
        t1 = time.perf_counter()
        calibration_routine()
        t2 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self):
        """A mark: (clock, sampler time so far)."""
        return time.perf_counter(), self.spent

    def raw(self, mark0, mark1) -> float:
        return (mark1[0] - mark0[0]) - (mark1[1] - mark0[1])

    def _clipped(self, lo, hi):
        if self._cap[0] != len(self.took):
            self._cap = (len(self.took), CLIP * statistics.median(self.took))
        cap = self._cap[1]
        return [min(t, cap) for t in self.took[lo:hi]]

    def factor(self, t0, t1) -> float:
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo >= MIN_SAMPLES:
            return REF_S / statistics.fmean(self._clipped(lo, hi))
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no speed sample near a timed interval")
        return REF_S / statistics.median(self._clipped(lo, hi))

    def scaled(self, mark0, mark1) -> float:
        return self.raw(mark0, mark1) * self.factor(mark0[0], mark1[0])
