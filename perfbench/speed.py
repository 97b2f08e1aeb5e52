"""Rescale measured times by the machine's speed while they were measured.

The benchmark runs on shared hosts whose speed changes by up to 2x for
seconds to minutes at a time, as neighbours load the same cores.  Medians
over a run do not remove spells that last longer than the run.  So while a
timed section runs, a SIGALRM timer interrupts it every TICK_S seconds and
runs a fixed reference routine twice, timing the second run; the first
refills the caches the interrupted code evicted, so that the sample tracks
the machine and not the workload.  The routine lives here and never changes
with rotagrid.  A section's work time (its wall time minus the reference
runs inside it) is rescaled by REF_NOMINAL_S over the median reference
time around the section.  That estimates the section's time at the
reference's nominal speed: on a quiet machine the two agree, and a slower
or faster rotagrid moves the rescaled time as much as the raw one.  It is
the median because a rare pause of the whole guest lengthens one short
reference run by many times its length, but a long section only by its
share of the time.

The raw wall times are kept in the run's record beside the rescaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

TICK_S = 0.04
WINDOW_S = 1.0       # reference samples this far either side also count
# the reference's time on a quiet core: a 2-vCPU Xeon guest, Python 3.11
REF_NOMINAL_S = 330e-6


def reference():
    """Integer, dict, frozenset and Fraction work, rotagrid's usual mix."""
    acc = 0
    table: dict = {}
    for i in range(150):
        m = (i * 2654435761) & 511
        table[m] = table.get(m, 0) + bin(m).count("1")
        acc += len(frozenset(j for j in range(9) if m >> j & 1))
    third, s = Fraction(1, 3), Fraction(0)
    for i in range(10):
        s = s * third + Fraction(i, 7)
    return acc + len(table), s


class SpeedProbe:
    """Samples the reference's duration on a timer while it is running."""

    def __init__(self):
        self.at = array("d")         # midpoint of each reference run
        self.took = array("d")       # its duration
        self.spent = 0.0             # total time spent in reference runs
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()                 # a collection here belongs to rotagrid
        t_in = time.perf_counter()
        reference()                  # refills the caches rotagrid evicted
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += t1 - t_in

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return False

    def mark(self) -> tuple[float, float]:
        """(time, reference time so far), taken at a section's edge."""
        while True:                  # retry if a tick falls between the reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now, spent

    def summary(self) -> dict:
        return {"tick_s": TICK_S, "window_s": WINDOW_S,
                "nominal_us": REF_NOMINAL_S * 1e6, "samples": len(self.took),
                "mean_us": sum(self.took) / max(len(self.took), 1) * 1e6,
                "min_us": min(self.took, default=0.0) * 1e6}

    def section(self, start, stop) -> tuple[float, float]:
        """(raw work seconds, rescaled seconds) between two marks."""
        (t0, s0), (t1, s1) = start, stop
        work = (t1 - t0) - (s1 - s0)
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        if hi <= lo:
            raise RuntimeError("no reference samples around a timed section")
        return work, work * REF_NOMINAL_S / statistics.median(self.took[lo:hi])
