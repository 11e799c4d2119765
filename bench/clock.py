"""Timing corrected for the host's momentary interpreter speed.

On shared virtual machines the speed of a CPU changes by half within
seconds, so the same pass over the same inputs can take 10 s in one run and
15 s in the next.  While a SpeedClock is open, a SIGALRM timer interrupts
the main thread every INTERVAL seconds and times a fixed reference loop
there.  A sample that took t seconds says the interpreter ran at REF / t of
the reference speed during that slice of time.  An interval measured with
the clock is reported twice:

* raw: its perf_counter length minus the time spent in the samples;
* calibrated: raw times the mean REF / t over the samples around it, that
  is, the seconds the same work takes at the reference speed.  REF is about
  the loop's time on a fast core of the host the bounds in BENCHMARK.json
  were set on (a 2-vCPU Xeon VM, CPython 3.11).

The samples cost about 1% of the run and touch no state of the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL = 0.025
REF = 200e-6
WINDOW = 1.0  # intervals shorter than this borrow samples from around them


def _reference_loop():
    x = 0
    for i in range(1500):
        x = (x * 31 + i) & 0xFFFFFFFF
        if x & 7 == 3:
            x ^= i
    return x


class SpeedClock:
    def __init__(self):
        self.starts: list[float] = []  # sample start times, ascending
        self.lengths: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _reference_loop()
        self.starts.append(t0)
        self.lengths.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _between(self, lo: float, hi: float) -> range:
        return range(bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi))

    def raw(self, start: float, end: float) -> float:
        """Seconds from start to end, less the samples taken in between."""
        return end - start - sum(self.lengths[i] for i in self._between(start, end))

    def calibrated(self, start: float, end: float) -> float:
        """raw(start, end) in seconds at the reference speed."""
        mid = (start + end) / 2
        near = self._between(min(start, mid - WINDOW / 2), max(end, mid + WINDOW / 2))
        if not near:
            raise RuntimeError("no speed samples near the interval; is SIGALRM blocked?")
        return self.raw(start, end) * statistics.fmean(REF / self.lengths[i] for i in near)
