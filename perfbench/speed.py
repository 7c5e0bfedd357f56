"""Host speed correction for the benchmark's timings.

The benchmark's host is shared.  Over spans of seconds to tens of minutes the
same pure-Python work runs up to 1.6 times slower, so raw wall times of runs
made minutes apart can differ by 40% with no change to the program.  While a
``SpeedProbe`` is active it interrupts the process every ``INTERVAL`` seconds
(SIGALRM; no thread) to time a fixed standard-library probe: building,
probing and sorting a dict of small tuples, the kind of work bvcalc's
normalizer does, but none of bvcalc's code.  Timings taken with ``clock()`` leave the probes' own
time out, and ``factor()`` scales them to the probe's reference speed.  A
change to bvcalc moves the scaled times exactly as it moves wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.1
REF_PROBE_S = 0.002  # the probe's time on an uncontended 2.1 GHz Xeon vCPU


def probe():
    xs = [(i % 97, (i * 31) % 89, "q", (i % 3,)) for i in range(3000)]
    index = {x: i for i, x in enumerate(xs)}
    total = sum(index[x] for x in xs)
    xs.sort()
    return total


class SpeedProbe:
    """Context manager sampling the host's speed while the benchmark runs."""

    def __init__(self):
        self.samples = []
        self._spent = 0.0  # wall seconds spent in probes
        self._ticks = 0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe()
        p = time.perf_counter() - t0
        self.samples.append(p)
        self._spent += time.perf_counter() - t0
        self._ticks += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """Wall seconds, less the time spent in probes."""
        while True:  # retry if a probe lands while reading
            ticks = self._ticks
            value = time.perf_counter() - self._spent
            if ticks == self._ticks:
                return value

    def factor(self) -> float:
        """Reference probe time over the run's median probe time."""
        if not self.samples:
            self._sample()
        return REF_PROBE_S / statistics.median(self.samples)
