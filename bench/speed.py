"""Host speed probe, to express timings in seconds of a reference host.

The host this benchmark was written on is shared: its speed drifts by
20-40% over tens of seconds, in phases longer than a run, so neither a
longer run nor the fastest of several passes cancels it. A short fixed
probe of pure-Python work, of the same kind as ehrwt's (``Fraction``
arithmetic, small dicts and tuples), slows down with the host. Run every
``PERIOD_S`` from a timer signal, in the middle of library calls, it
gives the host's speed along the timed loop. A 0.3-s enumeration and
evaluation job, repeated 102 times over 150 s in a noisy period, had a
spread (interquartile range over median) of 0.46 in wall time and of
0.078 in reference-host time.

``Probe.reference_time(a, b)`` is the time from ``a`` to ``b`` less the
probes run in it, each piece scaled by ``REFERENCE_S`` over the probe
time measured around it: the seconds the interval would have taken on
a host where one probe takes ``REFERENCE_S``.
``host_scale()`` gives the same factor for a short stretch, such as an
import, from probes run right after it.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.05
# About the probe's time on the host the benchmark was written on, when
# fast; it sets the scale of the reported seconds and nothing else.
REFERENCE_S = 7.5e-4
SMOOTH = 5  # probes per moving median


def probe() -> None:
    total = Fraction(0)
    for i in range(1, 90):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    counts = {}
    for i in range(1500):
        key = (i % 31, i % 7)
        counts[key] = counts.get(key, 0) + i


def host_scale(samples: int = 5) -> float:
    """``REFERENCE_S`` over the median of ``samples`` probes run now."""
    probe()  # warm-up
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class Probe:
    """Runs ``probe`` every ``PERIOD_S`` of wall time while entered."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        half = SMOOTH // 2
        self._smooth = [statistics.median(self.durations[max(0, k - half):k + half + 1])
                        for k in range(len(self.durations))]

    def overhead(self, a: float, b: float) -> float:
        """Seconds of probes that started in [a, b)."""
        return sum(self.durations[bisect_left(self.starts, a):bisect_left(self.starts, b)])

    def reference_time(self, a: float, b: float) -> float:
        """Reference-host seconds of [a, b], probes excluded."""
        if not self.starts:  # a loop shorter than PERIOD_S: plain wall time
            return b - a
        k = max(0, bisect_right(self.starts, a) - 1)  # the probe that sets the first piece
        t, total = a, 0.0
        while True:
            nxt = k + 1 if self.starts[k] <= t else k
            end = self.starts[nxt] if nxt < len(self.starts) and self.starts[nxt] < b else b
            total += max(0.0, end - t) * REFERENCE_S / self._smooth[k]
            if end == b:
                return total
            k = nxt
            t = self.starts[k] + self.durations[k]
