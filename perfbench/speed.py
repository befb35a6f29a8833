"""Host speed sampling, to time requests at a fixed reference speed.

On a shared virtual machine the host runs the same Python code at two or
more speeds that alternate every second or so (a 2-vCPU VM measured about
0.53 and 0.93 ms for one fixed loop, 1.75x apart), so a run's median
latency mostly says how long the host spent in its slow state.  While a
``SpeedSampler`` is active, a timer signal runs ``reference_work`` every
``PERIOD_S`` and records how long it took.  ``reference_seconds(a, b)``
turns the wall-time window of a request into the time it would have taken
at the reference speed, at which ``reference_work`` takes ``REFERENCE_S``:
each stretch of the window between samples is scaled by ``REFERENCE_S``
over the local time of the reference work, and the sampler's own time in
the window is left out.

``reference_work`` is plain Python on ``fractions`` and dicts, like the
solver, and uses nothing of hornitp, so a change to hornitp cannot change
the yardstick it is measured with.  Set-up time has a yardstick of its
own, ``REFERENCE_IMPORTS``.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# reference_work's time on a 2-vCPU VM in its fast state; metrics scaled by
# it read as seconds on that machine when nothing slows it down
REFERENCE_S = 55e-6

# Set-up time is an import, which the host's slow state slows less than
# plain Python (about 1.3x against 1.8x), so its yardstick is an import too:
# stdlib modules that hornitp does not import, timed in the same fresh
# interpreter right after ``import hornitp``.  Their import takes
# REFERENCE_IMPORT_S at the reference speed.
REFERENCE_IMPORTS = "email.parser, http.cookiejar, xml.dom.minidom"
REFERENCE_IMPORT_S = 0.035


def reference_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 12):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        table[i % 5] = (acc.numerator % 97, i)
    return acc, table


class SpeedSampler:
    """Context manager that samples the host's speed on SIGALRM."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list = []
        self.durations: list = []
        self._previous = None
        self._local: list = []
        self._cost: list = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # closes the last window
        return False

    def _prepare(self):
        # the local reference time is the median of three neighbouring
        # samples, so one sample slowed by a garbage collection does not
        # decide a stretch; prefix sums give the sampler's time in a window
        if len(self._local) == len(self.durations):
            return
        d = self.durations
        n = len(d)
        self._local = [statistics.median(d[max(i - 1, 0):i + 2]) for i in range(n)]
        self._cost = [0.0]
        for x in d:
            self._cost.append(self._cost[-1] + x)

    def sampling_seconds(self, a: float, b: float) -> float:
        """Time the sampler itself took inside [a, b]."""
        self._prepare()
        lo, hi = bisect_left(self.starts, a), bisect_left(self.starts, b)
        return self._cost[hi] - self._cost[lo]

    def reference_seconds(self, a: float, b: float) -> float:
        """The wall-time window [a, b] at reference speed, without the
        sampler's own time in it."""
        self._prepare()
        s, d, local = self.starts, self.durations, self._local
        if not s:
            raise ValueError("no speed samples")
        lo, hi = bisect_left(s, a), bisect_left(s, b)
        prev = max(lo - 1, 0)
        t, total = a, 0.0
        for j in range(lo, hi):
            total += (s[j] - t) * 2 * REFERENCE_S / (local[prev] + local[j])
            t = s[j] + d[j]
            prev = j
        after = min(hi, len(s) - 1)
        total += max(b - t, 0.0) * 2 * REFERENCE_S / (local[prev] + local[after])
        return total
