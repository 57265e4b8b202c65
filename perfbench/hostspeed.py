"""Host-speed sampling, so that a run's timings do not follow the host's drift.

On a shared machine the speed one process gets drifts by tens of percent,
in phases of seconds to minutes, with the load of its neighbours.  A single
30 s grid build then reads 20 s in one run and 30 s in the next, for the
same code.  While a run measures, ``HostSpeed`` runs a fixed pure-Python
reference kernel of about half a millisecond from a ``SIGALRM`` handler,
ten times a second, in the measuring process itself.  A timed interval is
then reported in host-normalised seconds: its wall time, less the time
spent sampling, times ``REF_NOMINAL_S`` over the mean kernel time
sampled around it.  That is the time the interval would take on a host
where the kernel takes ``REF_NOMINAL_S``.  A program that gets faster
reads faster in the same proportion; a host that gets faster does not.
The mean, not the median: the samples are evenly spaced in time, so their
mean weighs the host's slow and fast phases, and its preemptions, as the
interval itself felt them.

Intervals are taken with ``now()``, a clock that stands still while the
kernel runs, and converted with ``seconds`` once sampling has ended.
``HostSpeed(sample=False)`` samples nothing and converts nothing: its
``seconds`` are plain wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1          # one sample every this many seconds
REF_LOOPS = 4000        # about 0.5 ms of the reference kernel
REF_NOMINAL_S = 5e-4    # the kernel time of the host the seconds are scaled to
HALF_WINDOW_S = 1.0     # samples within this of an interval's middle count for it
MIN_SAMPLES = 5


def reference_kernel(loops: int = REF_LOOPS) -> int:
    """Fixed interpreter work: integer arithmetic, dict stores and a sort."""
    d = {}
    x = 0
    for i in range(loops):
        x = (x * 31 + i) % 1000003
        d[i & 255] = x
    return sum(sorted(d.values()))


class HostSpeed:
    """Samples the host's speed while open; converts intervals afterwards."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.busy_s = 0.0           # wall time spent in the kernel so far
        self.t: list[float] = []    # ``now()`` at each sample
        self.dur: list[float] = []  # kernel wall time of each sample
        self._old_handler = None

    def now(self) -> float:
        """``time.perf_counter()`` less the time spent sampling."""
        return time.perf_counter() - self.busy_s

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.t.append(t0 - self.busy_s)
        self.dur.append(t1 - t0)
        self.busy_s += t1 - t0

    def __enter__(self) -> HostSpeed:
        if self.sample:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def factors(self, starts, ends) -> np.ndarray:
        """``REF_NOMINAL_S`` over the mean kernel time around each interval.

        The samples that count for ``[start, end]`` are those within it or
        within ``HALF_WINDOW_S`` of its middle.
        """
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        ends = np.atleast_1d(np.asarray(ends, dtype=float))
        if not self.sample:
            return np.ones(starts.shape)
        t = np.asarray(self.t)
        total = np.concatenate([[0.0], np.cumsum(self.dur)])
        mid = 0.5 * (starts + ends)
        lo = np.searchsorted(t, np.minimum(starts, mid - HALF_WINDOW_S), side="left")
        hi = np.searchsorted(t, np.maximum(ends, mid + HALF_WINDOW_S), side="right")
        if np.any(hi - lo < MIN_SAMPLES):
            raise ValueError(f"fewer than {MIN_SAMPLES} host-speed samples around an interval")
        return REF_NOMINAL_S * (hi - lo) / (total[hi] - total[lo])

    def seconds(self, starts, ends) -> np.ndarray:
        """Host-normalised durations of the intervals ``[starts, ends]``."""
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        ends = np.atleast_1d(np.asarray(ends, dtype=float))
        return (ends - starts) * self.factors(starts, ends)

    def kernel_ms(self) -> float | None:
        """Median kernel time over the whole run, ms, or None without samples."""
        return 1e3 * float(np.median(self.dur)) if self.dur else None
