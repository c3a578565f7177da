"""The host's speed over a run, followed with a fixed reference kernel.

On a shared VM the host switches every second or so between a fast and a
slow state, about 1.6x apart for pure-Python work, and the share of time
in each varies from run to run; raw item times spread by 20-30 % between
runs.  The benchmark therefore times a fixed piece of pure-Python work,
the reference kernel, between items (outside every item's timer) and
scales each item's time by the kernel's time around it.  The kernel
touches no folp code, so a change to folp moves item times and not the
kernel's.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# The kernel's time on a host at its usual speed, close to that of a
# 2-CPU Xeon VM running CPython 3.  Scaled times are times at this speed.
NOMINAL_KERNEL_S = 0.001

# At most one sample per this much run time: a few per cent of the run.
INTERVAL_S = 0.025

# The samples within this distance of an item, and at least MIN_SAMPLES of
# them, give the host's speed around it.
WINDOW_S = 0.5
MIN_SAMPLES = 5


def kernel() -> int:
    """Fixed interpreter work: tuples, lists, a dict, integer arithmetic."""
    table = {}
    acc = 0
    for i in range(2000):
        key = ("k", i % 97, i)
        node = [key, i, None]
        table[key] = node
        acc += len(table) + node[1]
    for key in table:
        acc ^= key[2] & 0xFF
    return acc


def time_kernel() -> float:
    """Seconds one kernel run takes, with the cyclic GC paused so that the
    heap the program left behind does not count as host speed."""
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


class SpeedProbe:
    """Kernel samples taken over a run, and the host's speed around any
    interval of it."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the middle of a sample
        self.kernel_s: list[float] = []
        self._last = time.perf_counter() - INTERVAL_S

    def sample(self) -> None:
        dt = time_kernel()
        self._last = time.perf_counter()
        self.at.append(self._last - dt / 2)
        self.kernel_s.append(dt)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than INTERVAL_S old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean kernel time over the samples within WINDOW_S of
        [start, end], and at least the MIN_SAMPLES nearest ones.  The mean,
        unlike the median, weighs the fast and the slow state as an item
        that spans both does."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.at)):
            if lo > 0 and (hi == len(self.at)
                           or start - self.at[lo - 1] < self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(self.kernel_s[lo:hi])
