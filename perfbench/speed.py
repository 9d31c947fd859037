"""Machine-speed sampling, so that times can be scaled to a reference speed.

The CPU this benchmark runs on is shared, and its speed drifts.  On a
2-vCPU Xeon VM, 608 back-to-back verify_chain_corpus(5) sweeps over five
minutes had an interquartile range of 0.52 of their median in wall time and
0.53 in CPU time (process_time follows the drift), but 0.06 once scaled as
below.  A timer signal therefore runs a fixed pure-Python kernel every
``INTERVAL_S`` while a pass runs and records how long it took.  A pass's time
divided by the mean kernel time of its samples, times ``REFERENCE_S``, is the
pass's time at reference speed: the time it would take where the kernel takes
exactly ``REFERENCE_S``.  The kernel does not touch mrbounds, so a faster
package moves the scaled time as much as the raw one.  Time spent in the
kernel is excluded from ``clock()``.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.25
REFERENCE_S = 0.004


def kernel() -> float:
    """Seconds taken by a fixed integer and bit-count loop (about 4 ms here)."""
    start = time.perf_counter()
    x = 1
    acc = 0
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc += (x & (x >> 3)).bit_count()
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples taken on a timer, and a clock that leaves their time out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self._spent += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Sample now and then every INTERVAL_S until the block ends; yields
        the index of the first sample taken for this block."""
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield first
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scale(self, first: int) -> float:
        """Factor from raw seconds to reference seconds for samples[first:]."""
        return REFERENCE_S / statistics.fmean(self.samples[first:])


def kernel_median() -> float:
    """Median of three kernel runs, for spot checks outside a pass."""
    return statistics.median(kernel() for _ in range(3))
