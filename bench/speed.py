"""Host speed probe: a fixed pure-Python kernel timed between operations.

The shared host this benchmark was tuned on changes speed by a quarter
or more within seconds.  Runs sample this kernel between operations and
report each operation in reference seconds: measured seconds times
``REFERENCE_S`` over the median of the samples taken within
``WINDOW_S`` of it.  One sample strays from the host's speed by about
a tenth, more than a long operation does, so a single neighbour would
add noise; the window still follows drift over tens of seconds.  The
kernel is benchmark code, so no change to smyth can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0045  # kernel time on the reference machine (see README)
INTERVAL_S = 0.25
WINDOW_S = 2.0
KERNEL_LOOPS = 100_000
KERNEL_PASSES = 5


def kernel() -> float:
    """Seconds one pass of the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i & 7
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples spread over a run, with the time each one ended."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        """Record the median of a few kernel passes, so that one pass cut
        short or stretched by the scheduler does not set the factor."""
        self.samples.append(statistics.median(kernel() for _ in range(KERNEL_PASSES)))
        self.ends.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Reference seconds per measured second (below 1 on a slow host)."""
        return REFERENCE_S / statistics.median(self.samples)

    def local_factor(self, start: float, end: float) -> float:
        """The factor for work between ``start`` and ``end``: from the
        samples that ended within ``WINDOW_S`` of it, and at least the last
        one that ended by ``start`` and the first that ended after ``end``."""
        before = max(bisect.bisect_right(self.ends, start) - 1, 0)
        after = min(bisect.bisect_left(self.ends, end), len(self.ends) - 1)
        low = min(bisect.bisect_left(self.ends, start - WINDOW_S), before)
        high = max(bisect.bisect_right(self.ends, end + WINDOW_S), after + 1)
        return REFERENCE_S / statistics.median(self.samples[low:high])
