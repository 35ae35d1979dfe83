"""Host-speed calibration for the end-to-end timings.

On the shared 2-vCPU host this benchmark was built on, the CPU's speed
drifts by tens of percent in phases that last minutes: identical 100 kh
campaign ops took 1.6 s in one run and 2.8 s two minutes later, cold
starts moved with them, and CPU time tracked wall time.  Longer runs
barely average such phases out (30 s window medians of a fixed CPU loop
spread 0.15, 20 s ones 0.18, as interquartile range ÷ median), so the
benchmark times a fixed kernel — interpreter loop, numpy sort and
cumulative sum, dict building, the mix the program itself runs — right
before and right after every timed op and cold start, and reports each
timing rescaled to a reference host speed::

    reported = wall × REFERENCE_S / kernel

where ``kernel`` is the mean of the two kernel times around it.  A change
to the program moves ``wall`` and leaves ``kernel`` alone; a slower host
moves both.  The raw wall times are printed and kept in the metadata.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.024
"""The kernel's time at the reference host speed (its typical time on the
host the benchmark was built on), so reported timings read as seconds."""

ROUNDS = 3


class HostSpeed:
    """Times the calibration kernel; rescales timings taken between samples."""

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(50_000)
        self.samples: list = []
        self._before = 0.0

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        for _ in range(4):  # small structures, so RSS does not grow
            ordered = np.sort(self._data)
            float((ordered * np.cumsum(ordered)).sum())
            table = {i: str(i) for i in range(10_000)}
            del table
        return time.perf_counter() - start

    def _sample(self) -> float:
        value = statistics.median(self._kernel() for _ in range(ROUNDS))
        self.samples.append(value)
        return value

    def begin(self) -> None:
        """Sample the kernel just before a timing starts."""
        self._before = self._sample()

    def rescale(self, wall: float) -> float:
        """Rescale the timing that ended just now to the reference speed."""
        kernel = (self._before + self._sample()) / 2
        return wall * REFERENCE_S / kernel
