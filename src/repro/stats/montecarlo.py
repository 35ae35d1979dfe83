"""Monte-Carlo estimation harness.

Shared machinery for every simulation-based estimate in the repository:
seeded run management and batching with batch-means error bars.  All
stochastic components in the repository take explicit
:class:`numpy.random.Generator` instances; this module is where
generators are minted so that any experiment is exactly reproducible
from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "spawn_generators",
    "BatchMeans",
    "MonteCarloResult",
    "estimate_mean",
]


def spawn_generators(seed: int, count: int) -> List[np.random.Generator]:
    """Mint ``count`` statistically independent generators from one seed.

    Uses ``SeedSequence.spawn`` so parallel replications never share
    streams — the standard numpy idiom for reproducible ensembles.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


@dataclass(frozen=True)
class MonteCarloResult:
    """A point estimate with standard error and replication count."""

    mean: float
    std_error: float
    replications: int

    def ci(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation confidence interval at ``z`` sigmas."""
        half = z * self.std_error
        return (self.mean - half, self.mean + half)

    def relative_error(self) -> float:
        """Standard error / |mean|; ``inf`` for a zero mean."""
        if self.mean == 0:
            return math.inf
        return self.std_error / abs(self.mean)


class BatchMeans:
    """Streaming batch-means accumulator.

    Feeds per-replication outputs; exposes the grand mean and the
    between-replication standard error.  Numerically stable (Welford).
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"batch value must be finite, got {value}")
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("no batches accumulated")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance across replications."""
        if self._n < 2:
            raise ValueError("variance needs at least two batches")
        return self._m2 / (self._n - 1)

    def result(self) -> MonteCarloResult:
        if self._n < 2:
            raise ValueError("a result needs at least two replications")
        return MonteCarloResult(
            mean=self._mean,
            std_error=math.sqrt(self.variance / self._n),
            replications=self._n,
        )


def estimate_mean(simulate: Callable[[np.random.Generator], float],
                  *, seed: int, replications: int) -> MonteCarloResult:
    """Estimate ``E[simulate(rng)]`` over independent replications."""
    if replications < 2:
        raise ValueError("need at least two replications")
    acc = BatchMeans()
    for rng in spawn_generators(seed, replications):
        acc.add(float(simulate(rng)))
    return acc.result()
