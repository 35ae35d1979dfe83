"""Perception model: when the ego actually sees the conflict.

Encounter outcomes hinge on the distance at which the counterpart is
detected.  The model is deliberately simple but captures the two failure
shapes that matter to the QRN arguments:

* *range limitation*: detection distance is a random fraction of the
  geometric sight distance, degraded by context (night, rain) — a
  "performance limitation" in ISO 21448 terms, which Sec. V insists can
  share one budget with faults;
* *missed detection*: with small probability the counterpart is detected
  only at a fraction of the remaining distance (late detection), standing
  in for both sensor faults and algorithmic misses — cause-agnostic, as
  the quantitative framework wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

import numpy as np

__all__ = ["PerceptionModel", "default_perception", "degraded_perception"]


@dataclass(frozen=True)
class PerceptionModel:
    """Stochastic detection-distance model.

    ``nominal_fraction`` is the mean fraction of the sight distance at
    which detection happens; ``fraction_std`` its spread;
    ``miss_probability`` the chance of a late detection, in which case
    detection happens at ``late_fraction`` of the sight distance.
    ``context_factors`` multiply the nominal fraction per context label.
    Labels are whatever the calling pipeline uses as contexts — the
    simulator passes road types (urban/suburban/rural/highway), so keys
    like ``night``/``rain`` only take effect in pipelines whose contexts
    carry lighting/weather (e.g. custom encounter profiles); unknown
    labels default to factor 1.
    """

    nominal_fraction: float = 0.9
    fraction_std: float = 0.08
    miss_probability: float = 1e-3
    late_fraction: float = 0.25
    context_factors: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.nominal_fraction <= 1.0):
            raise ValueError("nominal fraction must be in (0, 1]")
        if self.fraction_std < 0:
            raise ValueError("fraction std must be >= 0")
        if not (0.0 <= self.miss_probability <= 1.0):
            raise ValueError("miss probability must be in [0, 1]")
        if not (0.0 < self.late_fraction <= 1.0):
            raise ValueError("late fraction must be in (0, 1]")
        for context, factor in self.context_factors.items():
            if factor <= 0 or factor > 1.0:
                raise ValueError(
                    f"context factor for {context!r} must be in (0, 1], "
                    f"got {factor}")

    def context_factor(self, context: str) -> float:
        """The nominal-fraction multiplier of one context label."""
        return self.context_factors.get(context, 1.0)

    def detection_distance(self, sight_distance_m: float, context: str,
                           rng: np.random.Generator) -> float:
        """Sample the distance at which the counterpart is detected.

        Never exceeds the sight distance and never collapses below 1 % of
        it (the counterpart is eventually unmissable).
        """
        if sight_distance_m <= 0:
            raise ValueError("sight distance must be positive")
        factor = self.context_factor(context)
        if rng.uniform() < self.miss_probability:
            fraction = self.late_fraction * factor
        else:
            fraction = rng.normal(self.nominal_fraction * factor,
                                  self.fraction_std)
        fraction = min(max(fraction, 0.01), 1.0)
        return sight_distance_m * fraction

    def sample_detection_array(self, rng: np.random.Generator, size: int,
                               context: str,
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """The detection draws of a batch of encounters in one context.

        Returns ``(missed, nominal)``.  Draw layout (part of the
        vectorized engine's documented RNG contract, see DESIGN §6): one
        uniform per encounter (the miss test) followed by one normal per
        encounter (the nominal fraction).  Unlike the scalar path — which
        skips the normal on a miss — the normal is drawn for *every*
        element so the layout is a pure function of the batch length;
        the unused draws are independent of everything they are
        ``where``-d out of, so the outcome distribution is identical.
        """
        missed = rng.uniform(size=size) < self.miss_probability
        nominal = rng.normal(self.nominal_fraction * self.context_factor(
            context), self.fraction_std, size=size)
        return missed, nominal

    def detection_distance_array(self, sight_distance_m: np.ndarray,
                                 factor: np.ndarray, missed: np.ndarray,
                                 nominal: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`detection_distance` from drawn variates.

        ``factor`` is each encounter's :meth:`context_factor`; ``missed``
        and ``nominal`` come from :meth:`sample_detection_array`.  A
        size-1 batch yields the scalar value bit-for-bit on the non-miss
        branch.
        """
        sight_distance_m = np.asarray(sight_distance_m, dtype=float)
        if sight_distance_m.size and np.any(sight_distance_m <= 0):
            raise ValueError("sight distance must be positive")
        fraction = np.where(missed, self.late_fraction * factor, nominal)
        fraction = np.clip(fraction, 0.01, 1.0)
        return sight_distance_m * fraction


def default_perception() -> PerceptionModel:
    """Nominal sensor stack with mild night/rain degradation."""
    return PerceptionModel(
        nominal_fraction=0.9,
        fraction_std=0.08,
        miss_probability=1e-3,
        late_fraction=0.25,
        context_factors={"night": 0.7, "rain": 0.85, "snow": 0.75},
    )


def degraded_perception(miss_probability: float = 1e-2,
                        nominal_fraction: float = 0.75) -> PerceptionModel:
    """A worse stack for sensitivity studies and fault-injection tests."""
    return PerceptionModel(
        nominal_fraction=nominal_fraction,
        fraction_std=0.12,
        miss_probability=miss_probability,
        late_fraction=0.2,
        context_factors={"night": 0.6, "rain": 0.75, "snow": 0.6},
    )
