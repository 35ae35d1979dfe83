"""Vehicle-internal fault models: degraded braking capability.

Implements the substrate for the paper's Sec. II-B-3 example — "a
vehicle-internal fault leading to a reduced braking capacity of only
4 m/s² on dry asphalt".  The model is deliberately occupancy-based: at any
encounter the braking system is in its degraded state with a small
probability (fault rate × undetected-residence time), capturing both
random hardware faults and slow-detected systematic ones with one number,
in line with Sec. V's cause-agnostic budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["BrakingSystem"]


@dataclass(frozen=True)
class BrakingSystem:
    """Braking capability with a stochastic degradation state.

    ``nominal_ms2`` is the healthy peak deceleration; ``degraded_ms2`` the
    capability in the faulted state (the paper's 4 m/s²);
    ``degradation_occupancy`` the probability of being degraded at any
    given moment.  ``reports_capability`` models whether the tactical
    layer is told about the degradation — the paper's argument needs both
    settings: an aware policy adapts speed, an unaware one drives into
    encounters with stale assumptions.
    """

    nominal_ms2: float = 8.0
    degraded_ms2: float = 4.0
    degradation_occupancy: float = 1e-4
    reports_capability: bool = True

    def __post_init__(self) -> None:
        if self.nominal_ms2 <= 0:
            raise ValueError("nominal capability must be positive")
        if not (0 < self.degraded_ms2 <= self.nominal_ms2):
            raise ValueError(
                f"degraded capability must be in (0, {self.nominal_ms2}]")
        if not (0.0 <= self.degradation_occupancy <= 1.0):
            raise ValueError("degradation occupancy must be in [0, 1]")

    def sample_capability(self, rng: np.random.Generator) -> float:
        """The actual peak deceleration available for one encounter."""
        if rng.uniform() < self.degradation_occupancy:
            return self.degraded_ms2
        return self.nominal_ms2

    def sample_degraded_array(self, rng: np.random.Generator,
                              size: int) -> np.ndarray:
        """Fault states for a batch of encounters.

        One uniform per encounter, compared against the degradation
        occupancy — the whole-array analogue of
        :meth:`sample_capability`'s draw, and the first resolution draw
        on each (context, class) stream of the vectorized engine.  The
        mask is the Bernoulli outcome itself, which the importance
        sampler needs to reweight a tilted ``degradation_occupancy``
        exactly (inferring the state from the capability value would be
        ambiguous when degraded and nominal capabilities coincide).
        """
        if size < 0:
            raise ValueError("size must be >= 0")
        return rng.uniform(size=size) < self.degradation_occupancy

    def capability_array(self, degraded: np.ndarray) -> np.ndarray:
        """Actual peak decelerations for the given fault states."""
        return np.where(degraded, self.degraded_ms2, self.nominal_ms2)

    def known_capability_array(self, actual_ms2: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`known_capability`."""
        actual_ms2 = np.asarray(actual_ms2, dtype=float)
        if actual_ms2.size and np.any(actual_ms2 <= 0):
            raise ValueError("actual capability must be positive")
        if self.reports_capability:
            return actual_ms2
        return np.full_like(actual_ms2, self.nominal_ms2)

    def with_occupancy(self, degradation_occupancy: float) -> "BrakingSystem":
        """The same braking system at a different degradation occupancy.

        Used by the importance sampler to propose fault states more often
        than the nominal occupancy; all other parameters (and therefore
        the physics of each state) are untouched.
        """
        return replace(self, degradation_occupancy=degradation_occupancy)

    def known_capability(self, actual_ms2: float) -> float:
        """What the tactical layer believes the capability to be.

        With ``reports_capability`` the truth; without it, the nominal
        value regardless of the actual state — the configuration in which
        a conventional braking-capacity safety goal earns its keep.
        """
        if actual_ms2 <= 0:
            raise ValueError("actual capability must be positive")
        return actual_ms2 if self.reports_capability else self.nominal_ms2
