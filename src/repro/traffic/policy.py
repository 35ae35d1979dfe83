"""Tactical policies: the ADS's exposure-shaping decisions.

The heart of the paper's Sec. II-B-2/3 argument: "an important part of an
ADS feature's safety strategy is to avoid hazardous situations instead of
making sure they can be handled" — exposure is a *design choice*.  A
:class:`TacticalPolicy` captures the levers the paper names:

* target speed per context ("set a speed that is adjusted to safely
  taking care of predicted possible incidents");
* comfort-braking limit (the "braking harder than 3 m/s² is considered
  uncomfortable" instruction);
* proactive slowdown on hazard cues (the proactive-vs-reactive balance:
  "more focus on proactive capability would result in less frequent
  situations where we need to brake significantly harder than 4 m/s²");
* capability awareness ("as long as the tactical decisions know about the
  current actual braking capability, it should be possible to safely
  adjust the driving style accordingly").

Three presets span the design space for the benchmarks; everything is a
plain dataclass so sweeps can interpolate freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional

import numpy as np

from .dynamics import kmh_to_ms

__all__ = ["TacticalPolicy", "cautious_policy", "nominal_policy",
           "aggressive_policy"]


_DEFAULT_SPEEDS_KMH: Dict[str, float] = {
    "urban": 40.0,
    "suburban": 60.0,
    "rural": 80.0,
    "highway": 110.0,
}


@dataclass(frozen=True)
class TacticalPolicy:
    """One tactical driving configuration.

    Attributes
    ----------
    name:
        Label for reports and sweeps.
    target_speeds_kmh:
        Cruise speed per context; contexts the policy does not know
        raise, rather than silently defaulting (an unknown context is an
        ODD violation).
    comfort_braking_ms2:
        Preferred deceleration ceiling; harder braking is counted as a
        reactive emergency measure.
    reaction_time_s:
        Perception-to-actuation latency of the ADS stack.
    proactive_slowdown:
        Fraction in [0, 1] by which the ego pre-emptively reduces speed
        when a hazard cue precedes an encounter (0 = purely reactive).
    cue_probability:
        Probability an encounter is preceded by a usable cue (visible
        pedestrian near kerb, brake lights ahead).  A property of the
        policy's situational-awareness investment, per Sec. IV.
    capability_aware:
        Whether the policy adapts speed to degraded braking capability
        (the paper's "know about the current actual braking capability").
    sight_margin:
        Fraction of the visible sight distance within which a comfort-
        braking stop must fit; the ego slows below its target speed when
        road geometry closes in.  Values above 1 model overdriving the
        sight line.  This is the paper's "set a speed that is adjusted to
        safely taking care of predicted possible incidents" made concrete.
    """

    name: str
    target_speeds_kmh: Mapping[str, float]
    comfort_braking_ms2: float = 3.0
    reaction_time_s: float = 0.5
    proactive_slowdown: float = 0.3
    cue_probability: float = 0.6
    capability_aware: bool = True
    sight_margin: float = 0.7

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy must be named")
        if not self.target_speeds_kmh:
            raise ValueError("policy needs at least one context speed")
        for context, speed in self.target_speeds_kmh.items():
            if speed <= 0 or not math.isfinite(speed):
                raise ValueError(
                    f"target speed for {context!r} must be positive, got {speed}")
        if self.comfort_braking_ms2 <= 0:
            raise ValueError("comfort braking limit must be positive")
        if self.reaction_time_s < 0:
            raise ValueError("reaction time must be >= 0")
        if not (0.0 <= self.proactive_slowdown <= 1.0):
            raise ValueError("proactive slowdown must be in [0, 1]")
        if not (0.0 <= self.cue_probability <= 1.0):
            raise ValueError("cue probability must be in [0, 1]")
        if self.sight_margin <= 0:
            raise ValueError("sight margin must be positive")

    def target_speed_ms(self, context: str) -> float:
        """Cruise speed (m/s) for a context; unknown contexts raise."""
        try:
            return kmh_to_ms(self.target_speeds_kmh[context])
        except KeyError:
            raise KeyError(
                f"policy {self.name!r} has no speed for context {context!r}; "
                f"known: {sorted(self.target_speeds_kmh)}") from None

    def approach_speed_ms(self, context: str, cued: bool,
                          braking_capability_ms2: float,
                          nominal_capability_ms2: float) -> float:
        """The speed actually carried into an encounter.

        Applies the proactive slowdown when a cue was available, and — if
        capability-aware — scales speed down with degraded braking so the
        achievable stopping distance is preserved (speed scales with the
        square root of the capability ratio).
        """
        if braking_capability_ms2 <= 0 or nominal_capability_ms2 <= 0:
            raise ValueError("braking capabilities must be positive")
        speed = self.target_speed_ms(context)
        if cued:
            speed *= 1.0 - self.proactive_slowdown
        if self.capability_aware and braking_capability_ms2 < nominal_capability_ms2:
            speed *= math.sqrt(braking_capability_ms2 / nominal_capability_ms2)
        return speed

    def sight_limited_speed_ms(self, sight_distance_m: float,
                               braking_capability_ms2: float) -> float:
        """Max speed whose comfort stop fits inside the sight margin.

        Solves ``v·t_r + v²/(2a) = sight_margin · d`` for ``v`` with
        ``a = min(comfort, capability)`` — the geometric speed limit the
        tactical layer derives from how far it can see.  The *actor* may
        still be detected later than the geometry (perception tail), which
        is where residual risk comes from.
        """
        if sight_distance_m <= 0:
            raise ValueError("sight distance must be positive")
        decel = min(self.comfort_braking_ms2, braking_capability_ms2)
        if decel <= 0:
            raise ValueError("braking capability must be positive")
        budgeted = self.sight_margin * sight_distance_m
        t_r = self.reaction_time_s
        # Quadratic v²/(2a) + v·t_r − budgeted = 0, positive root.
        return (-t_r * decel
                + math.sqrt((t_r * decel) ** 2 + 2.0 * decel * budgeted))

    def encounter_speed_ms(self, context: str, cued: bool,
                           sight_distance_m: float,
                           braking_capability_ms2: float,
                           nominal_capability_ms2: float) -> float:
        """The speed carried into a concrete encounter.

        The minimum of the context/cue/capability speed and the
        sight-geometry limit.
        """
        return min(
            self.approach_speed_ms(context, cued, braking_capability_ms2,
                                   nominal_capability_ms2),
            self.sight_limited_speed_ms(sight_distance_m,
                                        braking_capability_ms2),
        )

    def approach_speed_ms_array(self, target_speed_ms: np.ndarray,
                                cued: np.ndarray,
                                braking_capability_ms2: np.ndarray,
                                nominal_capability_ms2: float) -> np.ndarray:
        """Vectorized :meth:`approach_speed_ms` over a batch of encounters.

        ``target_speed_ms`` holds each encounter's
        :meth:`target_speed_ms`, so one batch may span contexts.  Same
        multiplication order as the scalar path (target × cue factor ×
        capability factor), so a size-1 batch reproduces the scalar
        value bit-for-bit.
        """
        braking_capability_ms2 = np.asarray(braking_capability_ms2,
                                            dtype=float)
        if nominal_capability_ms2 <= 0 or \
                (braking_capability_ms2.size
                 and np.any(braking_capability_ms2 <= 0)):
            raise ValueError("braking capabilities must be positive")
        speed = np.where(np.asarray(cued, dtype=bool),
                         target_speed_ms * (1.0 - self.proactive_slowdown),
                         target_speed_ms)
        if self.capability_aware:
            degraded = braking_capability_ms2 < nominal_capability_ms2
            scale = np.where(
                degraded,
                np.sqrt(braking_capability_ms2 / nominal_capability_ms2),
                1.0)
            speed = np.where(degraded, speed * scale, speed)
        return speed

    def sight_limited_speed_ms_array(self, sight_distance_m: np.ndarray,
                                     braking_capability_ms2: np.ndarray,
                                     ) -> np.ndarray:
        """Vectorized :meth:`sight_limited_speed_ms` (same quadratic root)."""
        sight_distance_m = np.asarray(sight_distance_m, dtype=float)
        braking_capability_ms2 = np.asarray(braking_capability_ms2,
                                            dtype=float)
        if sight_distance_m.size and np.any(sight_distance_m <= 0):
            raise ValueError("sight distance must be positive")
        if braking_capability_ms2.size and \
                np.any(braking_capability_ms2 <= 0):
            raise ValueError("braking capability must be positive")
        decel = np.minimum(self.comfort_braking_ms2, braking_capability_ms2)
        budgeted = self.sight_margin * sight_distance_m
        t_r = self.reaction_time_s
        return (-t_r * decel
                + np.sqrt((t_r * decel) ** 2 + 2.0 * decel * budgeted))

    def encounter_speed_ms_array(self, target_speed_ms: np.ndarray,
                                 cued: np.ndarray,
                                 sight_distance_m: np.ndarray,
                                 braking_capability_ms2: np.ndarray,
                                 nominal_capability_ms2: float) -> np.ndarray:
        """Vectorized :meth:`encounter_speed_ms`: elementwise minimum of
        the target/cue/capability speed and the sight-geometry limit."""
        return np.minimum(
            self.approach_speed_ms_array(target_speed_ms, cued,
                                         braking_capability_ms2,
                                         nominal_capability_ms2),
            self.sight_limited_speed_ms_array(sight_distance_m,
                                              braking_capability_ms2),
        )

    def with_proactivity(self, proactive_slowdown: float,
                         cue_probability: Optional[float] = None,
                         *, sight_margin: Optional[float] = None,
                         name: Optional[str] = None) -> "TacticalPolicy":
        """A swept copy with different proactive behaviour.

        Proactivity in this model has two levers: how strongly the ego
        slows on hazard cues (``proactive_slowdown`` / ``cue_probability``)
        and how conservatively it budgets its sight line
        (``sight_margin`` — above 1 means relying on reactive braking).
        The Sec. II-B-3 sweeps move both together.
        """
        return replace(
            self,
            name=name if name is not None else
            f"{self.name}(proactivity={proactive_slowdown:g})",
            proactive_slowdown=proactive_slowdown,
            cue_probability=(cue_probability if cue_probability is not None
                             else self.cue_probability),
            sight_margin=(sight_margin if sight_margin is not None
                          else self.sight_margin),
        )


def cautious_policy() -> TacticalPolicy:
    """Low speeds, strong proactive slowdown, good cue usage."""
    return TacticalPolicy(
        name="cautious",
        target_speeds_kmh={ctx: speed * 0.8
                           for ctx, speed in _DEFAULT_SPEEDS_KMH.items()},
        comfort_braking_ms2=2.5,
        reaction_time_s=0.4,
        proactive_slowdown=0.5,
        cue_probability=0.8,
        sight_margin=0.5,
    )


def nominal_policy() -> TacticalPolicy:
    """The reference configuration used throughout the benchmarks."""
    return TacticalPolicy(
        name="nominal",
        target_speeds_kmh=dict(_DEFAULT_SPEEDS_KMH),
        comfort_braking_ms2=3.0,
        reaction_time_s=0.5,
        proactive_slowdown=0.3,
        cue_probability=0.6,
        sight_margin=0.7,
    )


def aggressive_policy() -> TacticalPolicy:
    """High speeds, little proactivity — the reactive end of the spectrum."""
    return TacticalPolicy(
        name="aggressive",
        target_speeds_kmh={ctx: speed * 1.15
                           for ctx, speed in _DEFAULT_SPEEDS_KMH.items()},
        comfort_braking_ms2=3.5,
        reaction_time_s=0.6,
        proactive_slowdown=0.05,
        cue_probability=0.3,
        sight_margin=1.4,
    )
