"""Stochastic encounter generation per operating context.

An *encounter* is one potential conflict between the ego and another
actor: a pedestrian stepping towards the roadway, a car braking ahead, an
elk on a rural road.  Encounters arrive as a Poisson process whose rate
and composition depend on the operating context — this is where the
Sec. II-B-4 contextual variation lives in the substrate.

The generator produces geometry only (who, how far, what sight line);
resolution into incidents is the simulator's job, because the *outcome*
depends on the tactical policy — which is precisely the paper's
exposure-is-a-design-choice point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..core.taxonomy import ActorClass
from ..stats.importance import (clamped_lognormal_log_ratio,
                                floored_normal_log_ratio)

__all__ = ["Encounter", "EncounterBatch", "ContextProfile",
           "EncounterGenerator", "default_context_profiles",
           "ProposalTilt", "encounter_log_weights"]

SIGHT_DISTANCE_CLAMP_M = 1.0
"""Lower clamp applied to every sampled sight distance.  Part of the
encounter law (it puts a point mass at 1 m), so the importance-sampling
likelihood ratios must — and do — account for it."""


def _lognormal_params(mean: float, std: float) -> Tuple[float, float]:
    """(mu, sigma) of the lognormal with the given mean and std.

    The single derivation both sampling paths and the likelihood-ratio
    bookkeeping share; scaling ``(mean, std)`` by a common factor ``s``
    leaves ``sigma`` unchanged and shifts ``mu`` by ``ln s`` — which is
    why :class:`ProposalTilt` tilts sight distances multiplicatively.
    """
    sigma = math.sqrt(math.log(1.0 + (std / mean) ** 2))
    mu = math.log(mean) - sigma ** 2 / 2.0
    return mu, sigma


@dataclass(frozen=True)
class ProposalTilt:
    """An importance-sampling proposal over the encounter law.

    Three levers, chosen so every likelihood ratio is available in closed
    form against the *same* parametric family (DESIGN §11):

    * ``rate_scale`` multiplies every class's Poisson arrival rate —
      more encounters per simulated hour.  Under the per-record Campbell
      estimator each encounter's weight carries a flat ``1/rate_scale``.
    * ``sight_scale`` multiplies the (mean, std) of the lognormal sight
      distance — values below 1 make occluded, short-sight conflicts
      common.  Scaling both moments together keeps the log-space sigma
      fixed and shifts mu by ``ln(sight_scale)``, so the ratio is exact.
    * ``speed_shift_kmh`` shifts the mean of the floored-normal
      counterpart speed (same std).  Classes with zero speed spread
      (static objects) are point masses and are never shifted.

    A fourth lever targets the *resolution* law rather than the
    encounter law: ``degradation_scale`` multiplies the braking system's
    fault occupancy (the paper's Sec. II-B-3 degraded-braking channel,
    typically 1e-4 or rarer) so faulted encounters are proposed often;
    the realised fault states are reweighted by the exact Bernoulli
    ratio inside the engine's importance passes
    (:func:`repro.traffic.engine.simulate_importance_stratum`).

    The identity tilt reproduces the nominal generator bit-for-bit with
    all weights exactly 1 — the oracle equivalence the statistical
    verification tier pins.
    """

    rate_scale: float = 1.0
    sight_scale: float = 1.0
    speed_shift_kmh: float = 0.0
    degradation_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_scale <= 0 or not math.isfinite(self.rate_scale):
            raise ValueError("rate scale must be positive and finite")
        if self.sight_scale <= 0 or not math.isfinite(self.sight_scale):
            raise ValueError("sight scale must be positive and finite")
        if not math.isfinite(self.speed_shift_kmh):
            raise ValueError("speed shift must be finite")
        if self.degradation_scale <= 0 or \
                not math.isfinite(self.degradation_scale):
            raise ValueError("degradation scale must be positive and finite")

    @property
    def is_identity(self) -> bool:
        return (self.rate_scale == 1.0 and self.sight_scale == 1.0
                and self.speed_shift_kmh == 0.0
                and self.degradation_scale == 1.0)


@dataclass(frozen=True)
class Encounter:
    """One potential conflict, before tactical resolution.

    ``sight_distance_m`` is the geometric distance at which the conflict
    is first observable; ``counterpart_speed_kmh`` the counterpart's speed
    along the conflict course (0 for static objects);  ``cue_available``
    whether an early-warning cue preceded the encounter (usable by
    proactive policies); ``time_h`` the arrival stamp within the simulated
    exposure.
    """

    counterpart: ActorClass
    context: str
    sight_distance_m: float
    counterpart_speed_kmh: float
    cue_available: bool
    time_h: float

    def __post_init__(self) -> None:
        if self.counterpart is ActorClass.EGO:
            raise ValueError("ego cannot encounter itself")
        if self.sight_distance_m <= 0:
            raise ValueError("sight distance must be positive")
        if self.counterpart_speed_kmh < 0:
            raise ValueError("counterpart speed must be >= 0")
        if self.time_h < 0:
            raise ValueError("time stamp must be >= 0")


@dataclass(frozen=True)
class EncounterBatch:
    """Structure-of-arrays form of all encounters of one (context, class).

    The vectorized engine's native format: parallel arrays over the
    encounters of a single counterpart class in one context, in arrival
    order.  ``cue_available`` is boolean; the rest are float arrays.  The
    class and context stay scalar because every encounter in the batch
    shares them — exactly the grouping the per-(context × class) RNG
    sub-stream layout works in.

    Values are valid by construction, so only the shapes are checked:
    :meth:`EncounterGenerator.sample_class_batch` clamps sight distances
    to :data:`SIGHT_DISTANCE_CLAMP_M`, floors speeds at 0 and stamps
    times in ``[0, hours)``, and :meth:`from_encounters` packs
    :class:`Encounter` objects, which validate themselves.
    """

    counterpart: ActorClass
    context: str
    time_h: np.ndarray
    sight_distance_m: np.ndarray
    counterpart_speed_kmh: np.ndarray
    cue_available: np.ndarray

    def __post_init__(self) -> None:
        if self.counterpart is ActorClass.EGO:
            raise ValueError("ego cannot encounter itself")
        n = self.time_h.shape[0]
        for name in ("sight_distance_m", "counterpart_speed_kmh",
                     "cue_available"):
            if getattr(self, name).shape != (n,):
                raise ValueError(
                    f"batch arrays must share one length; {name} has shape "
                    f"{getattr(self, name).shape}, expected ({n},)")

    def __len__(self) -> int:
        return int(self.time_h.shape[0])

    @classmethod
    def from_encounters(cls, encounters: List[Encounter]) -> "EncounterBatch":
        """Pack scalar encounters (one class, one context) into arrays."""
        if not encounters:
            raise ValueError("cannot infer class/context from an empty list")
        first = encounters[0]
        if any(e.counterpart is not first.counterpart
               or e.context != first.context for e in encounters):
            raise ValueError("a batch holds one (context, class) group")
        return cls(
            counterpart=first.counterpart,
            context=first.context,
            time_h=np.array([e.time_h for e in encounters]),
            sight_distance_m=np.array([e.sight_distance_m
                                       for e in encounters]),
            counterpart_speed_kmh=np.array([e.counterpart_speed_kmh
                                            for e in encounters]),
            cue_available=np.array([e.cue_available for e in encounters],
                                   dtype=bool),
        )


@dataclass(frozen=True)
class ContextProfile:
    """Encounter statistics for one operating context.

    ``encounter_rates`` are conflict arrivals per hour per counterpart
    class; ``sight_distance_m`` gives (mean, std) of the lognormal sight
    distance; ``counterpart_speed_kmh`` (mean, std) of the counterpart's
    conflict-course speed.  All synthetic, shaped per context (urban:
    frequent close VRU conflicts; highway: rare but fast car conflicts).
    """

    name: str
    encounter_rates: Mapping[ActorClass, float]
    sight_distance_m: Mapping[ActorClass, Tuple[float, float]]
    counterpart_speed_kmh: Mapping[ActorClass, Tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("context profile must be named")
        if not self.encounter_rates:
            raise ValueError(f"context {self.name!r} generates no encounters")
        for counterpart, rate in self.encounter_rates.items():
            if rate < 0 or not math.isfinite(rate):
                raise ValueError(
                    f"context {self.name!r}: rate for {counterpart} must be "
                    f"finite and >= 0")
            if counterpart not in self.sight_distance_m:
                raise ValueError(
                    f"context {self.name!r}: no sight-distance parameters "
                    f"for {counterpart}")
            if counterpart not in self.counterpart_speed_kmh:
                raise ValueError(
                    f"context {self.name!r}: no speed parameters for "
                    f"{counterpart}")

    def total_rate(self) -> float:
        """Total conflict arrivals per hour in this context."""
        return sum(self.encounter_rates.values())

    def tilted(self, tilt: ProposalTilt) -> "ContextProfile":
        """This context's law under an importance-sampling proposal.

        Rates scale, sight-distance moments scale together, and speed
        means shift (point-mass speeds — std 0 — stay put).  The profile
        keeps its name so a tilted generator answers for the same
        contexts as the nominal one.
        """
        return ContextProfile(
            name=self.name,
            encounter_rates={c: rate * tilt.rate_scale
                             for c, rate in self.encounter_rates.items()},
            sight_distance_m={c: (mean * tilt.sight_scale,
                                  std * tilt.sight_scale)
                              for c, (mean, std)
                              in self.sight_distance_m.items()},
            counterpart_speed_kmh={
                c: ((mean + tilt.speed_shift_kmh, std) if std > 0.0
                    else (mean, std))
                for c, (mean, std) in self.counterpart_speed_kmh.items()},
        )


class EncounterGenerator:
    """Samples encounter streams from context profiles."""

    def __init__(self, profiles: Mapping[str, ContextProfile]):
        if not profiles:
            raise ValueError("generator needs at least one context profile")
        for name, profile in profiles.items():
            if profile.name != name:
                raise ValueError(
                    f"profile keyed {name!r} is named {profile.name!r}")
        self._profiles: Dict[str, ContextProfile] = dict(profiles)

    @property
    def contexts(self) -> Tuple[str, ...]:
        return tuple(self._profiles)

    def profile(self, context: str) -> ContextProfile:
        try:
            return self._profiles[context]
        except KeyError:
            raise KeyError(f"unknown context {context!r}; "
                           f"known: {sorted(self._profiles)}") from None

    def generate(self, context: str, hours: float, cue_probability: float,
                 rng: np.random.Generator) -> List[Encounter]:
        """Sample all encounters over ``hours`` of driving in ``context``.

        Arrivals per counterpart class are independent Poisson processes;
        sight distances are lognormal (strictly positive, right-skewed —
        occluded conflicts are the short left tail); speeds are truncated
        normal at 0.
        """
        if hours <= 0 or not math.isfinite(hours):
            raise ValueError(f"hours must be positive and finite, got {hours}")
        if not (0.0 <= cue_probability <= 1.0):
            raise ValueError("cue probability must be in [0, 1]")
        profile = self.profile(context)
        encounters: List[Encounter] = []
        for counterpart, rate in profile.encounter_rates.items():
            if rate == 0.0:
                continue
            count = int(rng.poisson(rate * hours))
            if count == 0:
                continue
            times = np.sort(rng.uniform(0.0, hours, size=count))
            mean_d, std_d = profile.sight_distance_m[counterpart]
            mean_v, std_v = profile.counterpart_speed_kmh[counterpart]
            mu, sigma = _lognormal_params(mean_d, std_d)
            distances = rng.lognormal(mu, sigma, size=count)
            speeds = np.maximum(rng.normal(mean_v, std_v, size=count), 0.0)
            cues = rng.uniform(size=count) < cue_probability
            for i in range(count):
                encounters.append(Encounter(
                    counterpart=counterpart,
                    context=context,
                    sight_distance_m=float(max(distances[i],
                                               SIGHT_DISTANCE_CLAMP_M)),
                    counterpart_speed_kmh=float(speeds[i]),
                    cue_available=bool(cues[i]),
                    time_h=float(times[i]),
                ))
        encounters.sort(key=lambda e: e.time_h)
        return encounters

    def active_classes(self, context: str) -> Tuple[ActorClass, ...]:
        """Counterpart classes with a positive rate, in canonical order.

        The canonical order — sorted by class name — is part of the
        vectorized engine's RNG contract: the k-th active class of a
        context always owns the k-th spawned sub-stream, independent of
        the insertion order of the profile's rate mapping.  Zero-rate
        classes own no stream, so adding one to a profile never shifts
        the draws of the others.
        """
        profile = self.profile(context)
        return tuple(sorted(
            (c for c, rate in profile.encounter_rates.items() if rate > 0.0),
            key=lambda c: c.name))

    def sample_class_batch(self, context: str, counterpart: ActorClass,
                           hours: float, cue_probability: float,
                           rng: np.random.Generator) -> EncounterBatch:
        """Sample one (context, class) group as a structure of arrays.

        Whole-array draw order on ``rng`` (the class's own sub-stream —
        documented in DESIGN §6, and fixed so results never depend on any
        internal batching): Poisson count, arrival times, sight
        distances, counterpart speeds, cue uniforms.  A zero count stops
        after the Poisson draw, mirroring the scalar generator.
        """
        if hours <= 0 or not math.isfinite(hours):
            raise ValueError(f"hours must be positive and finite, got {hours}")
        if not (0.0 <= cue_probability <= 1.0):
            raise ValueError("cue probability must be in [0, 1]")
        profile = self.profile(context)
        try:
            rate = profile.encounter_rates[counterpart]
        except KeyError:
            raise KeyError(
                f"context {context!r} has no rate for {counterpart}") from None
        count = int(rng.poisson(rate * hours)) if rate > 0.0 else 0
        if count == 0:
            return EncounterBatch(
                counterpart=counterpart, context=context,
                time_h=np.empty(0), sight_distance_m=np.empty(0),
                counterpart_speed_kmh=np.empty(0),
                cue_available=np.empty(0, dtype=bool))
        times = np.sort(rng.uniform(0.0, hours, size=count))
        mean_d, std_d = profile.sight_distance_m[counterpart]
        mean_v, std_v = profile.counterpart_speed_kmh[counterpart]
        mu, sigma = _lognormal_params(mean_d, std_d)
        distances = np.maximum(rng.lognormal(mu, sigma, size=count),
                               SIGHT_DISTANCE_CLAMP_M)
        speeds = np.maximum(rng.normal(mean_v, std_v, size=count), 0.0)
        cues = rng.uniform(size=count) < cue_probability
        return EncounterBatch(
            counterpart=counterpart, context=context, time_h=times,
            sight_distance_m=distances, counterpart_speed_kmh=speeds,
            cue_available=cues)

    def tilted(self, tilt: ProposalTilt) -> "EncounterGenerator":
        """A generator sampling every context under the proposal law.

        Active classes (and their canonical order, hence the RNG
        sub-stream layout) are preserved: a positive rate stays positive
        under any positive ``rate_scale``.  The identity tilt returns a
        generator that is bit-for-bit equivalent to this one.
        """
        return EncounterGenerator({name: profile.tilted(tilt)
                                   for name, profile
                                   in self._profiles.items()})


def encounter_log_weights(batch: EncounterBatch,
                          nominal_profile: ContextProfile,
                          tilt: ProposalTilt) -> np.ndarray:
    """Per-encounter log importance weights ``log p/q`` for one batch.

    ``batch`` was sampled under ``nominal_profile.tilted(tilt)``; the
    returned array aligns with the batch.  Each weight is the Campbell
    (marked-Poisson) per-record factor

        ``w_i = (1/rate_scale) · LR_sight(d_i) · LR_speed(v_i)``

    so that for any per-encounter statistic ``f``,
    ``E_nominal[Σ f] = E_proposal[Σ f·w]`` — the arrival-rate tilt is
    carried per event (the ``1/rate_scale``), and the mark ratios use the
    exact clamped/floored forms (atoms included) from
    :mod:`repro.stats.importance`.  Arrival times, cue draws, and every
    untilted resolution draw contribute ratio 1; the one resolution mark
    a tilt can touch — the degraded-braking state under
    ``degradation_scale`` — is reweighted by the engine, which alone sees
    the realised fault states.
    """
    counterpart = batch.counterpart
    if batch.context != nominal_profile.name:
        raise ValueError(
            f"batch context {batch.context!r} does not match profile "
            f"{nominal_profile.name!r}")
    try:
        mean_d, std_d = nominal_profile.sight_distance_m[counterpart]
        mean_v, std_v = nominal_profile.counterpart_speed_kmh[counterpart]
    except KeyError:
        raise KeyError(f"nominal profile {nominal_profile.name!r} has no "
                       f"parameters for {counterpart}") from None
    log_w = np.full(len(batch), -math.log(tilt.rate_scale))
    if not len(batch):
        return log_w
    mu_p, sigma = _lognormal_params(mean_d, std_d)
    mu_q, _ = _lognormal_params(mean_d * tilt.sight_scale,
                                std_d * tilt.sight_scale)
    log_w += clamped_lognormal_log_ratio(
        batch.sight_distance_m, mu_p=mu_p, mu_q=mu_q, sigma=sigma,
        clamp=SIGHT_DISTANCE_CLAMP_M)
    if std_v > 0.0:
        log_w += floored_normal_log_ratio(
            batch.counterpart_speed_kmh, mean_p=mean_v,
            mean_q=mean_v + tilt.speed_shift_kmh, std=std_v)
    return log_w


def default_context_profiles() -> Dict[str, ContextProfile]:
    """Synthetic but realistically shaped profiles for four contexts."""
    urban = ContextProfile(
        name="urban",
        encounter_rates={
            ActorClass.VRU: 6.0,
            ActorClass.CAR: 8.0,
            ActorClass.STATIC_OBJECT: 0.5,
            ActorClass.TRUCK: 0.8,
        },
        sight_distance_m={
            ActorClass.VRU: (35.0, 18.0),
            ActorClass.CAR: (50.0, 20.0),
            ActorClass.STATIC_OBJECT: (60.0, 25.0),
            ActorClass.TRUCK: (55.0, 20.0),
        },
        counterpart_speed_kmh={
            ActorClass.VRU: (5.0, 2.0),
            ActorClass.CAR: (30.0, 10.0),
            ActorClass.STATIC_OBJECT: (0.0, 0.0),
            ActorClass.TRUCK: (25.0, 8.0),
        },
    )
    suburban = ContextProfile(
        name="suburban",
        encounter_rates={
            ActorClass.VRU: 2.0,
            ActorClass.CAR: 5.0,
            ActorClass.STATIC_OBJECT: 0.3,
            ActorClass.TRUCK: 0.6,
        },
        sight_distance_m={
            ActorClass.VRU: (55.0, 22.0),
            ActorClass.CAR: (80.0, 30.0),
            ActorClass.STATIC_OBJECT: (90.0, 30.0),
            ActorClass.TRUCK: (85.0, 30.0),
        },
        counterpart_speed_kmh={
            ActorClass.VRU: (6.0, 3.0),
            ActorClass.CAR: (45.0, 12.0),
            ActorClass.STATIC_OBJECT: (0.0, 0.0),
            ActorClass.TRUCK: (40.0, 10.0),
        },
    )
    rural = ContextProfile(
        name="rural",
        encounter_rates={
            ActorClass.VRU: 0.3,
            ActorClass.CAR: 3.0,
            ActorClass.ANIMAL: 0.8,
            ActorClass.STATIC_OBJECT: 0.2,
            ActorClass.TRUCK: 0.8,
        },
        sight_distance_m={
            ActorClass.VRU: (80.0, 30.0),
            ActorClass.CAR: (120.0, 45.0),
            ActorClass.ANIMAL: (60.0, 30.0),
            ActorClass.STATIC_OBJECT: (120.0, 40.0),
            ActorClass.TRUCK: (120.0, 40.0),
        },
        counterpart_speed_kmh={
            ActorClass.VRU: (6.0, 3.0),
            ActorClass.CAR: (70.0, 15.0),
            ActorClass.ANIMAL: (15.0, 8.0),
            ActorClass.STATIC_OBJECT: (0.0, 0.0),
            ActorClass.TRUCK: (65.0, 12.0),
        },
    )
    highway = ContextProfile(
        name="highway",
        encounter_rates={
            ActorClass.CAR: 4.0,
            ActorClass.TRUCK: 1.5,
            ActorClass.STATIC_OBJECT: 0.1,
        },
        sight_distance_m={
            ActorClass.CAR: (180.0, 60.0),
            ActorClass.TRUCK: (180.0, 60.0),
            ActorClass.STATIC_OBJECT: (150.0, 50.0),
        },
        counterpart_speed_kmh={
            ActorClass.CAR: (95.0, 15.0),
            ActorClass.TRUCK: (80.0, 10.0),
            ActorClass.STATIC_OBJECT: (0.0, 0.0),
        },
    )
    return {"urban": urban, "suburban": suburban, "rural": rural,
            "highway": highway}
