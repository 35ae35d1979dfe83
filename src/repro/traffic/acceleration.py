"""Rare-event acceleration: variance-reduced collision-rate estimation.

Safety-class QRN budgets sit at 1e-7/h and below (Fig. 3), where naive
Monte Carlo over simulated hours is hopeless: demonstrating such a rate
to useful precision needs billions of hours of exposure.  This module
provides the two classical accelerators, wired to the traffic substrate
so both remain *exactly* unbiased for the nominal law (DESIGN §11):

* **Importance sampling** (:func:`importance_collision_rate`) — drive
  the fleet under a tilted encounter/fault law
  (:class:`~repro.traffic.encounters.ProposalTilt`) and reweight every
  record with its closed-form likelihood ratio
  (:func:`repro.traffic.engine.simulate_importance_stratum`, which
  resolves a stratum's replications in shared passes, DESIGN §7).
  Weight-health is reported per run via
  :class:`~repro.stats.importance.WeightDiagnostics` and gated by the
  degeneracy alarm.

* **Multilevel splitting** (:func:`splitting_collision_rate`) — estimate
  the per-encounter collision probability by driving particles up a
  ladder of near-miss severity levels.  The severity score is the
  demanded-over-available deceleration ratio of the *scalar oracle's*
  resolution chain (:class:`SeverityChannel` mirrors
  ``simulator._resolve_encounter`` decision for decision), so
  ``score > 1`` is *exactly* the oracle's collision predicate and the
  splitting estimate targets the same quantity as counting collisions.

Both return the same :class:`AcceleratedRate` shape as the naive
stratified baseline (:func:`naive_collision_rate`, the importance
sampler's passes under the identity tilt), so the statistical
verification tier can compare all three against each other on calibrated
workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.taxonomy import ActorClass
from ..stats.importance import WeightDiagnostics
from ..stats.montecarlo import MonteCarloResult
from ..stats.rare_event import (StratifiedEstimate, StratumEstimate,
                                stratified_batch_rate)
from ..stats.splitting import adaptive_levels, replicated_splitting
from .dynamics import kmh_to_ms, required_deceleration_array
from .encounters import (SIGHT_DISTANCE_CLAMP_M, EncounterGenerator,
                         ProposalTilt, _lognormal_params)
from .engine import (CROSSING_CLASSES, simulate_importance,
                     simulate_importance_stratum)
from .faults import BrakingSystem
from .perception import PerceptionModel
from .policy import TacticalPolicy
from .simulator import SimulationConfig

__all__ = [
    "ACCELERATORS",
    "COLLISION_LEVEL",
    "AcceleratedRate",
    "SeverityChannel",
    "severity_channels",
    "naive_collision_rate",
    "importance_collision_rate",
    "splitting_collision_rate",
    "accelerated_collision_rate",
    # perfbench/layers.py wraps simulate_importance under this module's
    # name; the estimators here call simulate_importance_stratum.
    "simulate_importance",
]

ACCELERATORS = ("none", "is", "splitting")
"""Accelerator choices for :func:`accelerated_collision_rate` (and the
CLI's ``--accelerator``): the naive stratified baseline, importance
sampling, multilevel splitting."""

COLLISION_LEVEL = 1.0
"""The severity level whose strict exceedance is a collision:
``demanded deceleration > available capability`` ⇔ ``score > 1``."""


@dataclass(frozen=True)
class AcceleratedRate:
    """A collision-rate estimate plus how it was obtained.

    ``estimate`` is always an exposure-weighted
    :class:`~repro.stats.rare_event.StratifiedEstimate` in collisions per
    hour, whichever accelerator produced the per-context results, so the
    verification tier can compare methods field for field.
    ``diagnostics`` carries pooled importance-weight health for the IS
    method (``None`` otherwise).
    """

    method: str
    estimate: StratifiedEstimate
    diagnostics: Optional[WeightDiagnostics] = None

    def __post_init__(self) -> None:
        if self.method not in ACCELERATORS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {ACCELERATORS}")

    def as_result(self) -> MonteCarloResult:
        return self.estimate.as_result()

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "method": self.method,
            "mean_per_hour": self.estimate.mean,
            "std_error": self.estimate.std_error,
            "replications": self.estimate.as_result().replications,
        }
        if self.diagnostics is not None:
            payload["weight_diagnostics"] = self.diagnostics.to_dict()
        return payload


def _require_positive(name: str, value: float) -> None:
    if value <= 0 or not math.isfinite(value):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def naive_collision_rate(policy: TacticalPolicy,
                         generator: EncounterGenerator,
                         perception: PerceptionModel,
                         braking: BrakingSystem,
                         weights: Mapping[str, float],
                         *, seed: int,
                         replications_per_stratum: int | Mapping[str, int] = 64,
                         hours_per_replication: float = 10.0,
                         config: Optional[SimulationConfig] = None,
                         ) -> AcceleratedRate:
    """The un-accelerated baseline: stratified vectorized simulation.

    One replication simulates ``hours_per_replication`` in one context
    with the vectorized engine and reports its raw collision rate; the
    strata recombine under the exposure mix.  This is what the
    accelerated estimators are benchmarked against — same estimand, same
    replication layout, no variance reduction.  It runs the importance
    sampler's stratum passes under the identity tilt, which draws and
    resolves exactly what :func:`~repro.traffic.engine.simulate_vectorized`
    does.
    """
    _require_positive("hours_per_replication", hours_per_replication)

    def simulate_stratum(context: str,
                         rngs: List[np.random.Generator]) -> List[float]:
        runs = simulate_importance_stratum(
            policy, generator, perception, braking, context,
            hours_per_replication, rngs, config, tilt=ProposalTilt())
        return [run.result.collision_count() / hours_per_replication
                for run in runs]

    estimate = stratified_batch_rate(
        simulate_stratum, weights, seed=seed,
        replications_per_stratum=replications_per_stratum)
    return AcceleratedRate(method="none", estimate=estimate)


def importance_collision_rate(policy: TacticalPolicy,
                              generator: EncounterGenerator,
                              perception: PerceptionModel,
                              braking: BrakingSystem,
                              weights: Mapping[str, float],
                              *, tilt: ProposalTilt,
                              seed: int,
                              replications_per_stratum: int
                              | Mapping[str, int] = 64,
                              hours_per_replication: float = 10.0,
                              config: Optional[SimulationConfig] = None,
                              min_ess_fraction: float = 0.01,
                              max_weight_share: float = 0.5,
                              ) -> AcceleratedRate:
    """Importance-sampled collision rate under a proposal tilt.

    Replication-for-replication the layout of
    :func:`naive_collision_rate` — same sorted-context order, same
    ``spawn_generators`` stream assignment, same exposure per replication
    — except the proposal is ``tilt`` and each replication reports the
    *weighted* collision rate, which is unbiased for the nominal rate by
    the Campbell argument.  Each stratum is one
    :func:`~repro.traffic.engine.simulate_importance_stratum` call, whose
    passes resolve many replications at once.  Weight diagnostics pool
    over every replication and are checked against the degeneracy alarm
    thresholds once at the end (raising
    :class:`~repro.stats.importance.WeightDegeneracyError` on a
    collapsed proposal); pass ``min_ess_fraction=0`` and
    ``max_weight_share=1`` to disable the gate.

    With the identity tilt this *is* the naive estimator, bit for bit.
    """
    _require_positive("hours_per_replication", hours_per_replication)
    pooled: List[WeightDiagnostics] = []

    def simulate_stratum(context: str,
                         rngs: List[np.random.Generator]) -> List[float]:
        runs = simulate_importance_stratum(
            policy, generator, perception, braking, context,
            hours_per_replication, rngs, config, tilt=tilt)
        pooled.extend(run.diagnostics for run in runs)
        return [run.weighted_collision_rate_per_hour() for run in runs]

    estimate = stratified_batch_rate(
        simulate_stratum, weights, seed=seed,
        replications_per_stratum=replications_per_stratum)
    diagnostics = WeightDiagnostics.merge_many(pooled)
    diagnostics.check(min_ess_fraction=min_ess_fraction,
                      max_weight_share=max_weight_share)
    return AcceleratedRate(method="is", estimate=estimate,
                           diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Multilevel splitting over the scalar oracle's resolution chain.
# ---------------------------------------------------------------------------

#: Latent-state layout of one encounter resolution: three standard
#: normals (log-sight-distance, counterpart speed, perception fraction)
#: and three uniforms (cue, fault occupancy, perception miss).
_NORMAL_COORDS = (0, 1, 5)
_UNIFORM_COORDS = (2, 3, 4)
_STATE_DIM = 6
#: Kernel constants: Crank–Nicolson ρ, and the mod-1 walk's step.
_CN_RHO = 0.8
_CN_SCALE = math.sqrt(1.0 - _CN_RHO ** 2)
_UNIFORM_STEP = 0.12


@dataclass(frozen=True)
class SeverityChannel:
    """Near-miss severity of one (context, counterpart-class) channel.

    Maps a six-coordinate latent state — ``(z_sight, z_speed, u_cue,
    u_capability, u_miss, z_fraction)``, standard normals and uniforms —
    through *exactly* the scalar oracle's resolution chain
    (``simulator._resolve_encounter``): sample geometry, pick the ego
    speed via the tactical policy, resolve perception, and return the
    margin-to-collision score ``demanded / available`` deceleration.
    ``score(state) > 1`` reproduces the oracle's collision predicate
    decision for decision (both sides use strict ``>``), which is what
    makes the splitting estimate an estimate *of the oracle's* collision
    probability rather than of a surrogate's.

    The latent parameterisation (rather than the sampled values) is what
    gives the splitting mutation kernels exact invariance: standard
    normals move under Crank–Nicolson, uniforms under mod-1 random
    walks, and every discrete branch (cue, fault, missed detection)
    re-derives from its uniform.  :meth:`score` and :meth:`mutate` take
    states stacked on axis 0 (or one state) and treat rows independently.
    """

    context: str
    counterpart: ActorClass
    policy: TacticalPolicy
    perception: PerceptionModel
    braking: BrakingSystem
    sight_mu: float
    sight_sigma: float
    speed_mean_kmh: float
    speed_std_kmh: float
    rate_per_hour: float

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        """One latent state under the nominal encounter law."""
        state = np.empty(_STATE_DIM)
        state[list(_NORMAL_COORDS)] = rng.standard_normal(len(_NORMAL_COORDS))
        state[list(_UNIFORM_COORDS)] = rng.uniform(size=len(_UNIFORM_COORDS))
        return state

    def mutate(self, states: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """One invariant MCMC move of every state, driven by ``noise``.

        Normal coordinates take a Crank–Nicolson step ``z' = ρz +
        √(1−ρ²)ξ`` (exactly N(0,1)-invariant); uniform coordinates a
        mod-1 Gaussian random walk (circular convolution preserves
        U(0,1)).  Both kernels are reversible, so the splitting harness's
        reject-below-level wrapper leaves each conditional law invariant.
        ``noise`` holds standard normals of the states' shape; its
        columns feed coordinates 0, 1, 5, then 2, 3, 4.
        """
        out = np.empty_like(states)
        out[..., _NORMAL_COORDS] = (_CN_RHO * states[..., _NORMAL_COORDS]
                                    + _CN_SCALE * noise[..., :3])
        out[..., _UNIFORM_COORDS] = (states[..., _UNIFORM_COORDS]
                                     + _UNIFORM_STEP * noise[..., 3:]) % 1.0
        return out

    def score(self, states: np.ndarray) -> np.ndarray:
        """Margin-to-collision severity: demanded / available deceleration.

        0 when the conflict dissolves (non-positive closing speed);
        ``inf`` when the reaction roll-out alone consumes the detection
        distance.  Strictly above :data:`COLLISION_LEVEL` iff the scalar
        oracle would record a collision for the same draws (``np.exp``
        and squares may round an ulp off :mod:`math`'s scalar values).
        """
        z_sight, z_speed, u_cue, u_cap, u_miss, z_frac = states.T
        policy, perception, braking = \
            self.policy, self.perception, self.braking
        sight = np.maximum(np.exp(self.sight_mu + self.sight_sigma * z_sight),
                           SIGHT_DISTANCE_CLAMP_M)
        actual = braking.capability_array(
            u_cap < braking.degradation_occupancy)
        ego = policy.encounter_speed_ms_array(
            policy.target_speed_ms(self.context),
            u_cue < policy.cue_probability, sight,
            braking.known_capability_array(actual), braking.nominal_ms2)
        if self.counterpart in CROSSING_CLASSES:
            closing = ego
        else:
            speed_kmh = np.maximum(
                self.speed_mean_kmh + self.speed_std_kmh * z_speed, 0.0)
            closing = np.maximum(ego - kmh_to_ms(speed_kmh), 0.0)
        factor = perception.context_factor(self.context)
        detection = perception.detection_distance_array(
            sight, factor, u_miss < perception.miss_probability,
            perception.nominal_fraction * factor
            + perception.fraction_std * z_frac)
        return required_deceleration_array(
            closing, detection, policy.reaction_time_s) / actual


def severity_channels(policy: TacticalPolicy,
                      generator: EncounterGenerator,
                      perception: PerceptionModel,
                      braking: BrakingSystem,
                      context: str) -> Tuple[SeverityChannel, ...]:
    """One severity channel per active counterpart class of a context.

    Channel order follows :meth:`EncounterGenerator.active_classes`
    (sorted by class name) so seed assignment downstream is canonical.
    """
    profile = generator.profile(context)
    channels = []
    for counterpart in generator.active_classes(context):
        mean_d, std_d = profile.sight_distance_m[counterpart]
        mean_v, std_v = profile.counterpart_speed_kmh[counterpart]
        mu, sigma = _lognormal_params(mean_d, std_d)
        channels.append(SeverityChannel(
            context=context, counterpart=counterpart, policy=policy,
            perception=perception, braking=braking, sight_mu=mu,
            sight_sigma=sigma, speed_mean_kmh=mean_v, speed_std_kmh=std_v,
            rate_per_hour=profile.encounter_rates[counterpart]))
    return tuple(channels)


def _channel_seed(child: np.random.SeedSequence) -> int:
    return int(child.generate_state(1, np.uint64)[0])


def splitting_collision_rate(policy: TacticalPolicy,
                             generator: EncounterGenerator,
                             perception: PerceptionModel,
                             braking: BrakingSystem,
                             weights: Mapping[str, float],
                             *, seed: int,
                             runs: int = 8,
                             particles: int = 128,
                             mutations_per_level: int = 3,
                             level_fraction: float = 0.25,
                             max_levels: int = 12,
                             ) -> AcceleratedRate:
    """Multilevel-splitting collision rate across the exposure mix.

    Per context, the collision rate decomposes over counterpart classes
    as ``Σ_class λ_class · P(collision | encounter of class)`` (arrival
    rates and outcomes are independent given the class).  Each class
    probability is estimated by replicated multilevel splitting on its
    :class:`SeverityChannel`: a pilot run places the level ladder at
    adaptive quantiles ending exactly at :data:`COLLISION_LEVEL`, then
    ``runs`` independent splitting runs give a batch-means error bar.
    Class estimates combine by rate-weighted sum, standard errors in
    quadrature (independent seeds per (context, class)).

    Unlike the simulation-based estimators this targets *collisions
    only* — near-misses and induced incidents have no severity ladder —
    which is the quantity the safety-class budgets constrain.
    """
    from ..stats.rare_event import _validate_weights
    _validate_weights(weights)
    if runs < 2:
        raise ValueError("splitting needs >= 2 runs for an error bar")
    contexts = [c for c, w in sorted(weights.items()) if w > 0]
    if not contexts:
        raise ValueError("context mix has no positive weights")
    # Two independent seed children per (context, class): one for the
    # pilot ladder, one for the estimation runs.  Spawned in canonical
    # (sorted context, sorted class) order so the assignment is a pure
    # function of (seed, mix, profiles).
    channel_lists = {
        context: severity_channels(policy, generator, perception, braking,
                                   context)
        for context in contexts}
    total_channels = sum(len(chs) for chs in channel_lists.values())
    children = np.random.SeedSequence(seed).spawn(2 * total_channels)
    cursor = 0
    strata = []
    for context in contexts:
        rate_mean = 0.0
        rate_var = 0.0
        replications = 0
        for channel in channel_lists[context]:
            ladder_seed = _channel_seed(children[cursor])
            run_seed = _channel_seed(children[cursor + 1])
            cursor += 2
            callbacks = (channel.initial, channel.score, channel.mutate)
            levels = adaptive_levels(
                *callbacks, seed=ladder_seed, final_level=COLLISION_LEVEL,
                particles=particles, level_fraction=level_fraction,
                max_levels=max_levels,
                mutations_per_level=mutations_per_level)
            result = replicated_splitting(
                *callbacks, levels, seed=run_seed, runs=runs,
                particles=particles, mutations_per_level=mutations_per_level)
            rate_mean += channel.rate_per_hour * result.mean
            rate_var += (channel.rate_per_hour * result.std_error) ** 2
            replications = max(replications, result.replications)
        strata.append(StratumEstimate(
            context, float(weights[context]),
            MonteCarloResult(mean=rate_mean,
                             std_error=math.sqrt(rate_var),
                             replications=replications)))
    return AcceleratedRate(method="splitting",
                           estimate=StratifiedEstimate(tuple(strata)))


def accelerated_collision_rate(policy: TacticalPolicy,
                               generator: EncounterGenerator,
                               perception: PerceptionModel,
                               braking: BrakingSystem,
                               weights: Mapping[str, float],
                               *, accelerator: str,
                               seed: int,
                               tilt: Optional[ProposalTilt] = None,
                               replications_per_stratum: int
                               | Mapping[str, int] = 64,
                               hours_per_replication: float = 10.0,
                               config: Optional[SimulationConfig] = None,
                               runs: int = 8,
                               particles: int = 128,
                               ) -> AcceleratedRate:
    """Dispatch to one of :data:`ACCELERATORS` with shared defaults."""
    if accelerator not in ACCELERATORS:
        raise ValueError(f"unknown accelerator {accelerator!r}; "
                         f"choose from {ACCELERATORS}")
    if accelerator == "none":
        return naive_collision_rate(
            policy, generator, perception, braking, weights, seed=seed,
            replications_per_stratum=replications_per_stratum,
            hours_per_replication=hours_per_replication, config=config)
    if accelerator == "is":
        if tilt is None:
            raise ValueError("importance sampling needs a proposal tilt")
        return importance_collision_rate(
            policy, generator, perception, braking, weights, tilt=tilt,
            seed=seed, replications_per_stratum=replications_per_stratum,
            hours_per_replication=hours_per_replication, config=config)
    return splitting_collision_rate(
        policy, generator, perception, braking, weights, seed=seed,
        runs=runs, particles=particles)
