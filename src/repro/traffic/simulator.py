"""Monte-Carlo driving simulation: encounters → incidents.

The repository's substitute for fleet operation.  One simulation run
drives a tactical policy for a number of hours across a context mix,
resolves every generated encounter through perception + kinematics, and
records the incidents that result.  The outputs feed three arguments:

* incident-type rates for QRN verification (Sec. III / Eq. 1);
* the hard-braking-demand frequency as a function of policy proactivity —
  the Sec. II-B-3 exposure-circularity demonstration (benchmark E7);
* contribution splits grounded in simulated Δv distributions instead of
  expert judgement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.incident import IncidentRecord
from ..core.taxonomy import ActorClass
from ..obs.session import active_session, maybe_span
from ..stats.counting import CountedEvent, CountingLog
from .dynamics import kmh_to_ms, ms_to_kmh, resolve_braking
from .encounters import Encounter, EncounterGenerator
from .faults import BrakingSystem
from .perception import PerceptionModel
from .policy import TacticalPolicy
from .records import RecordBlock

__all__ = ["SimulationConfig", "SimulationResult", "simulate",
           "simulate_mix", "ENGINES"]

ENGINES = ("scalar", "vectorized")
"""Available encounter engines.  ``"scalar"`` resolves one encounter at
a time (the reference oracle, and the original RNG layout the scalar
goldens pin); ``"vectorized"`` is the structure-of-arrays hot path
(:mod:`.engine`) with its own documented per-(context × class)
sub-stream layout — statistically interchangeable, not bit-compatible."""


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")


def _record_sim_metrics(*, hours: float, encounters: int, incidents: int,
                        collisions: int, hard_demands: int) -> None:
    """Fold one completed run into the active telemetry session (if any).

    Called once per ``simulate``/``simulate_vectorized`` run — batch
    granularity, never per encounter (DESIGN §8).  A no-op (one global
    read, one ``None`` check) when telemetry is disabled, and RNG-free
    always.
    """
    session = active_session()
    if session is None:
        return
    metrics = session.metrics
    metrics.counter("sim.hours").inc(hours)
    metrics.counter("sim.encounters").inc(encounters)
    metrics.counter("sim.incidents").inc(incidents)
    metrics.counter("sim.collisions").inc(collisions)
    metrics.counter("sim.hard_braking_demands").inc(hard_demands)


@dataclass(frozen=True)
class SimulationConfig:
    """Tunables that are properties of the *analysis*, not the vehicle.

    ``near_miss_distance_m`` / ``near_miss_speed_kmh`` bound which
    non-collision outcomes are recorded as quality incidents (cf. the
    paper's I₁ margin); ``hard_braking_threshold_ms2`` is the demand level
    counted for the Sec. II-B-3 statistic (the paper's 4 m/s²).
    """

    near_miss_distance_m: float = 2.0
    near_miss_speed_kmh: float = 5.0
    hard_braking_threshold_ms2: float = 4.0
    follower_presence_probability: float = 0.3
    """Probability a hard ego stop happens with a follower close enough
    to be forced into an emergency manoeuvre — the induced incidents of
    Fig. 4's lower half."""

    def __post_init__(self) -> None:
        if self.near_miss_distance_m <= 0:
            raise ValueError("near-miss distance must be positive")
        if self.near_miss_speed_kmh < 0:
            raise ValueError("near-miss speed threshold must be >= 0")
        if self.hard_braking_threshold_ms2 <= 0:
            raise ValueError("hard-braking threshold must be positive")
        if not (0.0 <= self.follower_presence_probability <= 1.0):
            raise ValueError("follower presence must be in [0, 1]")


class SimulationResult:
    """Everything one run observed.

    ``records`` are the incidents (collisions and near-misses);
    ``hard_braking_demands`` counts encounters whose *physical* demand
    exceeded the config threshold, regardless of outcome;
    ``encounters_resolved`` the total conflict count (the exposure the
    tactical policy shaped).

    The incidents are stored as one columnar
    :class:`~repro.traffic.records.RecordBlock` (``record_block``).  A
    list of :class:`IncidentRecord` objects passed in (the scalar
    engine, a checkpoint load) is encoded once, here; ``records`` is
    the object view, decoded on first access and then cached.
    """

    __slots__ = ("policy_name", "hours", "context_hours",
                 "encounters_resolved", "hard_braking_demands",
                 "hard_braking_threshold_ms2", "record_block", "_records")

    def __init__(self, policy_name: str, hours: float,
                 context_hours: Dict[str, float],
                 records: "Iterable[IncidentRecord] | RecordBlock",
                 encounters_resolved: int, hard_braking_demands: int,
                 hard_braking_threshold_ms2: float) -> None:
        self.policy_name = policy_name
        self.hours = hours
        self.context_hours = context_hours
        self.encounters_resolved = encounters_resolved
        self.hard_braking_demands = hard_braking_demands
        self.hard_braking_threshold_ms2 = hard_braking_threshold_ms2
        self.record_block = (records if isinstance(records, RecordBlock)
                             else RecordBlock.from_records(records))
        self._records: Optional[List[IncidentRecord]] = None

    @property
    def records(self) -> List[IncidentRecord]:
        """The object view; materialised (and cached) on first access."""
        if self._records is None:
            self._records = self.record_block.to_records()
        return self._records

    @property
    def num_records(self) -> int:
        """Record count without materialising the object view."""
        return len(self.record_block)

    def collision_count(self) -> int:
        """Collision count without materialising the object view."""
        return self.record_block.collision_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (self.policy_name == other.policy_name
                and self.hours == other.hours
                and self.context_hours == other.context_hours
                and self.encounters_resolved == other.encounters_resolved
                and self.hard_braking_demands == other.hard_braking_demands
                and self.hard_braking_threshold_ms2
                == other.hard_braking_threshold_ms2
                and self.record_block == other.record_block)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"SimulationResult(policy_name={self.policy_name!r}, "
                f"hours={self.hours!r}, "
                f"context_hours={self.context_hours!r}, "
                f"records=<{self.num_records} records>, "
                f"encounters_resolved={self.encounters_resolved!r}, "
                f"hard_braking_demands={self.hard_braking_demands!r}, "
                f"hard_braking_threshold_ms2="
                f"{self.hard_braking_threshold_ms2!r})")

    def replaced(self, **changes: object) -> "SimulationResult":
        """A copy with named constructor arguments replaced
        (``dataclasses.replace`` for the slotted result)."""
        kwargs: Dict[str, object] = {
            "policy_name": self.policy_name,
            "hours": self.hours,
            "context_hours": self.context_hours,
            "records": self.record_block,
            "encounters_resolved": self.encounters_resolved,
            "hard_braking_demands": self.hard_braking_demands,
            "hard_braking_threshold_ms2": self.hard_braking_threshold_ms2,
        }
        unknown = set(changes) - set(kwargs)
        if unknown:
            raise TypeError(f"unknown result fields {sorted(unknown)}")
        kwargs.update(changes)
        return SimulationResult(**kwargs)  # type: ignore[arg-type]

    # -- accessors ---------------------------------------------------------

    def collisions(self) -> List[IncidentRecord]:
        return [r for r in self.records if r.is_collision]

    def near_misses(self) -> List[IncidentRecord]:
        return [r for r in self.records if not r.is_collision]

    def collision_rate_per_hour(self) -> float:
        return self.collision_count() / self.hours

    def hard_braking_rate_per_hour(self) -> float:
        """The Sec. II-B-3 observable: demand > threshold, per hour."""
        return self.hard_braking_demands / self.hours

    def counting_log(self, categorise) -> CountingLog:
        """Convert to a :class:`CountingLog` using a record→category map.

        ``categorise(record)`` returns a category string or ``None`` to
        skip the record.  Typically built from incident types via
        :func:`repro.core.incident.classify_records` semantics.
        """
        log = CountingLog(self.hours)
        for record in self.records:
            category = categorise(record)
            if category is None:
                continue
            log.record(CountedEvent(category, min(record.time_h, self.hours),
                                    record.context))
        return log

    @classmethod
    def merge_many(cls, results: Iterable["SimulationResult"],
                   ) -> "SimulationResult":
        """Pool any number of runs of the same policy, order-independently.

        The merge is **associative and commutative**: records carry
        absolute time stamps (chunks are stamped at generation time via
        ``time_offset_h``), so pooling concatenates and canonically sorts
        them instead of shifting; scalar exposures are summed with
        ``math.fsum`` (correctly rounded, hence input-order invariant);
        event counts are exact integer sums.  This is the property the
        parallel fleet runner relies on to be bit-for-bit identical for
        any worker count, and :mod:`tests.stats.test_parallel` enforces
        it over shuffled chunk orders.
        """
        results = list(results)
        if not results:
            raise ValueError("merge_many needs at least one result")
        first = results[0]
        for other in results[1:]:
            if other.policy_name != first.policy_name:
                raise ValueError(
                    f"cannot merge runs of policies {first.policy_name!r} "
                    f"and {other.policy_name!r}")
            if other.hard_braking_threshold_ms2 != \
                    first.hard_braking_threshold_ms2:
                raise ValueError(
                    "cannot merge runs with different demand thresholds")
        context_values: Dict[str, List[float]] = {}
        for result in results:
            for context, hours in result.context_hours.items():
                context_values.setdefault(context, []).append(hours)
        context_hours = {context: math.fsum(values)
                         for context, values in sorted(context_values.items())}
        return cls(
            policy_name=first.policy_name,
            hours=math.fsum(r.hours for r in results),
            context_hours=context_hours,
            records=RecordBlock.concat(
                [result.record_block for result in results]).canonical_sort(),
            encounters_resolved=sum(r.encounters_resolved for r in results),
            hard_braking_demands=sum(r.hard_braking_demands for r in results),
            hard_braking_threshold_ms2=first.hard_braking_threshold_ms2,
        )

    def merged(self, other: "SimulationResult") -> "SimulationResult":
        """Pool two runs of the same policy (exposures add).

        Commutative: ``a.merged(b)`` equals ``b.merged(a)`` field for
        field (see :meth:`merge_many` for why).
        """
        return SimulationResult.merge_many([self, other])


def _closing_speed_ms(ego_speed_ms: float, encounter: Encounter) -> float:
    """Relative speed along the conflict course.

    Crossing actors (VRU, animal) and static objects block the ego's path:
    the closing speed is the ego's own speed.  Same-direction traffic
    (cars, trucks, other) closes at the speed difference; a non-positive
    difference dissolves the conflict.
    """
    if encounter.counterpart in (ActorClass.VRU, ActorClass.ANIMAL,
                                 ActorClass.STATIC_OBJECT):
        return ego_speed_ms
    return max(ego_speed_ms - kmh_to_ms(encounter.counterpart_speed_kmh), 0.0)


def _resolve_encounter(encounter: Encounter, policy: TacticalPolicy,
                       perception: PerceptionModel, braking: BrakingSystem,
                       config: SimulationConfig,
                       rng: np.random.Generator,
                       time_offset_h: float = 0.0,
                       ) -> Tuple[Optional[IncidentRecord], bool]:
    """Resolve one encounter; returns (incident or None, hard_demand_flag).

    ``time_offset_h`` shifts record stamps onto the caller's global
    timeline (the encounter's own stamp is chunk-local).
    """
    actual_capability = braking.sample_capability(rng)
    known_capability = braking.known_capability(actual_capability)
    ego_speed = policy.encounter_speed_ms(
        encounter.context, encounter.cue_available,
        encounter.sight_distance_m, known_capability, braking.nominal_ms2)
    closing = _closing_speed_ms(ego_speed, encounter)
    if closing <= 0.0:
        return None, False
    detection = perception.detection_distance(
        encounter.sight_distance_m, encounter.context, rng)
    comfort = min(policy.comfort_braking_ms2, actual_capability)
    outcome = resolve_braking(
        speed_ms=closing,
        distance_m=detection,
        comfort_deceleration=comfort,
        max_deceleration=actual_capability,
        reaction_time_s=policy.reaction_time_s,
    )
    hard_demand = (math.isfinite(outcome.demanded_deceleration)
                   and outcome.demanded_deceleration
                   > config.hard_braking_threshold_ms2) or \
        math.isinf(outcome.demanded_deceleration)
    if outcome.collided:
        return IncidentRecord(
            counterpart=encounter.counterpart,
            is_collision=True,
            delta_v_kmh=ms_to_kmh(outcome.impact_speed_ms),
            min_distance_m=0.0,
            approach_speed_kmh=ms_to_kmh(closing),
            time_h=encounter.time_h + time_offset_h,
            context=encounter.context,
        ), hard_demand
    near_miss = (outcome.stop_margin_m < config.near_miss_distance_m
                 and ms_to_kmh(closing) > config.near_miss_speed_kmh)
    if near_miss:
        return IncidentRecord(
            counterpart=encounter.counterpart,
            is_collision=False,
            delta_v_kmh=0.0,
            min_distance_m=max(outcome.stop_margin_m, 1e-3),
            approach_speed_kmh=ms_to_kmh(closing),
            time_h=encounter.time_h + time_offset_h,
            context=encounter.context,
        ), hard_demand
    return None, hard_demand


def simulate(policy: TacticalPolicy,
             generator: EncounterGenerator,
             perception: PerceptionModel,
             braking: BrakingSystem,
             context: str,
             hours: float,
             rng: np.random.Generator,
             config: Optional[SimulationConfig] = None,
             *,
             time_offset_h: float = 0.0,
             engine: str = "scalar") -> SimulationResult:
    """Drive ``hours`` in one context and record incidents.

    ``time_offset_h`` places this run's records on a global fleet
    timeline (record stamps become ``offset + local time``); exposure
    bookkeeping (``hours``) is unaffected.  The parallel fleet runner
    uses it so chunk results can be pooled without re-stamping.

    ``engine`` selects the resolution path (see :data:`ENGINES`).  The
    two engines draw the same distributions through different RNG
    layouts, so their runs agree statistically, not bit-for-bit —
    :mod:`tests.traffic.test_engine_equivalence` pins both properties.
    """
    _check_engine(engine)
    if engine == "vectorized":
        from .engine import simulate_vectorized
        return simulate_vectorized(policy, generator, perception, braking,
                                   context, hours, rng, config,
                                   time_offset_h=time_offset_h)
    if config is None:
        config = SimulationConfig()
    if time_offset_h < 0 or not math.isfinite(time_offset_h):
        raise ValueError(f"time offset must be finite and >= 0, got {time_offset_h}")
    with maybe_span("simulate.scalar"):
        encounters = generator.generate(context, hours,
                                        policy.cue_probability, rng)
        records: List[IncidentRecord] = []
        hard_demands = 0
        for encounter in encounters:
            record, hard = _resolve_encounter(encounter, policy, perception,
                                              braking, config, rng,
                                              time_offset_h)
            if hard:
                hard_demands += 1
                # Fig. 4's lower half: a hard ego stop with a close follower
                # induces an incident between third parties (here: the
                # follower's emergency manoeuvre behind the ego).
                if rng.uniform() < config.follower_presence_probability:
                    records.append(IncidentRecord(
                        counterpart=ActorClass.CAR,
                        is_collision=False,
                        min_distance_m=float(rng.uniform(0.3, 4.0)),
                        approach_speed_kmh=float(rng.uniform(10.0, 60.0)),
                        time_h=encounter.time_h + time_offset_h,
                        context=context,
                        induced=True,
                    ))
            if record is not None:
                records.append(record)
        result = SimulationResult(
            policy_name=policy.name,
            hours=hours,
            context_hours={context: hours},
            records=records,
            encounters_resolved=len(encounters),
            hard_braking_demands=hard_demands,
            hard_braking_threshold_ms2=config.hard_braking_threshold_ms2,
        )
        _record_sim_metrics(
            hours=hours, encounters=result.encounters_resolved,
            incidents=result.num_records,
            collisions=result.collision_count(),
            hard_demands=hard_demands)
        return result


def _split_hours(hours: float, weights: Sequence[float]) -> List[float]:
    """Split ``hours`` by ``weights`` such that the parts sum back exactly.

    Naive ``hours * w`` parts can drop (or double-count) a few ulps of
    exposure when the weights don't divide ``hours`` evenly in binary —
    enough to make exposure bookkeeping (``sum(context_hours) == hours``)
    silently false.  The last part is therefore the exact remainder, with
    an ulp-correction loop so the *sequential* float sum of the returned
    parts reproduces ``hours`` bit-for-bit.
    """
    parts = [hours * w for w in weights[:-1]]
    last = hours - math.fsum(parts)
    for _ in range(8):
        total = 0.0
        for p in parts:
            total += p
        total += last
        if total == hours:
            break
        last += hours - total
    if last <= 0 or not math.isfinite(last):
        raise ValueError(
            f"context mix leaves no exposure for the final context "
            f"(remainder {last}); weights too small relative to float "
            f"precision")
    return parts + [last]


def simulate_mix(policy: TacticalPolicy,
                 generator: EncounterGenerator,
                 perception: PerceptionModel,
                 braking: BrakingSystem,
                 mix: Mapping[str, float],
                 hours: float,
                 rng: np.random.Generator,
                 config: Optional[SimulationConfig] = None,
                 *,
                 time_offset_h: float = 0.0,
                 engine: str = "scalar") -> SimulationResult:
    """Drive ``hours`` split across a context mix (weights sum to 1).

    Contexts are laid out back to back on one timeline (in sorted
    context order); exposure splitting is exact — the per-context hours
    sum back to ``hours`` bit-for-bit even for weights that don't divide
    it evenly (see :func:`_split_hours`).  ``time_offset_h`` shifts the
    whole run on a global fleet timeline, for chunked parallel execution.
    ``engine`` selects the per-context resolution path (:data:`ENGINES`).
    """
    _check_engine(engine)
    if not mix:
        raise ValueError("context mix must be non-empty")
    total = sum(mix.values())
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        raise ValueError(f"context mix must sum to 1, got {total}")
    if any(w < 0 for w in mix.values()):
        raise ValueError("context weights must be >= 0")
    contexts = [(c, w) for c, w in sorted(mix.items()) if w > 0.0]
    if not contexts:
        raise ValueError("context mix has no positive weights")
    part_hours = _split_hours(hours, [w for _, w in contexts])
    parts: List[SimulationResult] = []
    offset = time_offset_h
    with maybe_span("simulate_mix"):
        for (context, _), ctx_hours in zip(contexts, part_hours):
            parts.append(simulate(policy, generator, perception, braking,
                                  context, ctx_hours, rng, config,
                                  time_offset_h=offset, engine=engine))
            offset += ctx_hours
    # Construct directly (rather than via merge_many) so the result's
    # total is the *requested* hours bit-for-bit, not a re-summation.
    return SimulationResult(
        policy_name=policy.name,
        hours=hours,
        context_hours={context: ctx_hours
                       for (context, _), ctx_hours in zip(contexts, part_hours)},
        records=RecordBlock.concat(
            [part.record_block for part in parts]).canonical_sort(),
        encounters_resolved=sum(p.encounters_resolved for p in parts),
        hard_braking_demands=sum(p.hard_braking_demands for p in parts),
        hard_braking_threshold_ms2=parts[0].hard_braking_threshold_ms2,
    )
