"""Vectorized structure-of-arrays encounter engine.

The per-core hot path behind fleet-scale QRN verification.  The scalar
simulator (:mod:`.simulator`) resolves encounters one Python object at a
time — transparent, and kept as the reference oracle — but the sample
sizes that quantitative acceptance criteria demand (cf. de Gelder &
Op den Camp; Putze et al.) need the per-core path to be array code.  This
engine samples every draw whole-array per (context × counterpart class)
group and materialises no :class:`~repro.core.incident.IncidentRecord`
objects: the incidents come back as one columnar
:class:`~repro.traffic.records.RecordBlock`.

What stays per stream and what is fused.  Each (context × class) group
keeps its own RNG sub-stream and makes every one of its draws there, in
the order below.  Everything that draws nothing — the kinematics, the
outcome masks and the record assembly — runs once per *pass* over all
groups of a call: one per ``simulate_mix(engine="vectorized")`` call
(one fleet chunk, every context), one per :func:`simulate_vectorized`
context, and one per importance pass — :func:`simulate_importance_stratum`
gathers consecutive replications of one context, each on its own
generator, until a pass holds about :data:`_PASS_ENCOUNTERS` encounters.
Per-group constants (the context's target speed, perception factor and
timeline offset; the class's crossing flag and code) become per-row
arrays, and every operation of the pass is elementwise, so a row's
values do not depend on which groups share its pass.

RNG sub-stream layout (the engine's determinism contract, also in
DESIGN §6):

* ``simulate(engine="vectorized")`` spawns **one child generator per
  active counterpart class** of the context, in the canonical order of
  :meth:`EncounterGenerator.active_classes` (sorted by class name).
* On its own sub-stream, each class group draws, whole-array and in this
  fixed order: Poisson count → arrival times → sight distances →
  counterpart speeds → cue uniforms (generation,
  :meth:`EncounterGenerator.sample_class_batch`); then capability
  uniforms → perception miss uniforms → perception fraction normals
  (resolution); then one follower uniform per hard-braking demand and
  one distance + one speed uniform per induced incident.
* Because every draw is whole-array on a private sub-stream, the results
  are a pure function of ``(seed, context, hours, class set)`` — no
  internal batching, chunking, or vector width can change them.

The draw *order* necessarily differs from the scalar path (which
interleaves classes by arrival time and skips draws branch-by-branch),
so scalar and vectorized runs of one seed are statistically — not
bitwise — equal; :mod:`tests.traffic.test_engine_equivalence` enforces
both that statistical agreement and exact record-level agreement on
single-encounter batches, where the layouts coincide.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from dataclasses import dataclass, field

from ..core.taxonomy import ActorClass
from ..obs.session import active_session, maybe_span
from ..stats.importance import WeightDiagnostics, bernoulli_log_ratio
from .dynamics import kmh_to_ms, ms_to_kmh, resolve_braking_arrays
from .encounters import (ContextProfile, EncounterBatch, EncounterGenerator,
                         ProposalTilt, encounter_log_weights)
from .faults import BrakingSystem
from .perception import PerceptionModel
from .policy import TacticalPolicy

from .records import RECORD_DTYPE, RecordBlock, actor_code

__all__ = ["ClassStream", "resolve_batch", "resolve_block_traced",
           "simulate_vectorized", "simulate_importance",
           "simulate_importance_stratum", "ImportanceRun", "CROSSING_CLASSES"]

CROSSING_CLASSES = frozenset({ActorClass.VRU, ActorClass.ANIMAL,
                              ActorClass.STATIC_OBJECT})
"""Classes that block the ego's path: the closing speed is the ego's own
speed.  Same-direction traffic closes at the speed difference."""


class ClassStream(NamedTuple):
    """One (context × class) group of a pass.

    ``batch`` is the group's sampled encounters, ``rng`` its own
    sub-stream, already advanced past the generation draws, and
    ``time_offset_h`` where its context starts on the run's timeline.
    """

    batch: EncounterBatch
    rng: np.random.Generator
    time_offset_h: float


def _sample_streams(generator: EncounterGenerator,
                    parts: Sequence[Tuple[str, float, float]],
                    cue_probability: float,
                    rng: np.random.Generator) -> List[ClassStream]:
    """Sample every (context × class) group of ``parts`` on its stream.

    ``parts`` lists ``(context, hours, time offset)``.  Each context
    spawns one child of ``rng`` per active class, in canonical class
    order, and draws that class's batch on it.
    """
    streams: List[ClassStream] = []
    for context, hours, time_offset_h in parts:
        classes = generator.active_classes(context)
        children = rng.spawn(len(classes)) if classes else []
        for counterpart, child in zip(classes, children):
            batch = generator.sample_class_batch(
                context, counterpart, hours, cue_probability, child)
            streams.append(ClassStream(batch, child, time_offset_h))
    return streams


def resolve_batch(batch: EncounterBatch, policy: TacticalPolicy,
                  perception: PerceptionModel, braking: BrakingSystem,
                  config: "SimulationConfig",
                  rng: np.random.Generator,
                  time_offset_h: float = 0.0,
                  ) -> Tuple[RecordBlock, int]:
    """Resolve one (context, class) batch; returns (block, hard demands).

    A one-group pass of :func:`resolve_block_traced`; ``rng`` is the
    batch's own sub-stream, already advanced past the generation draws.
    The block is unsorted (the caller canonicalises).
    """
    block, _, _, hard = resolve_block_traced(
        [ClassStream(batch, rng, time_offset_h)], policy, perception,
        braking, config)
    return block, int(np.count_nonzero(hard))


def resolve_block_traced(streams: Sequence[ClassStream],
                         policy: TacticalPolicy,
                         perception: PerceptionModel,
                         braking: BrakingSystem,
                         config: "SimulationConfig",
                         ) -> Tuple[RecordBlock, np.ndarray,
                                    np.ndarray, np.ndarray]:
    """Resolve every group of ``streams`` in one pass, with provenance.

    Returns ``(block, sources, degraded, hard)``.  The block is
    unsorted, laid out group by group as [collisions | near-misses |
    induced], each in encounter order, so sorting it gives what sorting
    the per-group blocks together would.  ``sources`` maps each row to
    the pass index (groups concatenated in order) of the encounter that
    produced it — an induced incident's hard-stopping encounter.
    ``degraded`` and ``hard`` are per-encounter masks in pass order: the
    fault state, and whether the encounter demanded hard braking.  The
    importance sampler weights records and reweights tilted fault
    occupancies with them.
    """
    n = sum(len(stream.batch) for stream in streams)
    session = active_session()
    if session is not None:
        session.metrics.counter("engine.batches").inc()
        session.metrics.histogram("engine.batch_size").observe(n)
    if n == 0:
        return (RecordBlock.empty(), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool), np.zeros(0, dtype=bool))
    with maybe_span("resolve_batch"):
        return _resolve_pass(
            [stream for stream in streams if len(stream.batch)],
            policy, perception, braking, config)


def _draw_per_stream(streams: Sequence[ClassStream], row_stream: np.ndarray,
                     draw) -> list:
    """``draw(rng, k)`` on every stream owning k > 0 of the given rows,
    in stream order (``row_stream`` names each row's stream)."""
    counts = np.bincount(row_stream, minlength=len(streams)).tolist()
    return [draw(stream.rng, k) for stream, k in zip(streams, counts) if k]


def _resolve_pass(streams: Sequence[ClassStream], policy: TacticalPolicy,
                  perception: PerceptionModel, braking: BrakingSystem,
                  config: "SimulationConfig",
                  ) -> Tuple[RecordBlock, np.ndarray, np.ndarray, np.ndarray]:
    batches = [stream.batch for stream in streams]
    contexts = sorted({batch.context for batch in batches})
    row_stream = np.repeat(np.arange(len(batches)),
                           [len(batch) for batch in batches])

    def spread(values, rows: np.ndarray, dtype=np.float64) -> np.ndarray:
        """One value per group, read out for rows of known group."""
        return np.array(values, dtype=dtype)[rows]

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(batch, name) for batch in batches])

    # Resolution draws, each group on its own stream in the documented
    # order: fault states, then perception miss flags and fractions.
    draws = [(braking.sample_degraded_array(stream.rng, len(stream.batch)),
              *perception.sample_detection_array(
                  stream.rng, len(stream.batch), stream.batch.context))
             for stream in streams]
    degraded, missed, nominal = (np.concatenate(column)
                                 for column in zip(*draws))

    sight = joined("sight_distance_m")
    actual_capability = braking.capability_array(degraded)
    detection = perception.detection_distance_array(
        sight, spread([perception.context_factor(batch.context)
                       for batch in batches], row_stream), missed, nominal)
    known_capability = braking.known_capability_array(actual_capability)
    ego_speed = policy.encounter_speed_ms_array(
        spread([policy.target_speed_ms(batch.context) for batch in batches],
               row_stream),
        joined("cue_available"), sight, known_capability,
        braking.nominal_ms2)
    closing = np.where(
        spread([batch.counterpart in CROSSING_CLASSES for batch in batches],
               row_stream, bool),
        ego_speed,
        np.maximum(ego_speed - kmh_to_ms(joined("counterpart_speed_kmh")),
                   0.0))
    active = closing > 0.0

    comfort = np.minimum(policy.comfort_braking_ms2, actual_capability)
    outcome = resolve_braking_arrays(
        speed_ms=closing,
        distance_m=detection,
        comfort_deceleration=comfort,
        max_deceleration=actual_capability,
        reaction_time_s=policy.reaction_time_s,
    )
    # demanded > threshold covers the scalar path's isinf clause: an
    # infinite demand compares greater than any finite threshold.
    hard = active & (outcome.demanded_deceleration
                     > config.hard_braking_threshold_ms2)
    collided = active & outcome.collided
    closing_kmh = ms_to_kmh(closing)
    near_miss = (active & ~outcome.collided
                 & (outcome.stop_margin_m < config.near_miss_distance_m)
                 & (closing_kmh > config.near_miss_speed_kmh))

    # Fig. 4's lower half: a hard ego stop with a close follower induces
    # an incident between third parties.  Per group, one uniform per hard
    # demand, then one distance and one speed uniform per induced
    # incident.
    hard_indices = np.flatnonzero(hard)
    induced_indices = np.zeros(0, dtype=np.int64)
    induced_distance = induced_speed = np.zeros(0)
    if hard_indices.size:
        follower = np.concatenate(_draw_per_stream(
            streams, row_stream[hard_indices],
            lambda rng, k: rng.uniform(size=k))) \
            < config.follower_presence_probability
        induced_indices = hard_indices[follower]
        if induced_indices.size:
            induced_distance, induced_speed = (
                np.concatenate(column) for column in zip(*_draw_per_stream(
                    streams, row_stream[induced_indices],
                    lambda rng, k: (rng.uniform(0.3, 4.0, size=k),
                                    rng.uniform(10.0, 60.0, size=k)))))

    # Columnar assembly, [collisions | near-misses | induced] over the
    # pass, then a stable sort by group into the per-group layout.
    coll_idx = np.flatnonzero(collided)
    miss_idx = np.flatnonzero(near_miss)
    n_coll = int(coll_idx.size)
    n_detected = n_coll + int(miss_idx.size)
    sources = np.concatenate([coll_idx, miss_idx, induced_indices])
    record_stream = row_stream[sources]
    rows = np.empty(sources.size, dtype=RECORD_DTYPE)
    rows["counterpart"] = spread(
        [actor_code(batch.counterpart) for batch in batches], record_stream,
        np.uint8)
    rows["counterpart"][n_detected:] = actor_code(ActorClass.CAR)
    rows["is_collision"] = False
    rows["is_collision"][:n_coll] = True
    rows["delta_v_kmh"] = 0.0
    rows["delta_v_kmh"][:n_coll] = ms_to_kmh(
        outcome.impact_speed_ms[coll_idx])
    rows["min_distance_m"][:n_coll] = 0.0
    rows["min_distance_m"][n_coll:n_detected] = np.maximum(
        outcome.stop_margin_m[miss_idx], 1e-3)
    rows["min_distance_m"][n_detected:] = induced_distance
    rows["approach_speed_kmh"][:n_detected] = \
        closing_kmh[sources[:n_detected]]
    rows["approach_speed_kmh"][n_detected:] = induced_speed
    rows["time_h"] = joined("time_h")[sources] + spread(
        [stream.time_offset_h for stream in streams], record_stream)
    rows["context"] = spread(
        [contexts.index(batch.context) for batch in batches], record_stream,
        np.uint16)
    rows["induced"] = False
    rows["induced"][n_detected:] = True
    layout = np.argsort(record_stream, kind="stable")
    return (RecordBlock(rows[layout], contexts), sources[layout], degraded,
            hard)


def _check_part(hours: float, time_offset_h: float) -> None:
    if time_offset_h < 0 or not math.isfinite(time_offset_h):
        raise ValueError(
            f"time offset must be finite and >= 0, got {time_offset_h}")
    if hours <= 0 or not math.isfinite(hours):
        raise ValueError(f"hours must be positive and finite, got {hours}")


def _simulate_pass(policy: TacticalPolicy, generator: EncounterGenerator,
                   perception: PerceptionModel, braking: BrakingSystem,
                   parts: Sequence[Tuple[str, float, float]], hours: float,
                   rng: np.random.Generator,
                   config: Optional["SimulationConfig"],
                   ) -> "SimulationResult":
    """One vectorized run over back-to-back context ``parts``.

    ``parts`` lists ``(context, hours, time offset)``; ``hours`` is the
    run's total exposure, stored as given.  Every (context × class)
    group is sampled on its own stream and all are resolved in one pass.
    """
    from .simulator import (SimulationConfig, SimulationResult,
                            _record_sim_metrics)
    if config is None:
        config = SimulationConfig()
    for _, part_hours, time_offset_h in parts:
        _check_part(part_hours, time_offset_h)
    streams = _sample_streams(generator, parts, policy.cue_probability, rng)
    block, _, _, hard = resolve_block_traced(
        streams, policy, perception, braking, config)
    block = block.canonical_sort()
    hard_demands = int(np.count_nonzero(hard))
    encounters_resolved = sum(len(stream.batch) for stream in streams)
    _record_sim_metrics(
        context_hours=[part_hours for _, part_hours, _ in parts],
        encounters=encounters_resolved, incidents=len(block),
        collisions=block.collision_count, hard_demands=hard_demands)
    return SimulationResult(
        policy_name=policy.name,
        hours=hours,
        context_hours={context: part_hours
                       for context, part_hours, _ in parts},
        records=block,
        encounters_resolved=encounters_resolved,
        hard_braking_demands=hard_demands,
        hard_braking_threshold_ms2=config.hard_braking_threshold_ms2,
    )


def simulate_vectorized(policy: TacticalPolicy,
                        generator: EncounterGenerator,
                        perception: PerceptionModel,
                        braking: BrakingSystem,
                        context: str,
                        hours: float,
                        rng: np.random.Generator,
                        config: Optional["SimulationConfig"] = None,
                        *,
                        time_offset_h: float = 0.0) -> "SimulationResult":
    """Vectorized :func:`~repro.traffic.simulator.simulate`.

    Statistically interchangeable with the scalar engine but with a
    different, documented RNG layout (module docstring) — use one engine
    consistently within a campaign.  The incident stream stays columnar
    end to end (``result.record_block``, in canonical order); no
    :class:`IncidentRecord` object exists until ``result.records`` is
    first touched.
    """
    with maybe_span("simulate.vectorized"):
        return _simulate_pass(policy, generator, perception, braking,
                              [(context, hours, time_offset_h)], hours, rng,
                              config)


@dataclass
class ImportanceRun:
    """One importance-sampled run: proposal-law output plus weights.

    ``result`` holds the raw *proposal-law* observations (its counts and
    rates are NOT nominal-law estimates); ``record_weights`` aligns row
    for row with ``result.record_block`` (and so with ``result.records``)
    and carries each record's likelihood-ratio weight, so
    ``Σ w·1[condition]`` is an unbiased nominal-law count estimate.
    ``diagnostics`` pools the weights of **all** proposal encounters (not
    only those that became records) — the ensemble whose effective sample
    size certifies the tilt.
    """

    result: "SimulationResult"
    record_weights: np.ndarray
    diagnostics: WeightDiagnostics = field(default_factory=WeightDiagnostics)

    def __post_init__(self) -> None:
        if len(self.record_weights) != self.result.num_records:
            raise ValueError(
                f"{len(self.record_weights)} weights for "
                f"{self.result.num_records} records")

    def weighted_collision_count(self) -> float:
        # A left-to-right Python sum, not np.sum's pairwise one: pinned
        # IS estimates depend on the summation order.
        collided = self.result.record_block.array["is_collision"]
        return float(sum(self.record_weights[collided].tolist()))

    def weighted_collision_rate_per_hour(self) -> float:
        """Unbiased nominal-law collision rate from this run."""
        return self.weighted_collision_count() / self.result.hours


#: Encounters an importance pass gathers before it resolves (DESIGN §7).
#: Replications join a pass until it holds this many, at least one each:
#: enough that the per-pass overhead is paid once per several
#: replications, few enough that a pass's arrays stay near a megabyte
#: (a whole 128-replication stratum in one pass raised an estimator
#: process's peak RSS by about a fifth).  No result depends on the value.
_PASS_ENCOUNTERS = 4096


def simulate_importance(policy: TacticalPolicy,
                        generator: EncounterGenerator,
                        perception: PerceptionModel,
                        braking: BrakingSystem,
                        context: str,
                        hours: float,
                        rng: np.random.Generator,
                        config: Optional["SimulationConfig"] = None,
                        *,
                        tilt: ProposalTilt,
                        time_offset_h: float = 0.0) -> ImportanceRun:
    """:func:`simulate_vectorized` under a proposal tilt, with weights.

    The one-replication case of :func:`simulate_importance_stratum`.
    ``generator`` is the *nominal* generator; sampling happens under
    ``generator.tilted(tilt)`` with the identical RNG sub-stream layout
    (one child per active class, same canonical order — positive rates
    stay positive under any tilt, so the class set and stream assignment
    match the nominal engine exactly).  A ``degradation_scale`` tilt runs
    the resolution under a braking system with the scaled fault
    occupancy and folds the exact Bernoulli ratio of each realised fault
    state into that encounter's weight.  Every record carries the
    Campbell weight of its source encounter (induced incidents inherit
    the weight of the encounter whose hard stop triggered them).

    With the identity tilt this is bit-for-bit :func:`simulate_vectorized`
    — same records, same draws — with every weight exactly 1.0.
    """
    run, = simulate_importance_stratum(
        policy, generator, perception, braking, context, hours, [rng],
        config, tilt=tilt, time_offset_h=time_offset_h)
    return run


def simulate_importance_stratum(policy: TacticalPolicy,
                                generator: EncounterGenerator,
                                perception: PerceptionModel,
                                braking: BrakingSystem,
                                context: str,
                                hours: float,
                                rngs: Sequence[np.random.Generator],
                                config: Optional["SimulationConfig"] = None,
                                *,
                                tilt: ProposalTilt,
                                time_offset_h: float = 0.0,
                                ) -> List[ImportanceRun]:
    """:func:`simulate_importance` once per generator of ``rngs``.

    Run ``i`` is bit-for-bit what a run on ``rngs[i]`` alone returns: it
    draws on its own generator in the engine's stream layout, and its
    records, weights and diagnostics are those of a run of its own.  The
    tilted generator and braking system are built once per call.  The
    replications are gathered, in order, into passes of about
    :data:`_PASS_ENCOUNTERS` encounters; each pass is one
    :func:`resolve_block_traced` call, one ``simulate.importance`` span
    and one set of ``sim.*`` increments.
    """
    from .simulator import SimulationConfig
    if config is None:
        config = SimulationConfig()
    _check_part(hours, time_offset_h)
    proposal = generator.tilted(tilt)
    # Constructing the tilted system validates occupancy <= 1 up front.
    proposal_braking = braking.with_occupancy(
        braking.degradation_occupancy * tilt.degradation_scale)
    nominal_profile = generator.profile(context)
    part = [(context, hours, time_offset_h)]
    runs: List[ImportanceRun] = []
    while len(runs) < len(rngs):
        with maybe_span("simulate.importance"):
            replications: List[List[ClassStream]] = []
            encounters = 0
            for rng in rngs[len(runs):]:
                replications.append(_sample_streams(
                    proposal, part, policy.cue_probability, rng))
                encounters += sum(len(stream.batch)
                                  for stream in replications[-1])
                if encounters >= _PASS_ENCOUNTERS:
                    break
            runs += _importance_pass(replications, policy, perception,
                                     braking, proposal_braking, config,
                                     nominal_profile, tilt, hours)
    return runs


def _importance_pass(replications: Sequence[Sequence[ClassStream]],
                     policy: TacticalPolicy, perception: PerceptionModel,
                     braking: BrakingSystem, proposal_braking: BrakingSystem,
                     config: "SimulationConfig",
                     nominal_profile: ContextProfile, tilt: ProposalTilt,
                     hours: float) -> List[ImportanceRun]:
    """Resolve and weight one pass; one run per replication, in order.

    What is elementwise runs once over the pass: the resolution, each
    class's log-weights (one :func:`encounter_log_weights` call over the
    class's batches of every replication), the fault-state ratio and
    ``np.exp``.  What is a reduction stays per (replication × class)
    group: each group's diagnostics come from its own slice and merge in
    class order, as in a run of its own.  One stable sort, replication
    first and :meth:`RecordBlock.canonical_keys` after, orders every
    replication's rows as its own canonical sort would.
    """
    from .simulator import SimulationResult, _record_sim_metrics
    streams = [stream for replication in replications
               for stream in replication]
    block, sources, degraded, hard = resolve_block_traced(
        streams, policy, perception, proposal_braking, config)
    # Every replication has the same classes, in canonical order.
    classes = len(replications[0])
    sizes = [len(stream.batch) for stream in streams]
    stream_class = np.repeat(np.tile(np.arange(classes), len(replications)),
                             sizes)
    log_weights = np.empty(len(degraded))
    for code in range(classes):
        log_weights[stream_class == code] = encounter_log_weights(
            _joined([stream.batch for stream in streams[code::classes]]),
            nominal_profile, tilt)
    log_weights += bernoulli_log_ratio(
        degraded, p_p=braking.degradation_occupancy,
        p_q=proposal_braking.degradation_occupancy)
    weights = np.exp(log_weights)
    groups = WeightDiagnostics.from_groups(weights, np.cumsum([0] + sizes))

    encounters = [sum(len(stream.batch) for stream in replication)
                  for replication in replications]
    replication = np.repeat(np.arange(len(replications)), encounters)
    record_replication = replication[sources]
    order = np.lexsort(block.canonical_keys() + (record_replication,))
    rows = block.array[order]
    record_weights = weights[sources[order]]
    bounds = np.searchsorted(record_replication[order],
                             np.arange(len(replications) + 1))
    hard_demands = np.bincount(replication[hard],
                               minlength=len(replications)).tolist()
    _record_sim_metrics(
        context_hours=[hours] * len(replications),
        encounters=sum(encounters), incidents=len(block),
        collisions=block.collision_count, hard_demands=sum(hard_demands))
    return [ImportanceRun(
        result=SimulationResult(
            policy_name=policy.name,
            hours=hours,
            context_hours={nominal_profile.name: hours},
            records=RecordBlock(rows[start:stop], block.context_table),
            encounters_resolved=encounters[i],
            hard_braking_demands=hard_demands[i],
            hard_braking_threshold_ms2=config.hard_braking_threshold_ms2,
        ),
        record_weights=record_weights[start:stop],
        diagnostics=WeightDiagnostics.merge_many(
            groups[i * classes:(i + 1) * classes]))
        for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _joined(batches: Sequence[EncounterBatch]) -> EncounterBatch:
    """One (context, class)'s batches as one batch, in order."""
    if len(batches) == 1:
        return batches[0]
    return EncounterBatch(
        counterpart=batches[0].counterpart, context=batches[0].context,
        **{name: np.concatenate([getattr(batch, name) for batch in batches])
           for name in ("time_h", "sight_distance_m",
                        "counterpart_speed_kmh", "cue_available")})
