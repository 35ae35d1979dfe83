"""The one-pass resolver ≡ the per-group loop it replaced, bit for bit.

The vectorized engine used to resolve each (context × class) group on
its own: one ``_resolve_batch_body`` call per group, inside the class
loops of ``simulate_vectorized`` and ``simulate_importance``, with
``simulate_mix`` calling ``simulate`` once per context.  It now draws
per stream and resolves every group of a call in one pass.  This module
keeps the per-group loop as the oracle — the resolution body with the
model methods it called written out, the class loops, the mix loop —
and asserts over generated worlds (:mod:`tests.strategies`) that the
pass returns byte-identical record blocks, counts, importance weights
and weight diagnostics.
Sampling (``EncounterGenerator.sample_class_batch``) is shared: both
sides draw their batches through it.

The importance sampler also used to run one pass per replication; it
now resolves a stratum's replications together, in passes of about
``engine._PASS_ENCOUNTERS`` encounters.  The per-group loop, called once
per replication, stays the oracle for that too: per run, per estimator
and per telemetry total, at every pass budget.
"""

from __future__ import annotations

import math
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.taxonomy import ActorClass
from repro.obs.session import telemetry_session
from repro.stats.importance import WeightDiagnostics, bernoulli_log_ratio
from repro.stats.montecarlo import spawn_generators
from repro.stats.rare_event import stratified_rate
from repro.traffic import (ProposalTilt, RecordBlock, encounter_log_weights,
                           importance_collision_rate, kmh_to_ms, ms_to_kmh,
                           naive_collision_rate, resolve_braking_arrays,
                           simulate_mix)
from repro.traffic import engine
from repro.traffic.engine import (CROSSING_CLASSES, simulate_importance,
                                  simulate_importance_stratum,
                                  simulate_vectorized)
from repro.traffic.records import actor_code
from repro.traffic.simulator import _split_hours
from tests.strategies import finite, tilts, worlds


# -- the oracle: the per-group loop --------------------------------------

def _oracle_resolve(batch, policy, perception, braking, config, rng,
                    time_offset_h):
    """One group resolved alone: ``(unsorted block, sources, degraded,
    n_hard)`` in the layout [collisions | near-misses | induced]."""
    n = len(batch)
    context = batch.context
    # Capabilities: one uniform per encounter.
    degraded = rng.uniform(size=n) < braking.degradation_occupancy
    actual_capability = np.where(degraded, braking.degraded_ms2,
                                 braking.nominal_ms2)
    # Perception: one miss uniform, then one fraction normal each.
    factor = perception.context_factors.get(context, 1.0)
    missed = rng.uniform(size=n) < perception.miss_probability
    nominal = rng.normal(perception.nominal_fraction * factor,
                         perception.fraction_std, size=n)
    fraction = np.clip(np.where(missed, perception.late_fraction * factor,
                                nominal), 0.01, 1.0)
    detection = batch.sight_distance_m * fraction

    known_capability = (actual_capability if braking.reports_capability
                        else np.full_like(actual_capability,
                                          braking.nominal_ms2))
    speed = np.full(n, policy.target_speed_ms(context))
    speed = np.where(batch.cue_available,
                     speed * (1.0 - policy.proactive_slowdown), speed)
    if policy.capability_aware:
        slow = known_capability < braking.nominal_ms2
        scale = np.where(slow,
                         np.sqrt(known_capability / braking.nominal_ms2),
                         1.0)
        speed = np.where(slow, speed * scale, speed)
    decel = np.minimum(policy.comfort_braking_ms2, known_capability)
    budgeted = policy.sight_margin * batch.sight_distance_m
    t_r = policy.reaction_time_s
    sight_limited = (-t_r * decel
                     + np.sqrt((t_r * decel) ** 2 + 2.0 * decel * budgeted))
    ego_speed = np.minimum(speed, sight_limited)
    if batch.counterpart in CROSSING_CLASSES:
        closing = ego_speed
    else:
        closing = np.maximum(
            ego_speed - kmh_to_ms(batch.counterpart_speed_kmh), 0.0)
    active = closing > 0.0

    comfort = np.minimum(policy.comfort_braking_ms2, actual_capability)
    outcome = resolve_braking_arrays(
        speed_ms=closing, distance_m=detection,
        comfort_deceleration=comfort, max_deceleration=actual_capability,
        reaction_time_s=policy.reaction_time_s)
    hard = active & (outcome.demanded_deceleration
                     > config.hard_braking_threshold_ms2)
    collided = active & outcome.collided
    closing_kmh = ms_to_kmh(closing)
    near_miss = (active & ~outcome.collided
                 & (outcome.stop_margin_m < config.near_miss_distance_m)
                 & (closing_kmh > config.near_miss_speed_kmh))

    times = batch.time_h + time_offset_h
    coll_idx = np.flatnonzero(collided)
    miss_idx = np.flatnonzero(near_miss)
    impact_kmh = ms_to_kmh(outcome.impact_speed_ms)
    min_distances = np.maximum(outcome.stop_margin_m, 1e-3)

    hard_indices = np.flatnonzero(hard)
    n_hard = int(hard_indices.size)
    if n_hard:
        follower = rng.uniform(size=n_hard) \
            < config.follower_presence_probability
        induced_indices = hard_indices[follower]
        n_induced = int(induced_indices.size)
        induced_distance = rng.uniform(0.3, 4.0, size=n_induced)
        induced_speed = rng.uniform(10.0, 60.0, size=n_induced)
    else:
        induced_indices = np.zeros(0, dtype=np.int64)
        n_induced = 0
        induced_distance = np.zeros(0)
        induced_speed = np.zeros(0)

    n_coll = int(coll_idx.size)
    n_miss = int(miss_idx.size)
    total = n_coll + n_miss + n_induced
    sources = np.concatenate(
        [coll_idx, miss_idx, induced_indices]).astype(np.int64)
    counterpart = np.full(total, actor_code(batch.counterpart),
                          dtype=np.uint8)
    counterpart[n_coll + n_miss:] = actor_code(ActorClass.CAR)
    is_collision = np.zeros(total, dtype=bool)
    is_collision[:n_coll] = True
    induced_mask = np.zeros(total, dtype=bool)
    induced_mask[n_coll + n_miss:] = True
    delta_v = np.zeros(total)
    delta_v[:n_coll] = impact_kmh[coll_idx]
    min_distance = np.zeros(total)
    min_distance[n_coll:n_coll + n_miss] = min_distances[miss_idx]
    min_distance[n_coll + n_miss:] = induced_distance
    approach = np.empty(total)
    approach[:n_coll] = closing_kmh[coll_idx]
    approach[n_coll:n_coll + n_miss] = closing_kmh[miss_idx]
    approach[n_coll + n_miss:] = induced_speed
    block = RecordBlock.from_columns(
        counterpart=counterpart, is_collision=is_collision,
        delta_v_kmh=delta_v, min_distance_m=min_distance,
        approach_speed_kmh=approach, time_h=times[sources],
        context=np.zeros(total, dtype=np.uint16), context_table=(context,),
        induced=induced_mask)
    return block, sources, degraded, n_hard


def _oracle_groups(generator, context, hours, policy, rng):
    classes = generator.active_classes(context)
    streams = rng.spawn(len(classes)) if classes else []
    for counterpart, stream in zip(classes, streams):
        yield generator.sample_class_batch(
            context, counterpart, hours, policy.cue_probability,
            stream), stream


def _oracle_vectorized(policy, generator, perception, braking, context,
                       hours, rng, config, time_offset_h=0.0):
    """``(sorted block, encounters, hard demands)`` of one context."""
    blocks: List[RecordBlock] = []
    encounters = hard_demands = 0
    for batch, stream in _oracle_groups(generator, context, hours, policy,
                                        rng):
        encounters += len(batch)
        if len(batch):
            block, _, _, n_hard = _oracle_resolve(
                batch, policy, perception, braking, config, stream,
                time_offset_h)
            blocks.append(block)
            hard_demands += n_hard
    return (RecordBlock.concat(blocks).canonical_sort(), encounters,
            hard_demands)


def _oracle_mix(policy, generator, perception, braking, mix, hours, rng,
                config, time_offset_h):
    contexts = [(c, w) for c, w in sorted(mix.items()) if w > 0.0]
    part_hours = _split_hours(hours, [w for _, w in contexts])
    blocks, encounters, hard_demands = [], 0, 0
    offset = time_offset_h
    for (context, _), ctx_hours in zip(contexts, part_hours):
        block, n_enc, n_hard = _oracle_vectorized(
            policy, generator, perception, braking, context, ctx_hours, rng,
            config, offset)
        blocks.append(block)
        encounters += n_enc
        hard_demands += n_hard
        offset += ctx_hours
    return (RecordBlock.concat(blocks).canonical_sort(), encounters,
            hard_demands)


def _oracle_importance(policy, generator, perception, braking, context,
                       hours, rng, config, tilt, time_offset_h=0.0):
    """``(block, record weights, diagnostics, encounters, hard)``."""
    proposal = generator.tilted(tilt)
    nominal_occupancy = braking.degradation_occupancy
    proposal_occupancy = nominal_occupancy * tilt.degradation_scale
    proposal_braking = braking.with_occupancy(proposal_occupancy)
    nominal_profile = generator.profile(context)
    blocks, weights = [], []
    diagnostics = WeightDiagnostics()
    encounters = hard_demands = 0
    for batch, stream in _oracle_groups(proposal, context, hours, policy,
                                        rng):
        log_weights = encounter_log_weights(batch, nominal_profile, tilt)
        encounters += len(batch)
        if len(batch):
            block, sources, degraded, n_hard = _oracle_resolve(
                batch, policy, perception, proposal_braking, config, stream,
                time_offset_h)
            log_weights += bernoulli_log_ratio(
                degraded, p_p=nominal_occupancy, p_q=proposal_occupancy)
        else:
            block, sources, n_hard = (RecordBlock.empty(),
                                      np.zeros(0, dtype=np.int64), 0)
        encounter_weights = np.exp(log_weights)
        diagnostics = diagnostics.merged(
            WeightDiagnostics.from_weights(encounter_weights))
        blocks.append(block)
        weights.append(encounter_weights[sources])
        hard_demands += n_hard
    block = RecordBlock.concat(blocks)
    order = block.canonical_order()
    record_weights = np.concatenate(weights)[order] if weights \
        else np.zeros(0)
    return (RecordBlock(block.array[order], block.context_table),
            record_weights, diagnostics, encounters, hard_demands)


def _rng(seed: int) -> np.random.Generator:
    # A fresh SeedSequence per side: Generator.spawn advances the one
    # it was built from, so sharing one would shift the second side.
    return np.random.default_rng(np.random.SeedSequence(seed))


def _same_block(actual: RecordBlock, expected: RecordBlock) -> None:
    assert actual.context_table == expected.context_table
    assert actual.array.tobytes() == expected.array.tobytes()


SEEDS = st.integers(0, 2 ** 32 - 1)
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestPassEqualsPerGroupLoop:
    @SETTINGS
    @given(worlds(), SEEDS, st.floats(0.0, 1e4, **finite))
    def test_simulate_mix(self, world, seed, offset):
        generator, mix, policy, braking, perception, config, hours = world
        result = simulate_mix(policy, generator, perception, braking, mix,
                              hours, _rng(seed), config, time_offset_h=offset,
                              engine="vectorized")
        block, encounters, hard = _oracle_mix(
            policy, generator, perception, braking, mix, hours, _rng(seed),
            config, offset)
        _same_block(result.record_block, block)
        assert result.encounters_resolved == encounters
        assert result.hard_braking_demands == hard

    @SETTINGS
    @given(worlds(), SEEDS)
    def test_simulate_vectorized(self, world, seed):
        generator, _, policy, braking, perception, config, hours = world
        for context in generator.contexts:
            result = simulate_vectorized(policy, generator, perception,
                                         braking, context, hours, _rng(seed),
                                         config, time_offset_h=2.5)
            block, encounters, hard = _oracle_vectorized(
                policy, generator, perception, braking, context, hours,
                _rng(seed), config, 2.5)
            _same_block(result.record_block, block)
            assert result.encounters_resolved == encounters
            assert result.hard_braking_demands == hard

    @SETTINGS
    @given(st.data(), worlds(), SEEDS)
    def test_simulate_importance(self, data, world, seed):
        generator, _, policy, braking, perception, config, hours = world
        tilt = data.draw(tilts(braking.degradation_occupancy))
        for context in generator.contexts:
            run = simulate_importance(policy, generator, perception, braking,
                                      context, hours, _rng(seed), config,
                                      tilt=tilt)
            block, weights, diagnostics, encounters, hard = \
                _oracle_importance(policy, generator, perception, braking,
                                   context, hours, _rng(seed), config, tilt)
            _same_block(run.result.record_block, block)
            assert run.record_weights.tobytes() == weights.tobytes()
            assert run.diagnostics == diagnostics
            assert run.result.encounters_resolved == encounters
            assert run.result.hard_braking_demands == hard


# -- importance passes over many replications ------------------------------

#: Pass budgets: every replication its own pass, the default, one pass.
BUDGETS = [1, engine._PASS_ENCOUNTERS, math.inf]
SIM_COUNTERS = ("sim.hours", "sim.encounters", "sim.incidents",
                "sim.collisions", "sim.hard_braking_demands")


def _passes(encounters, budget) -> int:
    """The passes the stratum function makes of replications this size:
    each takes replications until it holds ``budget``, at least one."""
    passes, held = 0, budget
    for size in encounters:
        if held >= budget:
            passes, held = passes + 1, 0
        held += size
    return passes


def _weighted_rate(block, weights, hours) -> float:
    # ImportanceRun.weighted_collision_count's left-to-right sum.
    return float(sum(weights[block.array["is_collision"]].tolist())) / hours


class TestStratumEqualsPerReplicationRuns:
    @pytest.mark.parametrize("budget", BUDGETS)
    @SETTINGS
    @given(st.data(), worlds(), SEEDS, st.integers(2, 5),
           st.floats(0.0, 1e4, **finite))
    def test_runs_and_telemetry(self, budget, data, world, seed,
                                replications, offset):
        generator, _, policy, braking, perception, config, hours = world
        tilt = data.draw(tilts(braking.degradation_occupancy))
        context = data.draw(st.sampled_from(generator.contexts))
        with mock.patch.object(engine, "_PASS_ENCOUNTERS", budget), \
                telemetry_session() as session:
            runs = simulate_importance_stratum(
                policy, generator, perception, braking, context, hours,
                spawn_generators(seed, replications), config, tilt=tilt,
                time_offset_h=offset)
        oracles = [_oracle_importance(policy, generator, perception, braking,
                                      context, hours, rng, config, tilt,
                                      offset)
                   for rng in spawn_generators(seed, replications)]
        assert len(runs) == replications
        expected = dict.fromkeys(SIM_COUNTERS, 0)
        for run, (block, weights, diagnostics, encounters, hard) in zip(
                runs, oracles):
            _same_block(run.result.record_block, block)
            assert run.record_weights.tobytes() == weights.tobytes()
            assert run.diagnostics == diagnostics
            assert run.result.encounters_resolved == encounters
            assert run.result.hard_braking_demands == hard
            expected["sim.hours"] += hours
            expected["sim.encounters"] += encounters
            expected["sim.incidents"] += len(block)
            expected["sim.collisions"] += block.collision_count
            expected["sim.hard_braking_demands"] += hard
        metrics = session.metrics
        assert {name: metrics.counter(name).value
                for name in SIM_COUNTERS} == expected
        passes = metrics.counter("engine.batches").value
        assert passes == _passes([oracle[3] for oracle in oracles], budget)
        if budget == math.inf:
            assert passes == 1 < replications

    @SETTINGS
    @given(st.data(), worlds(), SEEDS, st.integers(2, 3))
    def test_importance_collision_rate(self, data, world, seed, reps):
        generator, mix, policy, braking, perception, config, hours = world
        tilt = data.draw(tilts(braking.degradation_occupancy))
        rate = importance_collision_rate(
            policy, generator, perception, braking, mix, tilt=tilt,
            seed=seed, replications_per_stratum=reps,
            hours_per_replication=hours, config=config,
            min_ess_fraction=0.0, max_weight_share=1.0)
        # The estimator as it was: one run per replication, pooled.
        pooled: List[WeightDiagnostics] = []

        def one(context, rng):
            block, weights, diagnostics, _, _ = _oracle_importance(
                policy, generator, perception, braking, context, hours, rng,
                config, tilt)
            pooled.append(diagnostics)
            return _weighted_rate(block, weights, hours)

        assert rate.estimate == stratified_rate(
            one, mix, seed=seed, replications_per_stratum=reps)
        assert rate.diagnostics == WeightDiagnostics.merge_many(pooled)

    @SETTINGS
    @given(worlds(), SEEDS, st.integers(2, 3))
    def test_identity_tilt_is_naive_is_vectorized_loop(self, world, seed,
                                                       reps):
        generator, mix, policy, braking, perception, config, hours = world
        common = dict(seed=seed, replications_per_stratum=reps,
                      hours_per_replication=hours, config=config)
        naive = naive_collision_rate(policy, generator, perception, braking,
                                     mix, **common)
        identity = importance_collision_rate(
            policy, generator, perception, braking, mix, tilt=ProposalTilt(),
            min_ess_fraction=0.0, max_weight_share=1.0, **common)
        loop = stratified_rate(
            lambda context, rng: simulate_vectorized(
                policy, generator, perception, braking, context, hours, rng,
                config).collision_count() / hours,
            mix, seed=seed, replications_per_stratum=reps)
        assert naive.method == "none" and naive.diagnostics is None
        assert naive.estimate == identity.estimate == loop
