"""Scalar ↔ vectorized engine equivalence.

The vectorized structure-of-arrays engine (``engine="vectorized"``) is
only admissible as the fleet hot path if it is *the same model* as the
scalar reference oracle.  Three layers of evidence, in decreasing
strictness:

1. **Exact record-level agreement** on single-encounter batches, where
   the two engines' documented RNG layouts coincide draw for draw — and
   on multi-encounter batches under deterministic configurations, where
   no draw influences the outcome at all.
2. **Statistical agreement** on pinned seeds across all four default
   contexts: encounter counts, incident counts, hard-braking demands and
   Δv distributions agree within Monte-Carlo confidence bounds.
3. **Worker-count determinism**: ``run_fleet(engine="vectorized")`` is
   bit-for-bit identical for workers ∈ {1, 2, 4} — the PR-1 contract
   carries over to the new engine unchanged.

Plus a perf smoke test: the entire point of the engine is speed, so a
regression that quietly de-vectorizes the hot path fails here.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.incident import IncidentRecord
from repro.core.taxonomy import ActorClass
from repro.traffic import (BrakingSystem, EncounterBatch, EncounterGenerator,
                           PerceptionModel, aggressive_policy,
                           default_context_profiles, default_perception,
                           nominal_policy, run_fleet, simulate, simulate_mix)
from repro.traffic.engine import resolve_batch
from repro.traffic.simulator import SimulationConfig, _resolve_encounter
from repro.traffic.encounters import Encounter

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


def _record_key(record: IncidentRecord):
    return (record.time_h, record.induced, record.is_collision,
            record.delta_v_kmh, record.min_distance_m,
            record.approach_speed_kmh)


def _scalar_reference(encounter, policy, perception, braking, config, rng):
    """The scalar simulator's per-encounter logic, follower draw included
    (mirrors ``simulate``'s loop body for one encounter)."""
    record, hard = _resolve_encounter(encounter, policy, perception,
                                      braking, config, rng)
    records = []
    if hard and rng.uniform() < config.follower_presence_probability:
        records.append(IncidentRecord(
            counterpart=ActorClass.CAR, is_collision=False,
            min_distance_m=float(rng.uniform(0.3, 4.0)),
            approach_speed_kmh=float(rng.uniform(10.0, 60.0)),
            time_h=encounter.time_h, context=encounter.context,
            induced=True))
    if record is not None:
        records.append(record)
    return records, (1 if hard else 0)


class TestExactSingleEncounterAgreement:
    """On a one-encounter batch the two RNG layouts coincide draw for
    draw (capability uniform, perception uniform + normal, follower
    uniform, induced distance + speed), so the engines must agree
    bit-for-bit — not just statistically."""

    SIGHTS = [2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 60.0]
    CASES = [(ActorClass.VRU, 5.0), (ActorClass.CAR, 20.0)]

    @pytest.mark.parametrize("policy_factory",
                             [nominal_policy, aggressive_policy])
    def test_record_level_equality(self, policy_factory):
        policy = policy_factory()
        perception = default_perception()
        braking = BrakingSystem()
        config = SimulationConfig(follower_presence_probability=1.0)
        kinds = set()
        for sight in self.SIGHTS:
            for counterpart, speed in self.CASES:
                encounter = Encounter(
                    counterpart=counterpart, context="urban",
                    sight_distance_m=sight, counterpart_speed_kmh=speed,
                    cue_available=False, time_h=0.5)
                batch = EncounterBatch.from_encounters([encounter])
                for seed in range(5):
                    scalar_records, scalar_hard = _scalar_reference(
                        encounter, policy, perception, braking, config,
                        np.random.default_rng(seed))
                    vector_block, vector_hard = resolve_batch(
                        batch, policy, perception, braking, config,
                        np.random.default_rng(seed))
                    vector_records = vector_block.to_records()
                    assert sorted(scalar_records, key=_record_key) \
                        == sorted(vector_records, key=_record_key), (
                            f"sight={sight}, {counterpart}, seed={seed}")
                    assert scalar_hard == vector_hard
                    for r in scalar_records:
                        kinds.add("collision" if r.is_collision
                                  else "induced" if r.induced
                                  else "near_miss")
        if policy.name == "aggressive":
            # The crafted grid must actually exercise every outcome kind,
            # otherwise the equality above proves less than it claims.
            assert kinds == {"collision", "induced", "near_miss"}

    def test_degraded_capability_branch(self):
        """occupancy=1 forces the degraded-braking path in both engines."""
        policy = aggressive_policy()
        perception = default_perception()
        braking = BrakingSystem(degradation_occupancy=1.0)
        config = SimulationConfig(follower_presence_probability=1.0)
        encounter = Encounter(counterpart=ActorClass.VRU, context="urban",
                              sight_distance_m=9.0,
                              counterpart_speed_kmh=4.0,
                              cue_available=True, time_h=0.25)
        batch = EncounterBatch.from_encounters([encounter])
        for seed in range(5):
            scalar_records, scalar_hard = _scalar_reference(
                encounter, policy, perception, braking, config,
                np.random.default_rng(seed))
            vector_block, vector_hard = resolve_batch(
                batch, policy, perception, braking, config,
                np.random.default_rng(seed))
            vector_records = vector_block.to_records()
            assert sorted(scalar_records, key=_record_key) \
                == sorted(vector_records, key=_record_key)
            assert scalar_hard == vector_hard

    def test_late_detection_value_equality(self):
        """miss_probability=1 pins the late-detection branch.  The scalar
        path skips the fraction normal on a miss while the vectorized
        path always draws it, so streams diverge *after* detection — with
        no follower draws the record values must still match exactly."""
        policy = aggressive_policy()
        perception = PerceptionModel(miss_probability=1.0, fraction_std=0.0)
        braking = BrakingSystem(degradation_occupancy=0.0)
        config = SimulationConfig(follower_presence_probability=0.0)
        for sight in self.SIGHTS:
            encounter = Encounter(counterpart=ActorClass.VRU,
                                  context="urban", sight_distance_m=sight,
                                  counterpart_speed_kmh=4.0,
                                  cue_available=False, time_h=0.1)
            batch = EncounterBatch.from_encounters([encounter])
            scalar_records, scalar_hard = _scalar_reference(
                encounter, policy, perception, braking, config,
                np.random.default_rng(0))
            vector_block, vector_hard = resolve_batch(
                batch, policy, perception, braking, config,
                np.random.default_rng(0))
            vector_records = vector_block.to_records()
            assert sorted(scalar_records, key=_record_key) \
                == sorted(vector_records, key=_record_key)
            assert scalar_hard == vector_hard


class TestExactDeterministicBatchAgreement:
    """With every stochastic element pinned (no fraction spread, no
    misses, no degradation, no followers) the outcome is pure kinematics,
    so scalar and vectorized must agree exactly on whole batches."""

    def test_multi_encounter_batch(self):
        policy = aggressive_policy()
        perception = PerceptionModel(miss_probability=0.0, fraction_std=0.0)
        braking = BrakingSystem(degradation_occupancy=0.0)
        config = SimulationConfig(follower_presence_probability=0.0)
        encounters = [
            Encounter(counterpart=ActorClass.VRU, context="urban",
                      sight_distance_m=s, counterpart_speed_kmh=5.0,
                      cue_available=(i % 2 == 0), time_h=0.01 * (i + 1))
            for i, s in enumerate([2.0, 4.0, 7.0, 11.0, 18.0, 33.0, 80.0])]
        batch = EncounterBatch.from_encounters(encounters)
        scalar_records = []
        scalar_hard = 0
        for encounter in encounters:
            records, hard = _scalar_reference(
                encounter, policy, perception, braking, config,
                np.random.default_rng(1))
            scalar_records.extend(records)
            scalar_hard += hard
        vector_block, vector_hard = resolve_batch(
            batch, policy, perception, braking, config,
            np.random.default_rng(1))
        vector_records = vector_block.to_records()
        assert sorted(scalar_records, key=_record_key) \
            == sorted(vector_records, key=_record_key)
        assert scalar_hard == vector_hard
        assert scalar_records  # the crafted grid produces incidents


class TestStatisticalAgreement:
    """Different RNG layouts, same model: rates agree within CI on
    pinned seeds across all four default contexts."""

    HOURS = 400.0
    SEED = 20200629

    @pytest.fixture(scope="class")
    def runs(self, world):
        policy = aggressive_policy()  # rich statistics: collisions,
        perception = default_perception()  # near-misses, hard demands
        braking = BrakingSystem()
        out = {}
        for context in sorted(world.contexts):
            scalar = simulate(policy, world, perception, braking, context,
                              self.HOURS, np.random.default_rng(self.SEED))
            vector = simulate(policy, world, perception, braking, context,
                              self.HOURS, np.random.default_rng(self.SEED),
                              engine="vectorized")
            out[context] = (scalar, vector)
        return out

    @staticmethod
    def _poisson_close(a: int, b: int, sigmas: float = 5.0) -> bool:
        """Two independent counts of one rate: |a−b| ≲ σ√(a+b)."""
        return abs(a - b) <= sigmas * np.sqrt(a + b + 1.0)

    def test_encounter_counts(self, runs):
        for context, (scalar, vector) in runs.items():
            assert self._poisson_close(scalar.encounters_resolved,
                                       vector.encounters_resolved), context

    def test_incident_counts(self, runs):
        for context, (scalar, vector) in runs.items():
            assert self._poisson_close(len(scalar.records),
                                       len(vector.records)), context
            assert self._poisson_close(len(scalar.collisions()),
                                       len(vector.collisions())), context

    def test_hard_braking_counts(self, runs):
        for context, (scalar, vector) in runs.items():
            assert self._poisson_close(scalar.hard_braking_demands,
                                       vector.hard_braking_demands), context

    def test_delta_v_distributions(self, runs):
        """Collision Δv means agree within pooled standard error."""
        scalar_dv = np.array([r.delta_v_kmh
                              for scalar, _ in runs.values()
                              for r in scalar.collisions()])
        vector_dv = np.array([r.delta_v_kmh
                              for _, vector in runs.values()
                              for r in vector.collisions()])
        assert scalar_dv.size > 30 and vector_dv.size > 30
        pooled_se = np.sqrt(scalar_dv.var(ddof=1) / scalar_dv.size
                            + vector_dv.var(ddof=1) / vector_dv.size)
        assert abs(scalar_dv.mean() - vector_dv.mean()) <= 5.0 * pooled_se

    def test_exposure_bookkeeping_identical(self, runs):
        for context, (scalar, vector) in runs.items():
            assert vector.hours == scalar.hours == self.HOURS
            assert vector.context_hours == scalar.context_hours


class TestVectorizedDeterminism:
    def test_pure_function_of_seed(self, world):
        a = simulate_mix(nominal_policy(), world, default_perception(),
                         BrakingSystem(), MIX, 50.0,
                         np.random.default_rng(99), engine="vectorized")
        b = simulate_mix(nominal_policy(), world, default_perception(),
                         BrakingSystem(), MIX, 50.0,
                         np.random.default_rng(99), engine="vectorized")
        assert a == b

    def test_mix_exposure_exact(self, world):
        run = simulate_mix(nominal_policy(), world, default_perception(),
                           BrakingSystem(), MIX, 123.4,
                           np.random.default_rng(3), engine="vectorized")
        assert run.hours == 123.4
        assert sum(run.context_hours.values()) == 123.4

    def test_worker_count_determinism(self, world):
        """run_fleet(engine="vectorized") is bit-for-bit identical for
        workers ∈ {1, 2, 4} — the acceptance-criterion contract."""
        runs = [run_fleet(nominal_policy(), world, default_perception(),
                          BrakingSystem(), MIX, 300.0, 2020, workers=w,
                          chunk_hours=75.0, engine="vectorized")
                for w in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2]

    def test_unknown_engine_rejected(self, world):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(nominal_policy(), world, default_perception(),
                     BrakingSystem(), "urban", 1.0,
                     np.random.default_rng(0), engine="simd")
        with pytest.raises(ValueError, match="unknown engine"):
            run_fleet(nominal_policy(), world, default_perception(),
                      BrakingSystem(), MIX, 10.0, 0, workers=1,
                      engine="simd")

    def test_empty_and_zero_rate_batches(self, world):
        """A context hour count low enough for zero-arrival classes must
        still resolve cleanly (empty arrays through the whole pipeline)."""
        run = simulate(nominal_policy(), world, default_perception(),
                       BrakingSystem(), "highway", 0.01,
                       np.random.default_rng(12), engine="vectorized")
        assert run.encounters_resolved >= 0
        assert run.hard_braking_demands >= 0

    def test_crossing_closing_speed_is_ego_speed(self):
        """Static objects block the path: closing speed equals the ego's
        own encounter speed, so a static-object batch yields the same
        approach speeds as the policy's encounter speed."""
        profiles = default_context_profiles()
        world = EncounterGenerator(profiles)
        policy = nominal_policy()
        batch = world.sample_class_batch(
            "urban", ActorClass.STATIC_OBJECT, 2000.0,
            policy.cue_probability, np.random.default_rng(5))
        assert len(batch) > 0
        assert np.all(batch.counterpart_speed_kmh == 0.0)


class TestPerfSmoke:
    """The engine must actually be fast — a de-vectorizing regression
    (e.g. a Python loop sneaking into the hot path) fails here.  The
    margin (≥2×) is far below the measured speedup (≳4× at this size),
    so scheduler noise cannot flake the test."""

    def test_vectorized_beats_scalar(self, world):
        policy = nominal_policy()
        perception = default_perception()
        braking = BrakingSystem()

        def run(engine: str) -> float:
            best = float("inf")
            for seed in (1, 2, 3):
                start = time.perf_counter()
                simulate_mix(policy, world, perception, braking, MIX, 150.0,
                             np.random.default_rng(seed), engine=engine)
                best = min(best, time.perf_counter() - start)
            return best

        run("vectorized")  # warm the code paths once
        scalar_s = run("scalar")
        vector_s = run("vectorized")
        assert vector_s * 2.0 <= scalar_s, (
            f"vectorized engine only {scalar_s / vector_s:.2f}x faster "
            f"({scalar_s:.4f}s vs {vector_s:.4f}s)")
