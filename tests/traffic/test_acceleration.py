"""Tests for the rare-event acceleration layer (repro.traffic.acceleration).

Structural and exactness tests run in the fast tier: tilt bookkeeping,
the identity-tilt bitwise-oracle equivalence, severity-score fidelity to
the scalar oracle's collision predicate, and the estimator dispatch.
The heavy 5-sigma unbiasedness gates live in the ``stats`` tier
(tests/stats/test_statistical_verification.py).
"""

import math

import numpy as np
import pytest

from repro.core import ActorClass
from repro.traffic import (AcceleratedRate, BrakingSystem, ContextProfile,
                           EncounterGenerator, ProposalTilt,
                           accelerated_collision_rate,
                           default_context_profiles, default_perception,
                           importance_collision_rate, naive_collision_rate,
                           nominal_policy, aggressive_policy,
                           severity_channels, simulate_importance,
                           simulate_vectorized, splitting_collision_rate,
                           encounter_log_weights)
from repro.traffic.engine import CROSSING_CLASSES, ImportanceRun
from repro.traffic.simulator import SimulationConfig, _resolve_encounter
from repro.traffic.encounters import Encounter, SIGHT_DISTANCE_CLAMP_M


@pytest.fixture
def world():
    return EncounterGenerator(default_context_profiles())


@pytest.fixture
def policy():
    return nominal_policy()


@pytest.fixture
def perception():
    return default_perception()


@pytest.fixture
def braking():
    return BrakingSystem()


class TestProposalTilt:
    def test_identity_flag(self):
        assert ProposalTilt().is_identity
        assert not ProposalTilt(rate_scale=2.0).is_identity
        assert not ProposalTilt(sight_scale=0.5).is_identity
        assert not ProposalTilt(speed_shift_kmh=5.0).is_identity
        assert not ProposalTilt(degradation_scale=10.0).is_identity

    def test_validation(self):
        with pytest.raises(ValueError):
            ProposalTilt(rate_scale=0.0)
        with pytest.raises(ValueError):
            ProposalTilt(sight_scale=-1.0)
        with pytest.raises(ValueError):
            ProposalTilt(speed_shift_kmh=math.inf)
        with pytest.raises(ValueError):
            ProposalTilt(degradation_scale=0.0)


class TestTiltedProfiles:
    def test_rates_sight_and_speed_transform(self, world):
        tilt = ProposalTilt(rate_scale=3.0, sight_scale=0.5,
                            speed_shift_kmh=10.0)
        nominal = world.profile("urban")
        tilted = nominal.tilted(tilt)
        for cls, rate in nominal.encounter_rates.items():
            assert tilted.encounter_rates[cls] == pytest.approx(3.0 * rate)
            mean_d, std_d = nominal.sight_distance_m[cls]
            assert tilted.sight_distance_m[cls] == (
                pytest.approx(0.5 * mean_d), pytest.approx(0.5 * std_d))
            mean_v, std_v = nominal.counterpart_speed_kmh[cls]
            if std_v > 0:
                assert tilted.counterpart_speed_kmh[cls][0] == \
                    pytest.approx(mean_v + 10.0)
            else:
                # Point-mass speeds (static objects) are never shifted.
                assert tilted.counterpart_speed_kmh[cls] == (mean_v, std_v)

    def test_identity_tilt_is_equal_profile(self, world):
        nominal = world.profile("urban")
        assert nominal.tilted(ProposalTilt()) == nominal

    def test_tilted_generator_preserves_class_order(self, world):
        tilted = world.tilted(ProposalTilt(rate_scale=10.0))
        for context in world.contexts:
            assert tilted.active_classes(context) == \
                world.active_classes(context)


class TestEncounterLogWeights:
    def test_identity_tilt_weights_are_exactly_zero(self, world, rng):
        batch = world.sample_class_batch("urban", ActorClass.CAR, 20.0, 0.5,
                                         rng)
        log_w = encounter_log_weights(batch, world.profile("urban"),
                                      ProposalTilt())
        assert len(log_w) == len(batch)
        assert np.all(log_w == 0.0)

    def test_pure_rate_tilt_is_flat(self, world, rng):
        tilt = ProposalTilt(rate_scale=4.0)
        batch = world.tilted(tilt).sample_class_batch(
            "urban", ActorClass.CAR, 20.0, 0.5, rng)
        log_w = encounter_log_weights(batch, world.profile("urban"), tilt)
        assert np.allclose(log_w, -math.log(4.0))

    def test_context_mismatch_rejected(self, world, rng):
        batch = world.sample_class_batch("urban", ActorClass.CAR, 5.0, 0.5,
                                         rng)
        with pytest.raises(ValueError):
            encounter_log_weights(batch, world.profile("rural"),
                                  ProposalTilt())

    def test_weighted_arrival_rate_recovers_nominal(self, world):
        # Campbell identity: E_q[sum w] per hour = the nominal class rate,
        # even under a combined rate + sight + speed tilt.
        tilt = ProposalTilt(rate_scale=2.0, sight_scale=0.8,
                            speed_shift_kmh=5.0)
        profile = world.profile("urban")
        tilted = world.tilted(tilt)
        hours = 400.0
        rng = np.random.default_rng(99)
        batch = tilted.sample_class_batch("urban", ActorClass.CAR, hours,
                                          0.5, rng)
        weights = np.exp(encounter_log_weights(batch, profile, tilt))
        rate = float(weights.sum()) / hours
        nominal_rate = profile.encounter_rates[ActorClass.CAR]
        assert rate == pytest.approx(nominal_rate, rel=0.1)


class TestSimulateImportance:
    def test_identity_tilt_is_bitwise_oracle(self, world, policy, perception,
                                             braking):
        # Besides the default world: one-class VRU worlds whose speed
        # floor or sight clamp atom has a mass that underflows to 0.
        cases = [(world, 50.0, 7)] + [
            (EncounterGenerator({"urban": ContextProfile(
                "urban", {ActorClass.VRU: 50.0}, {ActorClass.VRU: sight},
                {ActorClass.VRU: speed})}), 200.0, 3)
            for sight, speed in (((20.0, 8.0), (110.0, 2.0)),
                                 ((150.0, 15.0), (10.0, 3.0)))]
        for generator, hours, seed in cases:
            run = simulate_importance(policy, generator, perception, braking,
                                      "urban", hours,
                                      np.random.default_rng(seed), None,
                                      tilt=ProposalTilt())
            reference = simulate_vectorized(policy, generator, perception,
                                            braking, "urban", hours,
                                            np.random.default_rng(seed),
                                            None)
            assert run.result.records == reference.records
            assert run.result.encounters_resolved == \
                reference.encounters_resolved
            assert np.all(run.record_weights == 1.0)
            assert run.diagnostics.ess_fraction == pytest.approx(1.0)
            assert run.weighted_collision_count() == pytest.approx(
                sum(1 for r in reference.records if r.is_collision))

    def test_run_validates_weight_alignment(self, world, policy, perception,
                                            braking):
        run = simulate_importance(policy, world, perception, braking,
                                  "urban", 5.0, np.random.default_rng(3),
                                  None, tilt=ProposalTilt())
        with pytest.raises(ValueError):
            ImportanceRun(result=run.result,
                          record_weights=np.append(run.record_weights, 1.0))

    def test_weighted_count_uses_weights(self, world, policy, perception):
        # Force frequent degradation so collisions exist, then zero every
        # weight: the weighted count must be 0 regardless of raw records.
        braking = BrakingSystem(degradation_occupancy=0.5,
                                reports_capability=False, degraded_ms2=2.0)
        run = simulate_importance(aggressive_policy(), world, perception,
                                  braking, "urban", 50.0,
                                  np.random.default_rng(11), None,
                                  tilt=ProposalTilt())
        zeroed = ImportanceRun(result=run.result,
                               record_weights=np.zeros_like(
                                   run.record_weights))
        assert zeroed.weighted_collision_count() == 0.0
        raw = sum(1 for r in run.result.records if r.is_collision)
        assert raw > 0


class _ReplayRig:
    """Replays a severity channel's latent draws into the scalar oracle.

    ``_resolve_encounter`` consumes (at most) two uniforms — the fault
    occupancy test and the perception miss test — and one normal (the
    detection fraction).  Feeding it the channel's latent coordinates
    makes oracle and severity score resolve the *same* randomness.
    """

    def __init__(self, state):
        self._uniforms = [float(state[3]), float(state[4])]
        self._z_frac = float(state[5])

    def uniform(self):
        return self._uniforms.pop(0)

    def normal(self, loc, scale):
        return loc + scale * self._z_frac


def _encounter_from_state(channel, state):
    sight = max(math.exp(channel.sight_mu + channel.sight_sigma * state[0]),
                SIGHT_DISTANCE_CLAMP_M)
    speed = max(channel.speed_mean_kmh + channel.speed_std_kmh * state[1],
                0.0)
    return Encounter(counterpart=channel.counterpart,
                     context=channel.context, sight_distance_m=sight,
                     counterpart_speed_kmh=speed,
                     cue_available=bool(
                         state[2] < channel.policy.cue_probability),
                     time_h=0.0)


class TestSeverityChannel:
    def test_channels_follow_canonical_class_order(self, world, policy,
                                                   perception, braking):
        channels = severity_channels(policy, world, perception, braking,
                                     "urban")
        assert tuple(c.counterpart for c in channels) == \
            world.active_classes("urban")
        profile = world.profile("urban")
        for channel in channels:
            assert channel.rate_per_hour == \
                profile.encounter_rates[channel.counterpart]

    @pytest.mark.parametrize("braking_kwargs", [
        dict(),
        dict(degradation_occupancy=0.3, reports_capability=False,
             degraded_ms2=2.0),
    ])
    def test_score_matches_oracle_collision_predicate(self, world,
                                                      perception,
                                                      braking_kwargs):
        # The severity score must reproduce the scalar oracle's collision
        # predicate decision-for-decision on shared latent draws.  Latent
        # states are biased toward short sight / late detection so both
        # branches of the predicate are exercised.
        braking = BrakingSystem(**braking_kwargs)
        policy = aggressive_policy()
        config = SimulationConfig()
        rng = np.random.default_rng(21)
        channels = severity_channels(policy, world, perception, braking,
                                     "urban")
        collisions_seen = 0
        for channel in channels:
            states, oracle = [], []
            for _ in range(400):
                state = channel.initial(rng)
                # Bias toward danger: pull sight short, detection late.
                state[0] -= rng.uniform(0.0, 3.0)
                state[5] -= rng.uniform(0.0, 2.0)
                score = channel.score(state)
                encounter = _encounter_from_state(channel, state)
                record, _ = _resolve_encounter(
                    encounter, policy, perception, braking, config,
                    _ReplayRig(state))
                oracle_collision = record is not None and record.is_collision
                assert (score > 1.0) == oracle_collision, \
                    f"{channel.counterpart}: score {score} vs oracle " \
                    f"{oracle_collision}"
                collisions_seen += oracle_collision
                states.append(state)
                oracle.append(oracle_collision)
            # The same states scored as one stacked population.
            stacked = channel.score(np.array(states))
            assert (stacked > 1.0).tolist() == oracle, channel.counterpart
        assert collisions_seen > 0  # the bias must exercise both branches

    def test_crossing_classes_ignore_counterpart_speed(self, world, policy,
                                                       perception, braking):
        channels = {c.counterpart: c
                    for c in severity_channels(policy, world, perception,
                                               braking, "urban")}
        vru = channels[ActorClass.VRU]
        assert ActorClass.VRU in CROSSING_CLASSES
        state = np.array([0.0, 0.0, 0.9, 0.9, 0.9, 0.0])
        fast = state.copy()
        fast[1] = 3.0
        assert vru.score(state) == vru.score(fast)

    def test_mutate_preserves_domains_and_is_seeded(self, world, policy,
                                                    perception, braking):
        channel = severity_channels(policy, world, perception, braking,
                                    "urban")[0]
        rng = np.random.default_rng(5)
        state = channel.initial(rng)
        for _ in range(50):
            state = channel.mutate(state, rng.standard_normal(6))
            assert np.all(np.isfinite(state))
            for i in (2, 3, 4):
                assert 0.0 <= state[i] < 1.0
        a = channel.mutate(state, np.random.default_rng(8).standard_normal(6))
        b = channel.mutate(state, np.random.default_rng(8).standard_normal(6))
        assert np.array_equal(a, b)

    def test_mutate_reads_noise_in_draw_order(self, world, policy,
                                              perception, braking):
        # Noise column k drives the k-th coordinate in the order a
        # particle's draws were made: 0, 1, 5 (Crank-Nicolson, rho 0.8),
        # then 2, 3, 4 (mod-1 walk, step 0.12).
        channel = severity_channels(policy, world, perception, braking,
                                    "urban")[0]
        rng = np.random.default_rng(3)
        states = np.array([channel.initial(rng) for _ in range(16)])
        noise = rng.standard_normal(states.shape)
        moved = channel.mutate(states, noise)
        for column, coord in enumerate((0, 1, 5)):
            assert np.array_equal(moved[:, coord],
                                  0.8 * states[:, coord]
                                  + math.sqrt(1.0 - 0.8 ** 2)
                                  * noise[:, column])
        for column, coord in enumerate((2, 3, 4), start=3):
            assert np.array_equal(moved[:, coord],
                                  (states[:, coord] + 0.12 * noise[:, column])
                                  % 1.0)

    def test_never_closing_scores_zero(self, world, policy, perception,
                                       braking):
        # A fast receding car (non-crossing, counterpart much faster than
        # any ego speed) dissolves the conflict: score exactly 0.
        channels = {c.counterpart: c
                    for c in severity_channels(policy, world, perception,
                                               braking, "urban")}
        car = channels[ActorClass.CAR]
        state = np.array([0.0, 30.0, 0.9, 0.9, 0.9, 0.0])
        assert car.score(state) == 0.0


class TestAcceleratedRate:
    def test_rejects_unknown_method(self, world, policy, perception,
                                    braking):
        rate = naive_collision_rate(policy, world, perception, braking,
                                    {"urban": 1.0}, seed=1,
                                    replications_per_stratum=2,
                                    hours_per_replication=1.0)
        with pytest.raises(ValueError):
            AcceleratedRate(method="magic", estimate=rate.estimate)

    def test_to_dict_shapes(self, world, policy, perception, braking):
        naive = naive_collision_rate(policy, world, perception, braking,
                                     {"urban": 1.0}, seed=1,
                                     replications_per_stratum=2,
                                     hours_per_replication=1.0)
        payload = naive.to_dict()
        assert payload["method"] == "none"
        assert "weight_diagnostics" not in payload
        weighted = importance_collision_rate(
            policy, world, perception, braking, {"urban": 1.0},
            tilt=ProposalTilt(), seed=1, replications_per_stratum=2,
            hours_per_replication=1.0)
        assert "weight_diagnostics" in weighted.to_dict()


class TestEstimators:
    def test_identity_tilt_is_bitwise_naive(self, world, policy, perception,
                                            braking):
        mix = {"urban": 0.7, "highway": 0.3}
        kw = dict(seed=42, replications_per_stratum=4,
                  hours_per_replication=5.0)
        naive = naive_collision_rate(policy, world, perception, braking,
                                     mix, **kw)
        weighted = importance_collision_rate(policy, world, perception,
                                             braking, mix,
                                             tilt=ProposalTilt(), **kw)
        assert weighted.method == "is"
        for a, b in zip(naive.estimate.strata, weighted.estimate.strata):
            assert a.context == b.context
            assert a.result.mean == b.result.mean
            assert a.result.std_error == b.result.std_error
        assert weighted.diagnostics.ess_fraction == pytest.approx(1.0)

    def test_dispatch_validates(self, world, policy, perception, braking):
        with pytest.raises(ValueError):
            accelerated_collision_rate(policy, world, perception, braking,
                                       {"urban": 1.0}, accelerator="warp",
                                       seed=1)
        with pytest.raises(ValueError):
            accelerated_collision_rate(policy, world, perception, braking,
                                       {"urban": 1.0}, accelerator="is",
                                       seed=1)

    def test_splitting_validates(self, world, policy, perception, braking):
        with pytest.raises(ValueError):
            splitting_collision_rate(policy, world, perception, braking,
                                     {"urban": 1.0}, seed=1, runs=1)
        with pytest.raises(ValueError):
            splitting_collision_rate(policy, world, perception, braking,
                                     {"urban": 2.0, "rural": -1.0}, seed=1)

    def test_splitting_structure_and_determinism(self, world, policy,
                                                 perception, braking):
        mix = {"urban": 1.0}
        kw = dict(seed=9, runs=2, particles=32, mutations_per_level=2,
                  max_levels=4)
        a = splitting_collision_rate(policy, world, perception, braking,
                                     mix, **kw)
        b = splitting_collision_rate(policy, world, perception, braking,
                                     mix, **kw)
        assert a.method == "splitting"
        assert tuple(s.context for s in a.estimate.strata) == ("urban",)
        assert a.estimate.mean == b.estimate.mean
        assert a.estimate.std_error == b.estimate.std_error
        assert a.estimate.mean >= 0.0
        assert a.diagnostics is None
