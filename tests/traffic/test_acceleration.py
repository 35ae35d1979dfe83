"""Tests for the rare-event acceleration layer (repro.traffic.acceleration).

Structural and exactness tests run in the fast tier: tilt bookkeeping,
the identity-tilt bitwise-oracle equivalence, severity-score fidelity to
the scalar oracle's collision predicate, weighted type counts, verdict
uncertainty, and the adaptive campaign mechanics.  The heavy 5-sigma
unbiasedness gates live in the ``stats`` tier
(tests/stats/test_statistical_verification.py).
"""

import math

import numpy as np
import pytest

from repro.core import (ActorClass, Frequency, PER_HOUR, IncidentRecord,
                        allocate_proportional, derive_safety_goals,
                        example_norm, figure5_incident_types, human_driver_baseline,
                        norm_from_human_baseline)
from repro.traffic import (AcceleratedRate, BrakingSystem,
                           EncounterGenerator, ProposalTilt,
                           accelerated_collision_rate,
                           adaptive_budget_campaign,
                           default_context_profiles, default_perception,
                           importance_collision_rate, naive_collision_rate,
                           nominal_policy, aggressive_policy,
                           severity_channels, simulate_importance,
                           simulate_vectorized, splitting_collision_rate,
                           encounter_log_weights, weighted_type_counts,
                           type_counts)
from repro.traffic.engine import CROSSING_CLASSES, ImportanceRun
from repro.traffic.records import RecordBlock
from repro.traffic.simulator import SimulationConfig, _resolve_encounter
from repro.traffic.encounters import Encounter, SIGHT_DISTANCE_CLAMP_M
from repro.obs import BudgetMonitor
from repro.obs.budget_monitor import BudgetUtilisation


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
        hours = 50.0
        run = simulate_importance(policy, world, perception, braking,
                                  "urban", hours,
                                  np.random.default_rng(7), None,
                                  tilt=ProposalTilt())
        reference = simulate_vectorized(policy, world, perception, braking,
                                        "urban", hours,
                                        np.random.default_rng(7), None)
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
            state = channel.mutate(state, rng)
            assert np.all(np.isfinite(state))
            for i in (2, 3, 4):
                assert 0.0 <= state[i] < 1.0
        a = channel.mutate(state, np.random.default_rng(8))
        b = channel.mutate(state, np.random.default_rng(8))
        assert np.array_equal(a, b)

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


class TestWeightedTypeCounts:
    def _records(self):
        return [
            IncidentRecord(counterpart=ActorClass.VRU, is_collision=False,
                           delta_v_kmh=0.0, min_distance_m=0.5,
                           approach_speed_kmh=20.0, time_h=0.1,
                           context="urban"),
            IncidentRecord(counterpart=ActorClass.VRU, is_collision=True,
                           delta_v_kmh=5.0, min_distance_m=0.0,
                           approach_speed_kmh=20.0, time_h=0.2,
                           context="urban"),
            IncidentRecord(counterpart=ActorClass.CAR, is_collision=True,
                           delta_v_kmh=30.0, min_distance_m=0.0,
                           approach_speed_kmh=50.0, time_h=0.3,
                           context="urban"),
        ]

    def test_unit_weights_match_plain_counts(self, fig5_types):
        records = self._records()
        totals, unclassified = weighted_type_counts(
            records, np.ones(len(records)), fig5_types)
        assert totals == {"I1": 1.0, "I2": 1.0, "I3": 0.0}
        assert unclassified == 1.0  # the CAR collision matches no type

    def test_weights_scale_contributions(self, fig5_types):
        records = self._records()
        totals, unclassified = weighted_type_counts(
            records, [0.25, 4.0, 10.0], fig5_types)
        assert totals == {"I1": 0.25, "I2": 4.0, "I3": 0.0}
        assert unclassified == 10.0

    def test_validates_weights(self, fig5_types):
        records = self._records()
        with pytest.raises(ValueError):
            weighted_type_counts(records, [1.0], fig5_types)
        with pytest.raises(ValueError):
            weighted_type_counts(records, [1.0, -1.0, 1.0], fig5_types)
        with pytest.raises(ValueError):
            weighted_type_counts(records, [1.0, math.nan, 1.0], fig5_types)


def _utilisation(lower, upper):
    return BudgetUtilisation(kind="incident_type", budget_id="T",
                             budget_rate=1.0, observed=1.0, exposure=10.0,
                             rate=(lower + upper) / 2, rate_lower=lower,
                             rate_upper=upper, confidence=0.95)


class TestVerdictUncertainty:
    def test_demonstrated_budget_is_settled(self):
        assert _utilisation(0.01, 0.9).verdict_uncertainty == 0.0

    def test_violated_budget_is_settled(self):
        assert _utilisation(1.5, 3.0).verdict_uncertainty == 0.0

    def test_open_budget_reports_ci_width(self):
        row = _utilisation(0.5, 2.0)
        assert row.verdict_uncertainty == pytest.approx(1.5)

    def test_report_uses_type_rows_only(self, allocation):
        goals = derive_safety_goals(allocation)
        monitor = BudgetMonitor(goals)
        monitor.observe_counts({tid: 0 for tid in
                                goals.allocation.type_ids}, 10.0)
        report = monitor.utilisation()
        uncertainty = report.verdict_uncertainty()
        assert set(uncertainty) == set(goals.allocation.type_ids)
        # At 10 h against 1e-6-class budgets every verdict is open.
        assert all(u > 0 for u in uncertainty.values())
        assert not report.all_settled()


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


def _generous_goals():
    baseline = {sev: Frequency(100.0, PER_HOUR)
                for sev in human_driver_baseline()}
    norm = norm_from_human_baseline("generous", 1.0, baseline=baseline)
    return derive_safety_goals(
        allocate_proportional(norm, figure5_incident_types()))


class TestAdaptiveCampaign:
    def test_settles_early_under_generous_budgets(self, world, policy,
                                                  perception, braking,
                                                  fig5_types):
        result = adaptive_budget_campaign(
            policy, world, perception, braking, _generous_goals(),
            fig5_types, {"urban": 1.0}, seed=4, rounds=3,
            replications_per_round=8, hours_per_replication=2.0)
        assert result.settled
        assert len(result.rounds) == 1  # settled after the first round
        assert result.report.all_settled()
        assert result.total_hours == pytest.approx(8 * 2.0)

    def test_open_budgets_run_all_rounds(self, world, policy, perception,
                                         braking, fig5_types, allocation):
        goals = derive_safety_goals(allocation)
        result = adaptive_budget_campaign(
            policy, world, perception, braking, goals, fig5_types,
            {"urban": 0.75, "rural": 0.25}, seed=4, rounds=2,
            replications_per_round=8, hours_per_replication=1.0)
        assert not result.settled
        assert len(result.rounds) == 2
        for round_record in result.rounds:
            assert sum(round_record.allocation.values()) == 8
            assert set(round_record.allocation) == {"urban", "rural"}
        # Round 1 is mix-driven (uniform uncertainty); later rounds carry
        # the budget-monitor scores.
        assert result.rounds[0].uncertainty == {"urban": 1.0, "rural": 1.0}
        assert all(u >= 0.0 for u in result.rounds[1].uncertainty.values())
        assert result.total_hours == pytest.approx(16.0)

    def test_campaign_is_deterministic(self, world, policy, perception,
                                       braking, fig5_types, allocation):
        goals = derive_safety_goals(allocation)
        kw = dict(seed=31, rounds=2, replications_per_round=6,
                  hours_per_replication=1.0)
        a = adaptive_budget_campaign(policy, world, perception, braking,
                                     goals, fig5_types, {"urban": 1.0}, **kw)
        b = adaptive_budget_campaign(policy, world, perception, braking,
                                     goals, fig5_types, {"urban": 1.0}, **kw)
        assert a.to_dict() == b.to_dict()
        assert [r.allocation for r in a.rounds] == \
            [r.allocation for r in b.rounds]

    def test_classifies_each_replication_once_on_the_columnar_path(
            self, world, policy, perception, braking, fig5_types,
            monkeypatch):
        """Counts feed both the monitor and the per-context shares, so no
        replication is decoded into record objects; the result is the
        one the two-pass classifier produced (I1 is open and seen in
        urban traffic only, so the round-2 scores differ by context)."""
        decodes = []
        to_records = RecordBlock.to_records

        def counting(block):
            decodes.append(len(block))
            return to_records(block)

        monkeypatch.setattr(RecordBlock, "to_records", counting)
        goals = derive_safety_goals(allocate_proportional(
            example_norm().tightened(10), fig5_types))
        result = adaptive_budget_campaign(
            policy, world, perception, braking, goals, fig5_types,
            {"urban": 0.75, "rural": 0.25}, seed=4, rounds=2,
            replications_per_round=8, hours_per_replication=5.0)
        assert decodes == []
        assert [r.uncertainty for r in result.rounds] == [
            {"rural": 1.0, "urban": 1.0},
            {"rural": 21211.871721249812, "urban": 21214.316301533865}]
        assert [r.allocation for r in result.rounds] == \
            [{"urban": 6, "rural": 2}] * 2
        assert result.to_dict() == {
            "settled": False, "rounds": 2, "total_hours": 80.0,
            "worst_utilisation": 1.0000000000000002,
            "verdict_uncertainty": {"I1": 2.2879308254443425,
                                    "I2": 2766.6595905854506,
                                    "I3": 18444.397270569676}}
        assert [row.observed for row in result.report.rows[:3]] == \
            [4.0, 0.0, 0.0]

    def test_validates_inputs(self, world, policy, perception, braking,
                              fig5_types, allocation):
        goals = derive_safety_goals(allocation)
        with pytest.raises(ValueError):
            adaptive_budget_campaign(policy, world, perception, braking,
                                     goals, fig5_types, {"urban": 1.0},
                                     seed=1, rounds=0)
        with pytest.raises(ValueError):
            adaptive_budget_campaign(policy, world, perception, braking,
                                     goals, fig5_types, {"urban": 0.0},
                                     seed=1)

    def test_to_dict_shape(self, world, policy, perception, braking,
                           fig5_types):
        result = adaptive_budget_campaign(
            policy, world, perception, braking, _generous_goals(),
            fig5_types, {"urban": 1.0}, seed=2, rounds=1,
            replications_per_round=4, hours_per_replication=1.0)
        payload = result.to_dict()
        assert set(payload) == {"settled", "rounds", "total_hours",
                                "worst_utilisation", "verdict_uncertainty"}
        assert set(payload["verdict_uncertainty"]) == {"I1", "I2", "I3"}
