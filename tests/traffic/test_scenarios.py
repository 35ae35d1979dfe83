"""Tests for the concrete scenario library (Sec. IV solution domain)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Frequency, figure5_incident_types
from repro.traffic.faults import BrakingSystem
from repro.traffic.policy import (aggressive_policy, cautious_policy,
                                  nominal_policy)
from repro.traffic.scenarios import (AnimalRunOut, CrossingPedestrian,
                                     CutIn, LeadVehicleBraking,
                                     ObstacleBehindCurve, ScenarioSuite,
                                     incident_rate_contributions,
                                     run_scenario)

ALL_SCENARIOS = [CrossingPedestrian(), LeadVehicleBraking(), CutIn(),
                 ObstacleBehindCurve(), AnimalRunOut()]


@pytest.fixture(scope="module")
def braking():
    return BrakingSystem()


class TestOutcomes:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: s.name)
    def test_outcomes_well_formed(self, scenario, braking):
        rng = np.random.default_rng(1)
        for _ in range(200):
            outcome = scenario.resolve(nominal_policy(), braking, rng)
            if outcome.collided:
                assert outcome.conflict
                assert outcome.impact_speed_kmh > 0
            if not outcome.conflict:
                assert not outcome.collided
            assert outcome.approach_speed_kmh >= 0
            assert outcome.counterpart is scenario.counterpart

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS,
                             ids=lambda s: s.name)
    def test_records_round_trip(self, scenario, braking):
        rng = np.random.default_rng(2)
        for _ in range(100):
            outcome = scenario.resolve(nominal_policy(), braking, rng)
            record = outcome.to_record(0.5, scenario.context)
            if outcome.conflict:
                assert record is not None
                assert record.is_collision == outcome.collided
            else:
                assert record is None

    def test_deterministic_under_seed(self, braking):
        scenario = CrossingPedestrian()
        a = scenario.resolve(nominal_policy(), braking,
                             np.random.default_rng(7))
        b = scenario.resolve(nominal_policy(), braking,
                             np.random.default_rng(7))
        assert a == b


class TestPolicySensitivity:
    @pytest.mark.parametrize("scenario",
                             [CrossingPedestrian(), ObstacleBehindCurve(),
                              AnimalRunOut()],
                             ids=lambda s: s.name)
    def test_cautious_beats_aggressive(self, scenario, braking):
        """Every sight-driven scenario rewards caution."""
        rng_c = np.random.default_rng(11)
        rng_a = np.random.default_rng(11)
        cautious, _ = run_scenario(scenario, cautious_policy(), braking,
                                   rng_c, replications=1500)
        aggressive, _ = run_scenario(scenario, aggressive_policy(), braking,
                                     rng_a, replications=1500)
        assert cautious.collision_probability <= \
            aggressive.collision_probability

    def test_degraded_braking_hurts_when_unreported(self):
        scenario = CrossingPedestrian()
        healthy = BrakingSystem(degradation_occupancy=0.0)
        blind = BrakingSystem(degraded_ms2=2.0, degradation_occupancy=0.8,
                              reports_capability=False)
        good, _ = run_scenario(scenario, nominal_policy(), healthy,
                               np.random.default_rng(13),
                               replications=1500)
        bad, _ = run_scenario(scenario, nominal_policy(), blind,
                              np.random.default_rng(13),
                              replications=1500)
        assert bad.collision_probability > good.collision_probability


class TestRunScenario:
    def test_statistics_consistent(self, braking):
        stats, outcomes = run_scenario(CutIn(), nominal_policy(), braking,
                                       np.random.default_rng(3),
                                       replications=500)
        assert stats.replications == 500
        collisions = sum(1 for o in outcomes if o.collided)
        assert stats.collision_probability == pytest.approx(
            collisions / 500)
        assert 0.0 <= stats.conflict_probability <= 1.0
        assert stats.collision_probability <= stats.conflict_probability

    def test_invalid_replications(self, braking):
        with pytest.raises(ValueError):
            run_scenario(CutIn(), nominal_policy(), braking,
                         np.random.default_rng(0), replications=0)


class TestSuiteAndContributions:
    def test_suite_validation(self):
        with pytest.raises(ValueError):
            ScenarioSuite({})
        scenario = CrossingPedestrian()
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSuite({scenario: Frequency.per_hour(1.0),
                           CrossingPedestrian(occlusion_mean_m=30.0):
                           Frequency.per_hour(2.0)})

    def test_contributions_land_on_matching_types(self, braking):
        """Pedestrian collisions feed the VRU incident types; animal and
        car scenarios contribute nothing to them."""
        suite = ScenarioSuite({
            CrossingPedestrian(): Frequency.per_hour(2.0),
            AnimalRunOut(): Frequency.per_hour(0.3),
            CutIn(): Frequency.per_hour(1.0),
        })
        evaluation = suite.evaluate(aggressive_policy(), braking,
                                    np.random.default_rng(17),
                                    replications=1500)
        types = list(figure5_incident_types())
        contributions = incident_rate_contributions(suite, evaluation,
                                                    types)
        vru_contributors = set(contributions["I2"]) | \
            set(contributions["I3"])
        assert vru_contributors <= {"crossing-pedestrian"}
        assert contributions["I2"] or contributions["I3"]

    def test_contribution_rates_bounded_by_encounter_rates(self, braking):
        suite = ScenarioSuite({
            CrossingPedestrian(): Frequency.per_hour(2.0),
        })
        evaluation = suite.evaluate(aggressive_policy(), braking,
                                    np.random.default_rng(19),
                                    replications=1000)
        contributions = incident_rate_contributions(
            suite, evaluation, list(figure5_incident_types()))
        total = sum(rate for per_type in contributions.values()
                    for rate in per_type.values())
        assert total <= 2.0 + 1e-9
