"""Tests for the Monte-Carlo driving simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incident import figure5_incident_types
from repro.core.taxonomy import ActorClass
from repro.traffic.encounters import EncounterGenerator, default_context_profiles
from repro.traffic.faults import BrakingSystem
from repro.traffic.incidents import type_counts
from repro.traffic.perception import default_perception, degraded_perception
from repro.traffic.policy import (aggressive_policy, cautious_policy,
                                  nominal_policy)
from repro.traffic.simulator import (SimulationConfig, simulate, simulate_mix)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}


@pytest.fixture(scope="module")
def generator():
    return EncounterGenerator(default_context_profiles())


@pytest.fixture(scope="module")
def nominal_run(generator):
    return simulate_mix(nominal_policy(), generator, default_perception(),
                        BrakingSystem(), MIX, 3000.0,
                        np.random.default_rng(100))


class TestBasics:
    def test_exposure_bookkeeping(self, nominal_run):
        assert nominal_run.hours == pytest.approx(3000.0)
        assert sum(nominal_run.context_hours.values()) == \
            pytest.approx(3000.0)
        assert nominal_run.context_hours["urban"] == pytest.approx(1500.0)

    def test_records_well_formed(self, nominal_run):
        for record in nominal_run.records:
            assert 0 <= record.time_h <= nominal_run.hours
            if record.is_collision:
                assert record.delta_v_kmh > 0
            else:
                assert record.min_distance_m > 0

    def test_deterministic_under_seed(self, generator):
        a = simulate(nominal_policy(), generator, default_perception(),
                     BrakingSystem(), "urban", 100.0,
                     np.random.default_rng(7))
        b = simulate(nominal_policy(), generator, default_perception(),
                     BrakingSystem(), "urban", 100.0,
                     np.random.default_rng(7))
        assert len(a.records) == len(b.records)
        assert a.hard_braking_demands == b.hard_braking_demands

    def test_mix_must_sum_to_one(self, generator):
        with pytest.raises(ValueError, match="sum to 1"):
            simulate_mix(nominal_policy(), generator, default_perception(),
                         BrakingSystem(), {"urban": 0.5}, 10.0,
                         np.random.default_rng(0))

    def test_merge_different_policies_rejected(self, generator):
        a = simulate(nominal_policy(), generator, default_perception(),
                     BrakingSystem(), "urban", 10.0,
                     np.random.default_rng(1))
        b = simulate(cautious_policy(), generator, default_perception(),
                     BrakingSystem(), "urban", 10.0,
                     np.random.default_rng(2))
        with pytest.raises(ValueError, match="policies"):
            a.merged(b)


class TestPaperArguments:
    def test_policy_shapes_collision_exposure(self, generator):
        """Sec. II-B-2: exposure is a design choice — collision rates span
        orders of magnitude across policies in the same world."""
        results = {}
        for policy in (cautious_policy(), nominal_policy(),
                       aggressive_policy()):
            run = simulate_mix(policy, generator, default_perception(),
                               BrakingSystem(), MIX, 2000.0,
                               np.random.default_rng(11))
            results[policy.name] = run.collision_rate_per_hour()
        assert results["cautious"] < results["nominal"] < \
            results["aggressive"]
        assert results["aggressive"] > 10 * results["cautious"]

    def test_proactivity_reduces_hard_braking_demand(self, generator):
        """Sec. II-B-3: more proactive capability ⇒ fewer >4 m/s² demands."""
        base = nominal_policy()
        reactive = base.with_proactivity(0.0, 0.0)
        proactive = base.with_proactivity(0.6, 0.9)
        runs = {}
        for policy in (reactive, proactive):
            run = simulate_mix(policy, generator, default_perception(),
                               BrakingSystem(), MIX, 2000.0,
                               np.random.default_rng(13))
            runs[policy.name] = run.hard_braking_rate_per_hour()
        assert runs[proactive.name] < runs[reactive.name]

    def test_degraded_perception_worsens_outcomes(self, generator):
        good = simulate_mix(nominal_policy(), generator,
                            default_perception(), BrakingSystem(), MIX,
                            2000.0, np.random.default_rng(17))
        bad = simulate_mix(nominal_policy(), generator,
                           degraded_perception(miss_probability=0.05),
                           BrakingSystem(), MIX, 2000.0,
                           np.random.default_rng(17))
        assert bad.collision_rate_per_hour() > good.collision_rate_per_hour()

    def test_capability_awareness_mitigates_fault(self, generator):
        """The paper's braking argument: an aware policy compensates for
        degraded braking; an unaware one drives into trouble.  The
        degradation must bite below the comfort-braking level (here
        2 m/s² < 3 m/s²) — a 4 m/s² fault leaves comfort stops intact and
        awareness nearly moot, which is itself the paper's point about
        what counts as safety-critical."""
        faulty = BrakingSystem(degraded_ms2=2.0, degradation_occupancy=0.5,
                               reports_capability=True)
        silent = BrakingSystem(degraded_ms2=2.0, degradation_occupancy=0.5,
                               reports_capability=False)
        aware = simulate_mix(nominal_policy(), generator,
                             default_perception(), faulty, MIX, 2500.0,
                             np.random.default_rng(19))
        unaware = simulate_mix(nominal_policy(), generator,
                               default_perception(), silent, MIX, 2500.0,
                               np.random.default_rng(19))
        assert aware.collision_rate_per_hour() < \
            unaware.collision_rate_per_hour()


class TestIncidentPipeline:
    def test_type_counts_cover_vru_records(self, nominal_run):
        types = list(figure5_incident_types())
        counts, unclassified = type_counts(nominal_run, types)
        vru_records = [r for r in nominal_run.records
                       if r.counterpart is ActorClass.VRU]
        covered = sum(counts.values())
        # Every VRU record within the I1-I3 margins is classified; the
        # unclassified bucket holds non-VRU counterparts and outliers.
        assert covered <= len(vru_records)
        assert covered + unclassified == len(nominal_run.records)

    def test_counting_log_conversion(self, nominal_run):
        types = list(figure5_incident_types())

        def categorise(record):
            owners = [t.type_id for t in types if t.matches(record)]
            return owners[0] if owners else None

        log = nominal_run.counting_log(categorise)
        assert log.exposure == nominal_run.hours
        counts, _ = type_counts(nominal_run, types)
        assert log.counts_by_category() == {
            k: v for k, v in counts.items() if v > 0}


class TestHourSplitting:
    """Context weights that don't divide ``hours`` evenly must neither
    drop nor double-count exposure (the Eq. 1 denominator)."""

    def test_thirds_sum_back_exactly(self, generator):
        mix = {"urban": 1 / 3, "suburban": 1 / 3, "rural": 1 / 3}
        run = simulate_mix(nominal_policy(), generator, default_perception(),
                           BrakingSystem(), mix, 1000.0,
                           np.random.default_rng(3))
        total = 0.0
        for hours in run.context_hours.values():
            total += hours
        assert total == 1000.0  # bit-for-bit, not approx
        assert run.hours == 1000.0

    def test_sevenths_and_awkward_hours(self, generator):
        mix = {"urban": 1 / 7, "suburban": 2 / 7, "rural": 4 / 7}
        hours = 1234.567
        run = simulate_mix(nominal_policy(), generator, default_perception(),
                           BrakingSystem(), mix, hours,
                           np.random.default_rng(5))
        total = 0.0
        for ctx_hours in run.context_hours.values():
            total += ctx_hours
        assert total == hours
        assert all(h > 0 for h in run.context_hours.values())

    def test_parts_track_weights(self, generator):
        mix = {"urban": 0.6, "highway": 0.4}
        run = simulate_mix(nominal_policy(), generator, default_perception(),
                           BrakingSystem(), mix, 999.0,
                           np.random.default_rng(7))
        assert run.context_hours["urban"] == pytest.approx(599.4)
        assert run.context_hours["highway"] == pytest.approx(399.6)

    def test_single_context_gets_everything(self, generator):
        run = simulate_mix(nominal_policy(), generator, default_perception(),
                           BrakingSystem(), {"urban": 1.0}, 321.123,
                           np.random.default_rng(9))
        assert run.context_hours == {"urban": 321.123}

    def test_zero_weight_context_excluded(self, generator):
        mix = {"urban": 0.5, "suburban": 0.5, "highway": 0.0}
        run = simulate_mix(nominal_policy(), generator, default_perception(),
                           BrakingSystem(), mix, 100.0,
                           np.random.default_rng(11))
        assert "highway" not in run.context_hours
        total = 0.0
        for hours in run.context_hours.values():
            total += hours
        assert total == 100.0


class TestConfig:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(near_miss_distance_m=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(hard_braking_threshold_ms2=0.0)

    def test_threshold_changes_demand_count(self, generator):
        low = simulate(nominal_policy(), generator, default_perception(),
                       BrakingSystem(), "urban", 500.0,
                       np.random.default_rng(23),
                       SimulationConfig(hard_braking_threshold_ms2=2.0))
        high = simulate(nominal_policy(), generator, default_perception(),
                        BrakingSystem(), "urban", 500.0,
                        np.random.default_rng(23),
                        SimulationConfig(hard_braking_threshold_ms2=6.0))
        assert low.hard_braking_demands >= high.hard_braking_demands


class TestInducedIncidents:
    """Fig. 4's lower half: the ego as a causing factor."""

    def test_induced_records_emitted_under_reactive_policy(self, generator):
        from repro.traffic.policy import nominal_policy
        reactive = nominal_policy().with_proactivity(0.0, 0.0,
                                                     sight_margin=1.4)
        run = simulate_mix(reactive, generator, default_perception(),
                           BrakingSystem(), MIX, 1500.0,
                           np.random.default_rng(31))
        induced = [r for r in run.records if r.induced]
        assert induced
        assert all(not r.is_collision for r in induced)
        assert all(r.counterpart is ActorClass.CAR for r in induced)

    def test_proactive_policy_induces_less(self, generator):
        """Fewer hard stops ⇒ fewer induced incidents — the same lever
        moves both halves of Fig. 4."""
        reactive = nominal_policy().with_proactivity(0.0, 0.0,
                                                     sight_margin=1.4)
        proactive = nominal_policy().with_proactivity(0.6, 0.9,
                                                      sight_margin=0.5)
        counts = {}
        for policy in (reactive, proactive):
            run = simulate_mix(policy, generator, default_perception(),
                               BrakingSystem(), MIX, 1500.0,
                               np.random.default_rng(33))
            counts[policy.name] = sum(1 for r in run.records if r.induced)
        assert counts[proactive.name] < counts[reactive.name]

    def test_induced_type_classification_is_exclusive(self, generator):
        """Induced records land on the induced type only; direct Ego<->Car
        near-misses never do."""
        from repro.core import induced_follower_type
        reactive = nominal_policy().with_proactivity(0.0, 0.0,
                                                     sight_margin=1.4)
        run = simulate_mix(reactive, generator, default_perception(),
                           BrakingSystem(), MIX, 1000.0,
                           np.random.default_rng(35))
        types = list(figure5_incident_types()) + [induced_follower_type()]
        counts, _ = type_counts(run, types)
        n_induced_records = sum(
            1 for r in run.records if r.induced
            and induced_follower_type().matches(r))
        assert counts["IND1"] == n_induced_records

    def test_follower_presence_zero_disables_induction(self, generator):
        run = simulate_mix(
            aggressive_policy(), generator, default_perception(),
            BrakingSystem(), MIX, 500.0, np.random.default_rng(37),
            SimulationConfig(follower_presence_probability=0.0))
        assert not any(r.induced for r in run.records)

    def test_induced_budget_verification_end_to_end(self, generator):
        """An induced type carries a budget and verifies like any other —
        the paper's one-framework claim covers Fig. 4's lower half."""
        from repro.core import (allocate_lp, derive_safety_goals,
                                example_norm, induced_follower_type,
                                verify_against_counts)
        norm = example_norm().tightened(1e3, name="sim-scale")
        types = list(figure5_incident_types()) + [induced_follower_type()]
        goals = derive_safety_goals(allocate_lp(norm, types,
                                                objective="max-min"))
        run = simulate_mix(nominal_policy(), generator,
                           default_perception(), BrakingSystem(), MIX,
                           2000.0, np.random.default_rng(39))
        counts, _ = type_counts(run, types)
        report = verify_against_counts(goals, counts, run.hours)
        assert report.goal("SG-IND1") is not None
        # The induced contribution lands in the quality classes.
        assert report.consequence_class("vQ2").expected_load >= 0
