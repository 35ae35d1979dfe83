"""Tests for statistical norm-fulfilment verification."""

from __future__ import annotations

import math

import pytest

from repro.core.allocation import allocate_proportional
from repro.core.safety_goals import derive_safety_goals
from repro.core.verification import (Verdict, verify_against_counts,
                                     verify_class_counts)


@pytest.fixture
def goals(allocation):
    return derive_safety_goals(allocation)


class TestGoalVerdicts:
    def test_zero_events_huge_exposure_demonstrates(self, goals):
        # I2 budget ~1.7e-6/h; 1e7 clean hours give UCB ~3e-7 < budget.
        report = verify_against_counts(goals, {}, exposure=1e7)
        assert report.goal("SG-I2").verdict is Verdict.DEMONSTRATED

    def test_zero_events_small_exposure_inconclusive(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e4)
        verdict = report.goal("SG-I2")
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.additional_exposure_needed() > 0

    def test_point_estimate_above_budget_violates(self, goals):
        budget = goals["SG-I2"].max_frequency.rate
        exposure = 1e6
        count = int(budget * exposure * 10) + 1
        report = verify_against_counts(goals, {"I2": count}, exposure)
        assert report.goal("SG-I2").verdict is Verdict.VIOLATED
        assert report.any_violated

    def test_unknown_type_in_counts_rejected(self, goals):
        with pytest.raises(KeyError, match="IX"):
            verify_against_counts(goals, {"IX": 1}, exposure=1e4)

    def test_invalid_exposure_rejected(self, goals):
        for exposure in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                verify_against_counts(goals, {}, exposure=exposure)

    def test_margin_decades(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e9)
        verdict = report.goal("SG-I1")
        assert verdict.margin_decades > 0

    def test_demonstrated_needs_no_more_exposure(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e9)
        assert report.goal("SG-I1").additional_exposure_needed() == 0.0


class TestClassVerdicts:
    def test_class_propagation_through_splits(self, goals):
        """Class load = split-weighted type rates."""
        report = verify_against_counts(goals, {"I2": 10}, exposure=1e6)
        verdict = report.consequence_class("vS1")
        assert verdict.expected_load == pytest.approx(0.7 * 10 / 1e6)

    def test_class_upper_bound_is_conservative_sum(self, goals):
        report = verify_against_counts(goals, {"I2": 10}, exposure=1e6)
        class_ub = report.consequence_class("vS1").upper_bound
        goal_ub = report.goal("SG-I2").upper_bound
        goal_ub3 = report.goal("SG-I3").upper_bound
        assert class_ub == pytest.approx(0.7 * goal_ub + 0.15 * goal_ub3)

    def test_all_demonstrated_at_huge_exposure(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e10)
        assert report.all_demonstrated

    def test_direct_class_counts(self, allocation):
        verdicts = verify_class_counts(allocation, {"vQ1": 5}, exposure=1e4)
        by_id = {v.class_id: v for v in verdicts}
        assert by_id["vQ1"].expected_load == pytest.approx(5e-4)
        assert by_id["vQ1"].verdict is Verdict.DEMONSTRATED

    def test_direct_class_counts_unknown_class(self, allocation):
        with pytest.raises(KeyError, match="vX"):
            verify_class_counts(allocation, {"vX": 1}, exposure=1e4)

    def test_direct_class_violation(self, allocation):
        budget = allocation.norm.budget("vS3").rate
        exposure = 1e6
        count = int(budget * exposure * 100) + 10
        verdicts = verify_class_counts(allocation, {"vS3": count}, exposure)
        by_id = {v.class_id: v for v in verdicts}
        assert by_id["vS3"].verdict is Verdict.VIOLATED


class TestReport:
    def test_summary_lists_all(self, goals):
        report = verify_against_counts(goals, {"I1": 3}, exposure=1e5)
        text = report.summary()
        for goal_id in goals.goal_ids:
            assert goal_id in text
        for class_id in goals.norm.class_ids:
            assert class_id in text
        assert "Overall" in text

    def test_unknown_lookups_raise(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e5)
        with pytest.raises(KeyError):
            report.goal("SG-IX")
        with pytest.raises(KeyError):
            report.consequence_class("vX")

    def test_verdict_trichotomy(self, goals):
        """Every goal verdict is exactly one of the three states."""
        for exposure in (1e3, 1e6, 1e9):
            report = verify_against_counts(goals, {"I1": 2}, exposure)
            for verdict in report.goal_verdicts:
                assert verdict.verdict in (Verdict.DEMONSTRATED,
                                           Verdict.INCONCLUSIVE,
                                           Verdict.VIOLATED)

    def test_more_exposure_never_downgrades_clean_run(self, goals):
        """With zero events, growing exposure only improves verdicts."""
        order = {Verdict.VIOLATED: 0, Verdict.INCONCLUSIVE: 1,
                 Verdict.DEMONSTRATED: 2}
        previous = None
        for exposure in (1e2, 1e4, 1e6, 1e8, 1e10):
            report = verify_against_counts(goals, {}, exposure)
            worst = min(order[v.verdict] for v in report.goal_verdicts)
            if previous is not None:
                assert worst >= previous
            previous = worst


class TestRows:
    def test_rows_at_the_demonstration_edge(self, norm, fig5_types):
        """The 40 000 h, seed 2020 fleet campaign's counts against the
        sim-scale goals: SG-I3's 83 events put its one-sided 95 % bound
        at 99.6 % of the 0.0025 /h budget, so the row is demonstrated."""
        from repro.core.allocation import allocate_lp
        scaled = norm.tightened(1e4, name="sim-scale QRN")
        goals = derive_safety_goals(
            allocate_lp(scaled, fig5_types, objective="max-min"))
        report = verify_against_counts(
            goals, {"I1": 1398, "I2": 8, "I3": 83}, 40000.0)
        rows = report.to_rows()
        assert [row["budget_id"] for row in rows] == \
            [*goals.allocation.type_ids, *goals.norm.class_ids]
        i3 = rows[goals.allocation.type_ids.index("I3")]
        assert (i3["kind"], i3["observed"], i3["exposure"]) == \
            ("incident_type", 83.0, 40000.0)
        assert i3["budget_rate"] == pytest.approx(0.0025)
        assert i3["rate"] == 83 / 40000.0
        assert i3["rate_upper"] == report.goal("SG-I3").upper_bound
        assert i3["utilisation"] == pytest.approx(0.83)
        assert i3["utilisation_upper"] == pytest.approx(0.9962, abs=5e-5)
        assert (i3["confidence"], i3["verdict"]) == (0.95, "demonstrated")
        vs3 = rows[-1]
        assert (vs3["kind"], vs3["budget_id"], vs3["verdict"]) == \
            ("consequence_class", "vS3", "demonstrated")


class TestSupportableTightening:
    def test_strong_evidence_supports_tightening(self, goals):
        from repro.core.verification import supportable_tightening
        report = verify_against_counts(goals, {}, exposure=1e10)
        factor = supportable_tightening(report)
        assert factor < 0.1  # could tighten the norm >10x

    def test_weak_evidence_cannot_support_current_norm(self, goals):
        from repro.core.verification import supportable_tightening
        report = verify_against_counts(goals, {}, exposure=1e3)
        assert supportable_tightening(report) > 1.0

    def test_factor_is_exactly_the_worst_headroom(self, goals):
        from repro.core.verification import supportable_tightening
        report = verify_against_counts(goals, {"I1": 5}, exposure=1e8)
        factor = supportable_tightening(report)
        ratios = [v.upper_bound / v.budget.rate
                  for v in report.goal_verdicts if v.budget.rate > 0]
        ratios += [v.upper_bound / v.budget.rate
                   for v in report.class_verdicts if v.budget.rate > 0]
        assert factor == max(ratios)

    def test_tightened_norm_would_be_demonstrated(self, norm, fig5_types):
        """The semantics check: tightening by the returned factor leaves
        every goal exactly at the demonstration boundary."""
        from repro.core.allocation import allocate_proportional
        from repro.core.safety_goals import derive_safety_goals
        from repro.core.verification import supportable_tightening
        goals = derive_safety_goals(allocate_proportional(norm, fig5_types))
        report = verify_against_counts(goals, {}, exposure=1e9)
        factor = supportable_tightening(report)
        assert factor < 1.0
        tightened_norm = norm.tightened(factor * 1.001)
        tightened_goals = derive_safety_goals(
            allocate_proportional(tightened_norm, fig5_types))
        tightened_report = verify_against_counts(tightened_goals, {},
                                                 exposure=1e9)
        # Not necessarily ALL demonstrated (allocation reshuffles), but
        # the class-level norm claims hold: every class UCB fits.
        for verdict in tightened_report.class_verdicts:
            assert verdict.upper_bound <= \
                tightened_norm.budget(verdict.class_id).rate * 1.05
