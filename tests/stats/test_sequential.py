"""Tests for the sequential (SPRT) demonstration machinery."""

from __future__ import annotations

import pytest

from repro.stats.sequential import (SprtDecision, SprtPlan,
                                    expected_acceptance_exposure)


@pytest.fixture
def plan():
    return SprtPlan(budget_rate=1e-4, margin=2.0, alpha=0.05, beta=0.05)


class TestPlan:
    def test_hypothesis_rates(self, plan):
        assert plan.lambda0 == 1e-4
        assert plan.lambda1 == 5e-5

    def test_bounds_ordered(self, plan):
        assert plan.lower_bound < 0 < plan.upper_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            SprtPlan(budget_rate=0.0)
        with pytest.raises(ValueError):
            SprtPlan(budget_rate=1e-4, margin=1.0)
        with pytest.raises(ValueError):
            SprtPlan(budget_rate=1e-4, alpha=0.6)

    def test_llr_zero_at_start(self, plan):
        assert plan.log_likelihood_ratio(0, 0.0) == 0.0

    def test_clean_exposure_drives_llr_down(self, plan):
        assert plan.log_likelihood_ratio(0, 1e4) < 0

    def test_events_drive_llr_up(self, plan):
        clean = plan.log_likelihood_ratio(0, 1e4)
        with_events = plan.log_likelihood_ratio(3, 1e4)
        assert with_events > clean

    def test_clean_acceptance_exposure_consistent(self, plan):
        exposure = plan.acceptance_exposure_clean()
        assert plan.decide(0, exposure * 1.001) is SprtDecision.ACCEPT
        assert plan.decide(0, exposure * 0.9) is SprtDecision.CONTINUE


class TestState:
    def test_accumulates_and_decides(self, plan):
        state = plan.state()
        horizon = plan.acceptance_exposure_clean()
        decision = SprtDecision.CONTINUE
        steps = 0
        while decision is SprtDecision.CONTINUE:
            decision = state.observe(0, horizon / 10)
            steps += 1
        assert decision is SprtDecision.ACCEPT
        assert steps <= 11

    def test_event_burst_rejects(self, plan):
        state = plan.state()
        decision = state.observe(200, 1e4)  # 20x the budget rate
        assert decision is SprtDecision.REJECT

    def test_terminal_state_is_final(self, plan):
        state = plan.state()
        state.observe(500, 1e4)
        assert state.decision is SprtDecision.REJECT
        with pytest.raises(RuntimeError, match="already decided"):
            state.observe(0, 1.0)

    def test_invalid_observations(self, plan):
        state = plan.state()
        with pytest.raises(ValueError):
            state.observe(-1, 1.0)
        with pytest.raises(ValueError):
            state.observe(0, 0.0)


class TestOperatingCharacteristics:
    def test_good_system_accepted(self, plan):
        """True rate 10x below budget: acceptance with high probability."""
        _, acceptance, _ = expected_acceptance_exposure(
            plan, true_rate=1e-5, seed=1, replications=120)
        assert acceptance > 0.95

    def test_bad_system_rejected(self, plan):
        """True rate 2x the budget: rejection with high probability."""
        _, acceptance, _ = expected_acceptance_exposure(
            plan, true_rate=2e-4, seed=2, replications=120)
        assert acceptance < 0.05

    def test_boundary_error_rate_bounded(self, plan):
        """At exactly the budget rate, acceptance ≈ alpha (Wald bound +
        overshoot slack)."""
        _, acceptance, _ = expected_acceptance_exposure(
            plan, true_rate=plan.lambda0, seed=3, replications=300)
        assert acceptance <= plan.alpha + 0.05

    def test_bad_system_decides_faster_than_clean_acceptance(self, plan):
        """Early rejection is the SPRT's selling point: a clearly bad
        system is thrown out before a clean run would even accept."""
        exposure_bad, _, _ = expected_acceptance_exposure(
            plan, true_rate=5e-4, seed=4, replications=100)
        assert exposure_bad < plan.acceptance_exposure_clean()

    def test_invalid_args(self, plan):
        with pytest.raises(ValueError):
            expected_acceptance_exposure(plan, true_rate=-1.0)
        with pytest.raises(ValueError):
            expected_acceptance_exposure(plan, true_rate=1e-5,
                                         replications=0)
