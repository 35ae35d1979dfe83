"""Tests for the Gamma-Poisson (simulation-supported) machinery."""

from __future__ import annotations

import math

import pytest

from repro.stats.bayes import (JEFFREYS, GammaRatePrior,
                               field_exposure_to_demonstrate,
                               prior_from_simulation)


class TestGammaRatePrior:
    def test_conjugate_update(self):
        prior = GammaRatePrior(2.0, 100.0)
        posterior = prior.updated(3, 400.0)
        assert posterior.alpha == 5.0
        assert posterior.beta == 500.0

    def test_mean(self):
        assert GammaRatePrior(4.0, 200.0).mean() == pytest.approx(0.02)

    def test_credible_interval_brackets_mean(self):
        prior = GammaRatePrior(10.0, 1000.0)
        low, high = prior.credible_interval(0.9)
        assert low < prior.mean() < high

    def test_upper_bound_monotone_in_confidence(self):
        prior = GammaRatePrior(3.0, 300.0)
        assert prior.credible_upper(0.99) > prior.credible_upper(0.90)

    def test_probability_below_monotone_in_budget(self):
        prior = GammaRatePrior(3.0, 300.0)
        assert prior.probability_below(1e-1) > prior.probability_below(1e-3)

    def test_improper_prior_queries(self):
        assert math.isinf(JEFFREYS.mean())
        assert JEFFREYS.probability_below(1e-6) == 0.0
        assert math.isinf(JEFFREYS.credible_upper())

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaRatePrior(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaRatePrior(1.0, -1.0)
        with pytest.raises(ValueError):
            GammaRatePrior(1.0, 1.0).updated(-1, 1.0)


class TestJeffreysCalibration:
    def test_clean_run_close_to_frequentist(self):
        """Jeffreys + (0 events, T) roughly reproduces the exact bound —
        the machinery reduces gracefully when no prior is claimed."""
        exposure = 1e6
        bayes_bound = JEFFREYS.updated(0, exposure).credible_upper(0.95)
        freq_bound = 3.0 / exposure
        assert bayes_bound == pytest.approx(freq_bound, rel=0.45)
        assert bayes_bound < freq_bound  # Jeffreys is slightly tighter


class TestSimulationPrior:
    def test_discount_credits_exposure(self):
        prior = prior_from_simulation(2, 1e6, validity_discount=0.1)
        assert prior.beta == pytest.approx(1e5)
        assert prior.alpha == pytest.approx(0.5 + 0.2)

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            prior_from_simulation(0, 1e6, validity_discount=0.0)
        with pytest.raises(ValueError):
            prior_from_simulation(0, 1e6, validity_discount=1.5)

    def test_simulation_reduces_field_burden(self):
        """The Sec. IV point made quantitative: credited simulation hours
        subtract (at the exchange rate) from the field burden."""
        budget = 1e-6
        without = field_exposure_to_demonstrate(JEFFREYS, budget)
        with_sim = field_exposure_to_demonstrate(
            prior_from_simulation(0, 1e7, validity_discount=0.1), budget)
        assert with_sim < without
        assert without - with_sim == pytest.approx(1e6, rel=0.01)

    def test_dirty_simulation_increases_burden(self):
        """Simulated *events* count against the claim too — the prior is
        not a free pass."""
        budget = 1e-6
        clean = field_exposure_to_demonstrate(
            prior_from_simulation(0, 1e6, 0.5), budget)
        dirty = field_exposure_to_demonstrate(
            prior_from_simulation(5, 1e6, 0.5), budget)
        assert dirty > clean


class TestFieldExposurePlanning:
    def test_already_demonstrated_needs_nothing(self):
        prior = GammaRatePrior(0.5, 1e9)
        assert field_exposure_to_demonstrate(prior, 1e-6) == 0.0

    def test_demonstration_is_exact_at_the_answer(self):
        prior = prior_from_simulation(1, 1e5, 0.2)
        budget = 1e-4
        needed = field_exposure_to_demonstrate(prior, budget)
        assert prior.updated(0, needed).demonstrates(budget)
        assert not prior.updated(0, needed * 0.99).demonstrates(budget)

    def test_events_during_campaign_raise_burden(self):
        prior = JEFFREYS
        clean = field_exposure_to_demonstrate(prior, 1e-5)
        with_events = field_exposure_to_demonstrate(
            prior, 1e-5, assumed_field_events=3)
        assert with_events > clean

    def test_validation(self):
        with pytest.raises(ValueError):
            field_exposure_to_demonstrate(JEFFREYS, 0.0)
        with pytest.raises(ValueError):
            field_exposure_to_demonstrate(JEFFREYS, 1e-6,
                                          assumed_field_events=-1)
