"""Differential test: the ``scipy.special`` forms equal ``scipy.stats``.

:mod:`repro.stats.poisson` and :mod:`repro.stats.bayes` evaluate their
Gamma quantiles, Gamma CDFs and Poisson CDFs through the
``scipy.special`` functions ``scipy.stats`` itself calls for them, so the
package never imports ``scipy.stats`` (DESIGN §16).  The claim is that
every result is *bit-for-bit* what the ``scipy.stats`` expressions the
module used before returned.  ``scipy.stats`` is imported here only, as
the oracle, and compared with ``==`` — no tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as oracle

from repro.stats.bayes import JEFFREYS, GammaRatePrior, prior_from_simulation
from repro.stats.poisson import (demonstration_power, exposure_to_demonstrate,
                                 max_acceptable_count, rate_confidence_interval,
                                 rate_lower_bound, rate_upper_bound)

COUNTS = range(0, 301)
CONFIDENCES = (1e-6, 1e-3, 0.05, 0.5, 0.9, 0.95, 0.99, 1 - 1e-6, 1 - 1e-9,
               1 - 1e-12)
EXPOSURES = (1e-3, 3.7e4)
BETAS = tuple(float(b) for b in np.logspace(-3, 9, 13))
#: Jeffreys, power-prior fractions (events × discount), and integers.
ALPHAS = (0.5, 0.5 + 0.1, 0.5 + 0.37, 0.5 + 3 * 0.25, 1.0, 2.5,
          0.5 + 17 * 0.1, 12.0, 0.5 + 300 * 0.01, 300.5)


def _ppf(q, a, scale=1.0):
    return float(oracle.gamma.ppf(q, a, scale=scale))


class TestPoissonBounds:
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_one_sided_bounds(self, confidence):
        for count in COUNTS:
            for exposure in EXPOSURES:
                assert rate_upper_bound(count, exposure, confidence) == \
                    _ppf(confidence, count + 1) / exposure
                expected_lower = (0.0 if count == 0 else
                                  _ppf(1.0 - confidence, count) / exposure)
                assert rate_lower_bound(count, exposure, confidence) == \
                    expected_lower

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_two_sided_interval(self, confidence):
        alpha = 1.0 - confidence
        for count in COUNTS:
            estimate = rate_confidence_interval(count, 2.5e5, confidence)
            expected_lower = (0.0 if count == 0 else
                              _ppf(alpha / 2.0, count) / 2.5e5)
            assert estimate.lower == expected_lower
            assert estimate.upper == _ppf(1.0 - alpha / 2.0, count + 1) / 2.5e5

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_exposure_to_demonstrate(self, confidence):
        for count in COUNTS:
            assert exposure_to_demonstrate(1e-7, confidence, count) == \
                _ppf(confidence, count + 1) / 1e-7

    @pytest.mark.parametrize("confidence", (0.5, 0.9, 0.95, 0.99))
    @pytest.mark.parametrize("expected_events", (0.5, 3.0, 40.0, 250.0))
    def test_max_acceptable_count(self, confidence, expected_events):
        cutoff = max_acceptable_count(1e-5, expected_events / 1e-5,
                                      confidence)
        limit = 1e-5 * (expected_events / 1e-5)
        # The scipy.stats definition: the largest n whose quantile fits.
        if _ppf(confidence, 1) > limit:
            assert cutoff == -1
        else:
            assert _ppf(confidence, cutoff + 1) <= limit
            assert _ppf(confidence, cutoff + 2) > limit

    @pytest.mark.parametrize("true_rate", (0.0, 1e-7, 3e-6, 1e-5, 4e-5))
    def test_demonstration_power(self, true_rate):
        """``poisson.cdf(k, mu) == pdtr(k, mu)``, including ``mu = 0``."""
        for exposure in (5e4, 3e5, 1e6, 3e7):
            cutoff = max_acceptable_count(1e-5, exposure)
            expected = (0.0 if cutoff < 0 else
                        float(oracle.poisson.cdf(cutoff, true_rate * exposure)))
            assert demonstration_power(true_rate, 1e-5, exposure) == expected


class TestGammaPosterior:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_credible_bounds(self, alpha):
        for beta in BETAS:
            prior = GammaRatePrior(alpha, beta)
            for confidence in CONFIDENCES:
                assert prior.credible_upper(confidence) == \
                    _ppf(confidence, alpha, scale=1.0 / beta)
                tail = (1.0 - confidence) / 2.0
                assert prior.credible_interval(confidence) == (
                    _ppf(tail, alpha, scale=1.0 / beta),
                    _ppf(1.0 - tail, alpha, scale=1.0 / beta))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_probability_below(self, alpha):
        for beta in BETAS:
            prior = GammaRatePrior(alpha, beta)
            for multiple in (1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3):
                budget = multiple * alpha / beta
                assert prior.probability_below(budget) == float(
                    oracle.gamma.cdf(budget, alpha, scale=1.0 / beta))

    def test_power_prior_and_jeffreys_posteriors(self):
        """The priors the workflows build: Jeffreys updated with field
        data, and simulation power priors at fractional discounts."""
        posteriors = [JEFFREYS.updated(events, exposure)
                      for events in (0, 1, 7, 300)
                      for exposure in (1e-3, 1e4, 3e8)]
        posteriors += [prior_from_simulation(events, 1e6, discount)
                       for events in (0, 3, 41)
                       for discount in (0.01, 0.1, 0.37, 1.0)]
        for prior in posteriors:
            scale = 1.0 / prior.beta
            assert prior.credible_upper(0.95) == _ppf(0.95, prior.alpha,
                                                      scale=scale)
            assert prior.probability_below(1e-6) == float(
                oracle.gamma.cdf(1e-6, prior.alpha, scale=scale))
