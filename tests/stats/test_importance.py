"""Unit tests for the importance-sampling substrate (repro.stats.importance).

Covers the weight-moment diagnostics (merge algebra, ESS, degeneracy
gates) and the closed-form log-likelihood ratios cross-checked against
scipy — including the point masses the clamps introduce, which a naive
density ratio would get wrong — and the array paths against the scalar
ones, out to means whose atom mass underflows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats import (WeightDegeneracyError, WeightDiagnostics,
                         bernoulli_log_ratio, clamped_lognormal_log_ratio,
                         floored_normal_log_ratio, normal_cdf,
                         normal_log_ratio)


class TestWeightDiagnostics:
    def test_from_weights_moments(self):
        w = np.array([1.0, 2.0, 3.0])
        d = WeightDiagnostics.from_weights(w)
        assert d.count == 3
        assert d.weight_sum == pytest.approx(6.0)
        assert d.weight_sq_sum == pytest.approx(14.0)
        assert d.max_weight == 3.0
        assert d.ess == pytest.approx(36.0 / 14.0)
        assert d.ess_fraction == pytest.approx(36.0 / 14.0 / 3.0)
        assert d.max_weight_fraction == pytest.approx(0.5)

    def test_uniform_weights_have_full_ess(self):
        d = WeightDiagnostics.from_weights(np.full(50, 0.37))
        assert d.ess == pytest.approx(50.0)
        assert d.ess_fraction == pytest.approx(1.0)

    def test_from_weights_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            WeightDiagnostics.from_weights(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            WeightDiagnostics.from_weights(np.array([1.0, math.inf]))
        with pytest.raises(ValueError):
            WeightDiagnostics.from_weights(np.array([math.nan]))

    def test_merge_matches_pooled(self):
        rng = np.random.default_rng(7)
        w = rng.exponential(size=30)
        pooled = WeightDiagnostics.from_weights(w)
        a = WeightDiagnostics.from_weights(w[:11])
        b = WeightDiagnostics.from_weights(w[11:])
        merged = a.merged(b)
        assert merged.count == pooled.count
        assert merged.weight_sum == pytest.approx(pooled.weight_sum)
        assert merged.weight_sq_sum == pytest.approx(pooled.weight_sq_sum)
        assert merged.max_weight == pooled.max_weight

    def test_merge_associative_and_identity(self):
        rng = np.random.default_rng(11)
        parts = [WeightDiagnostics.from_weights(rng.exponential(size=8))
                 for _ in range(3)]
        left = parts[0].merged(parts[1]).merged(parts[2])
        right = parts[0].merged(parts[1].merged(parts[2]))
        # Associative up to float summation order.
        assert left.count == right.count
        assert left.weight_sum == pytest.approx(right.weight_sum)
        assert left.weight_sq_sum == pytest.approx(right.weight_sq_sum)
        assert left.max_weight == right.max_weight
        empty = WeightDiagnostics()
        assert empty.merged(parts[0]) == parts[0]
        assert parts[0].merged(empty) == parts[0]
        assert WeightDiagnostics.merge_many(parts) == left

    def test_check_passes_healthy_weights(self):
        d = WeightDiagnostics.from_weights(np.ones(100))
        assert d.check() is d

    def test_check_raises_on_low_ess(self):
        # One giant weight among tiny ones: ESS fraction collapses.
        w = np.full(1000, 1e-9)
        w[0] = 1.0
        d = WeightDiagnostics.from_weights(w)
        with pytest.raises(WeightDegeneracyError) as err:
            d.check(min_ess_fraction=0.5)
        assert err.value.diagnostics is d

    def test_check_raises_on_dominant_weight(self):
        w = np.array([10.0, 1.0, 1.0])
        d = WeightDiagnostics.from_weights(w)
        with pytest.raises(WeightDegeneracyError):
            d.check(min_ess_fraction=0.0, max_weight_share=0.5)

    def test_check_empty_passes(self):
        assert WeightDiagnostics().check() is not None

    def test_check_validates_gate_params(self):
        d = WeightDiagnostics.from_weights(np.ones(3))
        with pytest.raises(ValueError):
            d.check(min_ess_fraction=-0.1)
        with pytest.raises(ValueError):
            d.check(max_weight_share=1.5)

    def test_to_dict_round_trip_fields(self):
        d = WeightDiagnostics.from_weights(np.array([1.0, 3.0]))
        payload = d.to_dict()
        assert payload["count"] == 2
        assert payload["ess"] == pytest.approx(d.ess)


class TestNormalCdf:
    def test_matches_scipy_including_deep_tails(self):
        xs = np.array([-40.0, -8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0])
        ours = normal_cdf(xs)
        ref = sps.norm.cdf(xs)
        assert np.allclose(ours, ref, rtol=1e-12, atol=0.0)
        # Deep lower tail must not underflow to 0 (erfc form).
        assert normal_cdf(-37.0) > 0.0

    def test_scalar_path(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert isinstance(normal_cdf(1.0), float)


class TestNormalLogRatio:
    def test_matches_scipy_logpdf_difference(self):
        x = np.array([-2.0, 0.3, 5.0])
        ours = normal_log_ratio(x, mean_p=1.0, mean_q=2.5, std=0.7)
        ref = (sps.norm.logpdf(x, loc=1.0, scale=0.7)
               - sps.norm.logpdf(x, loc=2.5, scale=0.7))
        assert np.allclose(ours, ref)

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            normal_log_ratio(0.0, mean_p=0.0, mean_q=1.0, std=0.0)


class TestClampedLognormalLogRatio:
    def test_density_ratio_matches_scipy_above_clamp(self):
        mu_p, mu_q, sigma, clamp = 3.0, 3.5, 0.6, 1.0
        x = np.array([2.0, 20.0, 200.0])
        ours = clamped_lognormal_log_ratio(x, mu_p=mu_p, mu_q=mu_q,
                                           sigma=sigma, clamp=clamp)
        ref = (sps.lognorm.logpdf(x, s=sigma, scale=math.exp(mu_p))
               - sps.lognorm.logpdf(x, s=sigma, scale=math.exp(mu_q)))
        assert np.allclose(ours, ref)

    def test_atom_uses_mass_ratio_not_density_ratio(self):
        # Use a clamp high enough that the atom has real mass.
        mu_p, mu_q, sigma, clamp = 0.0, 1.0, 1.0, 2.0
        log_clamp = math.log(clamp)
        mass_p = sps.norm.cdf((log_clamp - mu_p) / sigma)
        mass_q = sps.norm.cdf((log_clamp - mu_q) / sigma)
        got = clamped_lognormal_log_ratio(clamp, mu_p=mu_p, mu_q=mu_q,
                                          sigma=sigma, clamp=clamp)
        assert got == pytest.approx(math.log(mass_p / mass_q))
        density = normal_log_ratio(log_clamp, mean_p=mu_p, mean_q=mu_q,
                                   std=sigma)
        assert got != pytest.approx(density)

    def test_array_mixes_atom_and_density(self):
        x = np.array([2.0, 5.0])
        out = clamped_lognormal_log_ratio(x, mu_p=0.0, mu_q=1.0, sigma=1.0,
                                          clamp=2.0)
        atom = clamped_lognormal_log_ratio(2.0, mu_p=0.0, mu_q=1.0,
                                           sigma=1.0, clamp=2.0)
        dens = clamped_lognormal_log_ratio(5.0, mu_p=0.0, mu_q=1.0,
                                           sigma=1.0, clamp=2.0)
        assert out[0] == pytest.approx(atom)
        assert out[1] == pytest.approx(dens)

    def test_below_clamp_is_impossible(self):
        with pytest.raises(ValueError):
            clamped_lognormal_log_ratio(0.5, mu_p=0.0, mu_q=0.1, sigma=1.0,
                                        clamp=1.0)
        with pytest.raises(ValueError):
            clamped_lognormal_log_ratio(np.array([0.5, 2.0]), mu_p=0.0,
                                        mu_q=0.1, sigma=1.0, clamp=1.0)

    def test_identity_tilt_is_exactly_zero(self):
        x = np.array([1.0, 3.0, 30.0])
        out = clamped_lognormal_log_ratio(x, mu_p=2.0, mu_q=2.0, sigma=0.5,
                                          clamp=1.0)
        assert np.all(out == 0.0)
        # Sight (150, 15) m: the clamp atom lies 50σ below the mean, so
        # its mass underflows to 0 — harmless while no sample is on it.
        sigma = math.sqrt(math.log(1.01))
        mu = math.log(150.0) - sigma ** 2 / 2.0
        out = clamped_lognormal_log_ratio(np.array([140.0, 160.0]), mu_p=mu,
                                          mu_q=mu, sigma=sigma, clamp=1.0)
        assert np.all(out == 0.0)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            clamped_lognormal_log_ratio(2.0, mu_p=0.0, mu_q=0.0, sigma=0.0,
                                        clamp=1.0)
        with pytest.raises(ValueError):
            clamped_lognormal_log_ratio(2.0, mu_p=0.0, mu_q=0.0, sigma=1.0,
                                        clamp=0.0)

    def test_weighted_tail_mass_integrates_to_nominal(self):
        # Monte-Carlo identity check: sampling the clamped lognormal under
        # q and reweighting must recover a nominal-law tail probability.
        mu_p, mu_q, sigma, clamp = 1.0, 2.0, 0.8, 1.5
        rng = np.random.default_rng(5)
        x = np.maximum(rng.lognormal(mean=mu_q, sigma=sigma, size=200_000),
                       clamp)
        w = np.exp(clamped_lognormal_log_ratio(x, mu_p=mu_p, mu_q=mu_q,
                                               sigma=sigma, clamp=clamp))
        threshold = 8.0
        est = float(np.mean(w * (x > threshold)))
        truth = 1.0 - sps.norm.cdf((math.log(threshold) - mu_p) / sigma)
        assert est == pytest.approx(truth, rel=0.05)


class TestFlooredNormalLogRatio:
    def test_density_ratio_matches_scipy_above_floor(self):
        x = np.array([0.5, 3.0, 9.0])
        ours = floored_normal_log_ratio(x, mean_p=2.0, mean_q=4.0, std=1.5)
        ref = (sps.norm.logpdf(x, loc=2.0, scale=1.5)
               - sps.norm.logpdf(x, loc=4.0, scale=1.5))
        assert np.allclose(ours, ref)

    def test_atom_at_zero_uses_mass_ratio(self):
        mean_p, mean_q, std = 1.0, 2.0, 1.0
        got = floored_normal_log_ratio(0.0, mean_p=mean_p, mean_q=mean_q,
                                       std=std)
        mass_p = sps.norm.cdf(-mean_p / std)
        mass_q = sps.norm.cdf(-mean_q / std)
        assert got == pytest.approx(math.log(mass_p / mass_q))

    def test_zero_std_point_mass(self):
        assert floored_normal_log_ratio(5.0, mean_p=5.0, mean_q=5.0,
                                        std=0.0) == 0.0
        out = floored_normal_log_ratio(np.array([5.0, 5.0]), mean_p=5.0,
                                       mean_q=5.0, std=0.0)
        assert np.all(out == 0.0)
        with pytest.raises(ValueError):
            floored_normal_log_ratio(5.0, mean_p=5.0, mean_q=6.0, std=0.0)

    def test_below_floor_is_impossible(self):
        with pytest.raises(ValueError):
            floored_normal_log_ratio(-0.1, mean_p=1.0, mean_q=2.0, std=1.0)
        with pytest.raises(ValueError):
            floored_normal_log_ratio(np.array([-0.1]), mean_p=1.0,
                                     mean_q=2.0, std=1.0)

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            floored_normal_log_ratio(1.0, mean_p=0.0, mean_q=0.0, std=-1.0)

    def test_identity_tilt_is_exactly_zero(self):
        out = floored_normal_log_ratio(np.array([0.0, 1.0, 5.0]), mean_p=2.0,
                                       mean_q=2.0, std=1.0)
        assert np.all(out == 0.0)
        # Speed (110, 2) km/h: the floor atom lies 55σ below the mean, so
        # its mass underflows to 0 — harmless while no sample is on it.
        out = floored_normal_log_ratio(np.array([108.0, 111.0]),
                                       mean_p=110.0, mean_q=110.0, std=2.0)
        assert np.all(out == 0.0)
        assert floored_normal_log_ratio(108.0, mean_p=110.0, mean_q=110.0,
                                        std=2.0) == 0.0
        with pytest.raises(ValueError, match="zero mass"):
            floored_normal_log_ratio(np.array([0.0, 111.0]), mean_p=110.0,
                                     mean_q=110.0, std=2.0)


@st.composite
def atom_laws(draw):
    """``(log_ratio, law, samples)``: a floored normal or a clamped
    lognormal whose nominal and proposal means lie up to 300σ either side
    of the floor or clamp, and samples on or above its atom."""
    z = st.floats(-300.0, 300.0)
    if draw(st.booleans()):
        std = draw(st.floats(0.01, 50.0))
        law = dict(mean_p=draw(z) * std, mean_q=draw(z) * std, std=std)
        above = st.floats(0.0, 310.0 * std)
        return floored_normal_log_ratio, law, draw(st.lists(
            st.one_of(st.just(0.0), above), min_size=1, max_size=8))
    sigma = draw(st.floats(0.05, 2.0))
    clamp = draw(st.floats(0.1, 10.0))
    law = dict(mu_p=math.log(clamp) + draw(z) * sigma,
               mu_q=math.log(clamp) + draw(z) * sigma, sigma=sigma,
               clamp=clamp)
    above = st.floats(0.0, 310.0 * sigma).map(
        lambda u: clamp * math.exp(u))
    return clamped_lognormal_log_ratio, law, draw(st.lists(
        st.one_of(st.just(clamp), above), min_size=1, max_size=8))


class TestArrayMatchesScalar:
    @given(case=atom_laws())
    @settings(max_examples=300, deadline=None)
    def test_atom_log_ratios(self, case):
        """The array path raises exactly when the scalar path raises on
        some element, and otherwise agrees with it elementwise.  Off the
        atom the two differ by a few ulps (``np.log`` is not
        ``math.log``), so agreement is to a tolerance, not bitwise."""
        log_ratio, law, samples = case
        try:
            scalar = [log_ratio(x, **law) for x in samples]
        except ValueError:
            with pytest.raises(ValueError):
                log_ratio(np.array(samples), **law)
            return
        np.testing.assert_allclose(log_ratio(np.array(samples), **law),
                                   scalar, rtol=1e-9, atol=1e-9)


class TestBernoulliLogRatio:
    def test_scalar_matches_scipy(self):
        p_p, p_q = 0.001, 0.2
        assert bernoulli_log_ratio(True, p_p=p_p, p_q=p_q) == pytest.approx(
            sps.bernoulli.logpmf(1, p_p) - sps.bernoulli.logpmf(1, p_q))
        assert bernoulli_log_ratio(False, p_p=p_p, p_q=p_q) == pytest.approx(
            sps.bernoulli.logpmf(0, p_p) - sps.bernoulli.logpmf(0, p_q))

    def test_array_matches_scalar(self):
        out = bernoulli_log_ratio(np.array([True, False, True]), p_p=0.01,
                                  p_q=0.5)
        assert out[0] == pytest.approx(
            bernoulli_log_ratio(True, p_p=0.01, p_q=0.5))
        assert out[1] == pytest.approx(
            bernoulli_log_ratio(False, p_p=0.01, p_q=0.5))
        assert out[0] == out[2]

    def test_identity_is_exactly_zero(self):
        assert bernoulli_log_ratio(True, p_p=0.3, p_q=0.3) == 0.0
        out = bernoulli_log_ratio(np.array([True, False]), p_p=0.3, p_q=0.3)
        assert np.all(out == 0.0)

    def test_impossible_under_nominal_gives_minus_inf(self):
        assert bernoulli_log_ratio(True, p_p=0.0, p_q=0.5) == -math.inf

    def test_impossible_under_proposal_is_an_error(self):
        with pytest.raises(ValueError):
            bernoulli_log_ratio(True, p_p=0.5, p_q=0.0)

    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            bernoulli_log_ratio(True, p_p=1.5, p_q=0.5)
        with pytest.raises(ValueError):
            bernoulli_log_ratio(True, p_p=0.5, p_q=-0.1)
