"""Tests for the exact Markov reference of the coincidence approximation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.assurance.markov import (approximation_error,
                                    exact_group_violation_rate,
                                    stationary_distribution)
from repro.core.quantities import Frequency
from repro.core.refinement import RefinementError, combine_and


class TestStationaryDistribution:
    def test_sums_to_one(self):
        for n in (1, 2, 5):
            for occupancy in (1e-4, 0.1, 1.0, 10.0):
                pi = stationary_distribution(n, occupancy)
                assert sum(pi) == pytest.approx(1.0)
                assert all(p >= 0 for p in pi)

    def test_low_occupancy_concentrates_on_healthy(self):
        pi = stationary_distribution(3, 1e-4)
        assert pi[0] > 0.999

    def test_high_occupancy_concentrates_on_failed(self):
        pi = stationary_distribution(3, 100.0)
        assert pi[3] > 0.9

    def test_binomial_form(self):
        """π_k is Binomial(n, ρ/(1+ρ)) — check one value by hand."""
        occupancy = 0.5
        p = occupancy / 1.5
        pi = stationary_distribution(2, occupancy)
        assert pi[1] == pytest.approx(2 * p * (1 - p))

    def test_validation(self):
        with pytest.raises(RefinementError):
            stationary_distribution(0, 0.1)
        with pytest.raises(RefinementError):
            stationary_distribution(2, 0.0)


class TestExactRate:
    def test_matches_approximation_at_low_occupancy(self):
        rate = Frequency.per_hour(1e-3)
        window = 1.0 / 3600.0  # occupancy ~ 2.8e-7
        exact = exact_group_violation_rate(rate, window, 3)
        approx = combine_and([rate] * 3, window)
        assert exact.rate == pytest.approx(approx.rate, rel=1e-3)

    def test_approximation_is_conservative(self):
        """The rare-event formula overestimates — the safe direction for
        a violation-frequency claim."""
        rate = Frequency.per_hour(1e-2)
        for window in (1.0, 5.0, 10.0):  # occupancies 0.01 .. 0.1
            exact = exact_group_violation_rate(rate, window, 2)
            approx = combine_and([rate] * 2, window)
            assert approx.rate >= exact.rate

    def test_validation(self):
        with pytest.raises(RefinementError):
            exact_group_violation_rate(Frequency.per_hour(1e-3), 1.0, 1)
        with pytest.raises(RefinementError):
            exact_group_violation_rate(Frequency.per_hour(1e-3), 0.0, 2)


class TestApproximationErrorSweep:
    def test_error_grows_with_occupancy(self):
        checks = approximation_error(3, [1e-4, 1e-3, 1e-2, 0.1])
        errors = [check.relative_error for check in checks]
        assert errors == sorted(errors)
        assert all(error >= 0 for error in errors)  # conservative

    def test_guarded_regime_error_small(self):
        """Inside the combine_and guard (ρ ≤ 0.1) the approximation is
        within ~35% — and always on the conservative side."""
        checks = approximation_error(2, [1e-4, 1e-3, 1e-2, 0.1])
        for check in checks:
            assert 0.0 <= check.relative_error < 0.35

    def test_outside_guard_error_blows_up(self):
        """The 0.1 guard earns its keep: at ρ = 0.5 the formula is off by
        a large factor (still conservative, but uselessly so)."""
        checks = approximation_error(3, [0.5])
        assert checks[0].relative_error > 1.0

    @given(occupancy=st.floats(min_value=1e-6, max_value=0.09),
           n=st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_conservative_everywhere_in_regime(self, occupancy, n):
        checks = approximation_error(n, [occupancy])
        assert checks[0].relative_error >= -1e-12

    def test_validation(self):
        with pytest.raises(RefinementError):
            approximation_error(2, [0.0])
