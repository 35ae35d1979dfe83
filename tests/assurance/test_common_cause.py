"""Tests for the β-factor common-cause model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.assurance.common_cause import (analyse_common_cause,
                                          combine_and_with_common_cause,
                                          max_tolerable_beta)
from repro.core.quantities import Frequency
from repro.core.refinement import (RefinementError, combine_and,
                                   required_leaf_rate_and)

WINDOW = 1.0 / 3600.0
BUDGET = Frequency.per_hour(1e-7)


def f(rate):
    return Frequency.per_hour(rate)


class TestCombination:
    def test_zero_beta_reduces_to_independent(self):
        rates = [f(1e-2)] * 3
        with_cc = combine_and_with_common_cause(rates, WINDOW, beta=0.0)
        without = combine_and(rates, WINDOW)
        assert with_cc.rate == pytest.approx(without.rate)

    def test_full_beta_is_weakest_channel(self):
        rates = [f(3e-3), f(1e-3), f(2e-3)]
        degenerate = combine_and_with_common_cause(rates, WINDOW, beta=1.0)
        assert degenerate.rate == pytest.approx(1e-3)

    @given(beta=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_beta(self, beta):
        """More common cause never helps."""
        rates = [f(1e-2)] * 3
        lower = combine_and_with_common_cause(rates, WINDOW, beta)
        higher = combine_and_with_common_cause(
            rates, WINDOW, min(beta + 0.05, 1.0))
        assert higher.rate >= lower.rate * (1 - 1e-12)

    def test_invalid_beta(self):
        with pytest.raises(RefinementError):
            combine_and_with_common_cause([f(1e-3)] * 2, WINDOW, beta=1.5)

    def test_needs_two_channels(self):
        with pytest.raises(RefinementError):
            combine_and_with_common_cause([f(1e-3)], WINDOW, beta=0.1)


class TestMaxTolerableBeta:
    def test_channels_at_maximum_tolerate_nothing(self):
        """The honest footnote to Sec. V: QM-range channels sized at the
        β=0 optimum leave zero room for common cause."""
        channel = required_leaf_rate_and(BUDGET, 3, WINDOW)
        beta = max_tolerable_beta(BUDGET, [channel] * 3, WINDOW)
        assert beta == pytest.approx(0.0, abs=1e-6)

    def test_derated_channels_buy_beta(self):
        channel = required_leaf_rate_and(BUDGET, 3, WINDOW) * 0.5
        beta = max_tolerable_beta(BUDGET, [channel] * 3, WINDOW)
        assert beta > 0.0
        composed = combine_and_with_common_cause([channel] * 3, WINDOW,
                                                 beta)
        assert composed.within(BUDGET, rel_tol=1e-6)

    def test_channels_below_budget_tolerate_everything(self):
        channel = BUDGET * 0.5
        assert max_tolerable_beta(BUDGET, [channel] * 2, WINDOW) == 1.0

    def test_hopeless_channels_tolerate_nothing(self):
        channel = f(10.0)  # occupancy still fine, but coincidence huge
        beta = max_tolerable_beta(f(1e-12), [channel] * 2, WINDOW)
        assert beta == 0.0


class TestAnalysis:
    def test_default_derating_gives_meaningful_beta(self):
        analysis = analyse_common_cause(BUDGET, 3, WINDOW)
        assert 0.0 < analysis.max_beta < 1.0
        assert analysis.composed_at_max_beta.within(BUDGET, rel_tol=1e-6)

    def test_independence_obligation_is_steep(self):
        """Even derated 2x, the tolerable β is tiny — the quantitative
        content of 'sufficiently independent'."""
        analysis = analyse_common_cause(BUDGET, 3, WINDOW)
        assert analysis.max_beta < 1e-3
        assert analysis.independence_decades() > 3.0

    def test_more_redundancy_does_not_relax_beta_much(self):
        """Common cause defeats redundancy: extra channels barely move
        the β obligation (they only shrink the independent term)."""
        three = analyse_common_cause(BUDGET, 3, WINDOW)
        five = analyse_common_cause(BUDGET, 5, WINDOW)
        # β tolerance is governed by β·λ_min ≈ budget; with default
        # derating the channel rates differ, so compare orders only.
        assert five.max_beta < 1e-2
        assert three.max_beta < 1e-2

    def test_invalid_derating(self):
        with pytest.raises(RefinementError):
            analyse_common_cause(BUDGET, 3, WINDOW, derating=0.5)
