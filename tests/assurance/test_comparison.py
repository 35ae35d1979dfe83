"""Tests for the quantitative-vs-ASIL comparisons (Sec. V)."""

from __future__ import annotations

import pytest

from repro.assurance.comparison import (compare_inheritance,
                                        compare_redundancy)
from repro.core.quantities import Frequency
from repro.core.refinement import combine_and
from repro.hara.asil import Asil


def f(rate):
    return Frequency.per_hour(rate)


class TestRedundancyComparison:
    def test_drivable_area_headline(self):
        """Three redundant channels with a 1 s window meet a 1e-7/h budget
        with per-channel rates in the QM band — the paper's Sec. V claim."""
        comparison = compare_redundancy(f(1e-7), 3, 1 / 3600)
        assert comparison.quantitative_channel_band is Asil.QM
        assert comparison.vehicle_level_required is Asil.C
        assert comparison.quantitative_per_channel.rate > 1e-5

    def test_composition_actually_meets_budget(self):
        comparison = compare_redundancy(f(1e-7), 3, 1 / 3600)
        recombined = combine_and(
            [comparison.quantitative_per_channel] * 3, 1 / 3600)
        assert recombined.within(f(1e-7))

    def test_asil_floor_is_a(self):
        """Permitted decomposition chains can never push every leg below
        ASIL A (A→A+QM keeps one leg at A)."""
        for budget in (1e-7, 1e-8):
            comparison = compare_redundancy(f(budget), 2, 1 / 3600)
            assert comparison.asil_decomposition_floor is Asil.A

    def test_quantitative_advantage_positive(self):
        comparison = compare_redundancy(f(1e-7), 3, 1 / 3600)
        assert comparison.quantitative_advantage_decades() > 2.0

    def test_more_redundancy_more_advantage(self):
        two = compare_redundancy(f(1e-7), 2, 1 / 3600)
        four = compare_redundancy(f(1e-7), 4, 1 / 3600)
        assert four.quantitative_per_channel.rate > \
            two.quantitative_per_channel.rate

    def test_shorter_window_more_advantage(self):
        slow = compare_redundancy(f(1e-7), 3, 1.0 / 60)
        fast = compare_redundancy(f(1e-7), 3, 1.0 / 36000)
        assert fast.quantitative_per_channel.rate > \
            slow.quantitative_per_channel.rate


class TestInheritanceComparison:
    def test_small_design_sound(self):
        comparison = compare_inheritance(Asil.B, 1)
        assert comparison.inheritance_sound

    def test_large_design_unsound_but_quantitative_exact(self):
        comparison = compare_inheritance(Asil.B, 1000)
        assert not comparison.inheritance_sound
        # The quantitative division stays exact: n elements at budget/n
        # compose back to the budget.
        total = comparison.quantitative_per_element.rate * 1000
        assert total == pytest.approx(1e-6)

    def test_explicit_budget(self):
        comparison = compare_inheritance(Asil.B, 10, goal_budget=f(5e-7))
        assert comparison.quantitative_per_element.rate == \
            pytest.approx(5e-8)

    def test_qm_needs_explicit_budget(self):
        with pytest.raises(ValueError, match="no numeric"):
            compare_inheritance(Asil.QM, 10)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            compare_inheritance(Asil.B, 0)

    def test_breakdown_grows_with_elements(self):
        rates = [compare_inheritance(Asil.C, n).inheritance_effective_rate
                 for n in (1, 10, 100, 1000)]
        assert rates == sorted(rates)
