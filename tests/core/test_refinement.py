"""Tests for quantitative budget refinement (Sec. V)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quantities import Frequency
from repro.core.refinement import (Combination, ElementRequirement,
                                   RefinementError, RefinementNode,
                                   apportion_or, combine_and, combine_k_of_n,
                                   combine_or, drivable_area_example,
                                   required_leaf_rate_and)

small_rates = st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False)


def f(rate):
    return Frequency.per_hour(rate)


class TestCombinators:
    def test_or_adds(self):
        assert combine_or([f(1e-4), f(2e-4)]).rate == pytest.approx(3e-4)

    def test_or_empty_rejected(self):
        with pytest.raises(RefinementError):
            combine_or([])

    def test_and_two_channels(self):
        """n=2: rate = 2·τ·λ1·λ2."""
        result = combine_and([f(1e-2), f(1e-3)], exposure_window=1.0)
        assert result.rate == pytest.approx(2 * 1e-2 * 1e-3)

    def test_and_three_channels(self):
        """n=3: rate = 3·τ²·λ³."""
        result = combine_and([f(1e-2)] * 3, exposure_window=0.5)
        assert result.rate == pytest.approx(3 * 0.25 * 1e-6)

    def test_and_needs_two_children(self):
        with pytest.raises(RefinementError):
            combine_and([f(1e-2)], exposure_window=1.0)

    def test_and_rejects_high_occupancy(self):
        """λ·τ > 0.1 leaves the rare-event regime."""
        with pytest.raises(RefinementError, match="occupancy"):
            combine_and([f(0.5), f(0.5)], exposure_window=1.0)

    def test_and_rejects_bad_window(self):
        with pytest.raises(RefinementError):
            combine_and([f(1e-3), f(1e-3)], exposure_window=0.0)

    def test_k_of_n_all_needed_is_or(self):
        """k=n: any violation violates (series)."""
        rates = [f(1e-4), f(2e-4), f(3e-4)]
        assert combine_k_of_n(rates, k=3, exposure_window=1.0) == \
            combine_or(rates)

    def test_k_of_n_one_needed_is_and(self):
        rates = [f(1e-3), f(1e-3)]
        assert combine_k_of_n(rates, k=1, exposure_window=1.0) == \
            combine_and(rates, 1.0)

    def test_2_of_3_counts_pairs(self):
        rates = [f(1e-3)] * 3
        # 2oo3 fails when any 2 of 3 violated: 3 pairs × 2τλ².
        expected = 3 * 2 * 1.0 * 1e-6
        assert combine_k_of_n(rates, k=2, exposure_window=1.0).rate == \
            pytest.approx(expected)

    def test_k_out_of_range(self):
        with pytest.raises(RefinementError):
            combine_k_of_n([f(1e-3)] * 3, k=4, exposure_window=1.0)

    @given(rates=st.lists(small_rates, min_size=2, max_size=5),
           window=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_and_below_any_single_rate(self, rates, window):
        """Redundancy always helps: coincidence rate < every input rate."""
        freqs = [f(r) for r in rates]
        combined = combine_and(freqs, window)
        assert combined.rate <= min(rates)

    @given(rates=st.lists(small_rates, min_size=2, max_size=4),
           window=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_k_of_n_monotone_in_k(self, rates, window):
        """Requiring more healthy channels can only increase the rate."""
        freqs = [f(r) for r in rates]
        previous = None
        for k in range(1, len(freqs) + 1):
            rate = combine_k_of_n(freqs, k, window).rate
            if previous is not None:
                assert rate >= previous * (1 - 1e-12)
            previous = rate


class TestApportionAndInversion:
    def test_apportion_or_sums_to_budget(self):
        parts = apportion_or(f(1e-6), [1.0, 2.0, 1.0])
        assert sum(p.rate for p in parts) == pytest.approx(1e-6)
        assert parts[1].rate == pytest.approx(2 * parts[0].rate)

    def test_apportion_invalid_weights(self):
        with pytest.raises(RefinementError):
            apportion_or(f(1e-6), [])
        with pytest.raises(RefinementError):
            apportion_or(f(1e-6), [1.0, -1.0])

    def test_required_leaf_rate_inverts_combine(self):
        budget = f(1e-7)
        leaf = required_leaf_rate_and(budget, n=3, exposure_window=1 / 3600)
        recombined = combine_and([leaf] * 3, 1 / 3600)
        assert recombined.rate == pytest.approx(budget.rate, rel=1e-9)

    def test_required_leaf_rate_validates_regime(self):
        # A huge budget with a long window would need λτ > 0.1.
        with pytest.raises(RefinementError, match="rare-event"):
            required_leaf_rate_and(f(10.0), n=2, exposure_window=1.0)

    def test_required_leaf_rate_needs_redundancy(self):
        with pytest.raises(RefinementError):
            required_leaf_rate_and(f(1e-7), n=1, exposure_window=1.0)


class TestRefinementTree:
    def test_mixed_tree_composition(self):
        redundant = RefinementNode(
            "perception", Combination.ALL_VIOLATE,
            children=(
                ElementRequirement("cam", f(1e-2)),
                ElementRequirement("lidar", f(1e-2)),
            ),
            exposure_window=1 / 3600)
        tree = RefinementNode(
            "goal", Combination.ANY_VIOLATES,
            children=(redundant, ElementRequirement("planner", f(1e-8))))
        expected = 2 * (1 / 3600) * 1e-4 + 1e-8
        assert tree.composed_rate().rate == pytest.approx(expected)
        assert tree.meets(f(1e-7))
        assert not tree.meets(f(1e-9))

    def test_leaf_iteration(self):
        tree, _ = drivable_area_example(redundancy=4)
        assert tree.leaf_count() == 4
        assert {leaf.name for leaf in tree.leaves()} == {
            f"perception-channel-{i}" for i in range(1, 5)}

    def test_or_node_rejects_window(self):
        with pytest.raises(RefinementError, match="no exposure window"):
            RefinementNode("bad", Combination.ANY_VIOLATES,
                           children=(ElementRequirement("x", f(1e-6)),),
                           exposure_window=1.0)

    def test_and_node_requires_window(self):
        with pytest.raises(RefinementError, match="exposure window"):
            RefinementNode("bad", Combination.ALL_VIOLATE,
                           children=(ElementRequirement("x", f(1e-6)),
                                     ElementRequirement("y", f(1e-6))))

    def test_k_of_n_requires_k(self):
        with pytest.raises(RefinementError, match="needs k"):
            RefinementNode("bad", Combination.K_OF_N,
                           children=(ElementRequirement("x", f(1e-6)),
                                     ElementRequirement("y", f(1e-6))),
                           exposure_window=1.0)

    def test_render_shows_budget_verdict(self):
        tree, _ = drivable_area_example()
        text = tree.render(budget=f(1e-7))
        assert "OK" in text
        assert "perception-channel-1" in text


class TestDrivableAreaExample:
    def test_meets_vehicle_budget(self):
        tree, per_channel = drivable_area_example()
        assert tree.meets(f(1e-7))

    def test_channels_are_qm_grade(self):
        """The Sec. V headline: each channel's allowed rate is enormous
        compared to any ASIL band (1e-5/h and below)."""
        _, per_channel = drivable_area_example()
        assert per_channel.rate > 1e-5

    def test_more_redundancy_relaxes_channels(self):
        _, three = drivable_area_example(redundancy=3)
        _, four = drivable_area_example(redundancy=4)
        assert four.rate > three.rate

    def test_tighter_budget_tightens_channels(self):
        _, loose = drivable_area_example(vehicle_budget=f(1e-6))
        _, tight = drivable_area_example(vehicle_budget=f(1e-8))
        assert tight.rate < loose.rate
