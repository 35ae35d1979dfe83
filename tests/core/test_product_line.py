"""Tests for product-line reuse of one norm (Sec. VII)."""

from __future__ import annotations

import pytest

from repro.core.allocation import (allocate_lp, allocate_proportional,
                                   allocate_uniform_scaling)
from repro.core.product_line import ProductLine, Variant
from repro.core.quantities import Frequency
from repro.core.risk_norm import example_norm
from repro.core.taxonomy import figure4_taxonomy


@pytest.fixture
def line(norm):
    return ProductLine("ADS family", norm)


@pytest.fixture
def variants(norm, fig5_types):
    """Three variants with genuinely different allocations."""
    return [
        Variant("city-shuttle", allocate_proportional(norm, fig5_types)),
        Variant("highway-pilot", allocate_uniform_scaling(norm, fig5_types)),
        Variant("premium", allocate_lp(
            norm, fig5_types, weights={"I1": 1.0, "I2": 5.0, "I3": 2.0})),
    ]


class TestRegistration:
    def test_add_and_lookup(self, line, variants):
        for variant in variants:
            line.add_variant(variant)
        assert len(line) == 3
        assert line.variant("premium").name == "premium"
        assert set(line.variant_names) == {"city-shuttle", "highway-pilot",
                                           "premium"}

    def test_duplicate_name_rejected(self, line, variants):
        line.add_variant(variants[0])
        with pytest.raises(ValueError, match="already registered"):
            line.add_variant(variants[0])

    def test_foreign_norm_rejected(self, line, fig5_types):
        other_norm = example_norm().tightened(0.5, name="other")
        foreign = Variant("rogue",
                          allocate_proportional(other_norm, fig5_types))
        with pytest.raises(ValueError, match="one norm"):
            line.add_variant(foreign)

    def test_unknown_variant_lookup(self, line):
        with pytest.raises(KeyError):
            line.variant("ghost")

    def test_unnamed_variant_rejected(self, norm, fig5_types):
        with pytest.raises(ValueError):
            Variant("", allocate_proportional(norm, fig5_types))


class TestConformance:
    def test_all_variants_conformant(self, line, variants):
        for variant in variants:
            line.add_variant(variant)
        assert line.all_conformant()
        results = line.check_conformance()
        assert len(results) == 3
        assert all(not r.violations for r in results)

    def test_allocations_differ_but_budgets_hold(self, line, variants):
        """The paper's Sec. VII invariant, quantified."""
        for variant in variants:
            line.add_variant(variant)
        budgets = {v.name: v.allocation.budget("I2").rate for v in line}
        assert len(set(budgets.values())) > 1  # allocations genuinely vary
        spread = line.class_load_spread()
        for class_id, (low, high) in spread.items():
            assert high.within(line.norm.budget(class_id))

    def test_nonconformant_variant_detected(self, line, norm, fig5_types):
        from repro.core.allocation import Allocation
        bad = Variant("overcommitted", Allocation(norm, fig5_types, {
            "I1": Frequency.per_hour(1.0),
            "I2": Frequency.per_hour(1.0),
            "I3": Frequency.per_hour(1.0),
        }))
        line.add_variant(bad)
        assert not line.all_conformant()
        result = line.check_conformance()[0]
        assert result.violations

    def test_spread_requires_variants(self, line):
        with pytest.raises(ValueError, match="no variants"):
            line.class_load_spread()

    def test_summary(self, line, variants):
        for variant in variants:
            line.add_variant(variant)
        text = line.summary()
        assert "3 variant(s)" in text
        for variant in variants:
            assert variant.name in text


class TestVariantGoals:
    def test_variant_safety_goals(self, norm, fig5_types):
        variant = Variant("v1", allocate_proportional(norm, fig5_types),
                          taxonomy=figure4_taxonomy())
        goals = variant.safety_goals()
        assert len(goals) == 3
        assert goals.is_complete()

    def test_goals_differ_across_variants(self, variants):
        goals_a = variants[0].safety_goals()
        goals_b = variants[2].safety_goals()
        assert goals_a["SG-I2"].max_frequency != \
            goals_b["SG-I2"].max_frequency
