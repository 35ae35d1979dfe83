"""Tests for operational-situation enumeration (the Sec. II-B-1 explosion)."""

from __future__ import annotations

import itertools

import pytest

from repro.hara.situation import (SituationCatalog, SituationDimension,
                                  standard_dimensions)


@pytest.fixture
def small_catalog():
    return SituationCatalog([
        SituationDimension("road", ("urban", "rural"), (0.7, 0.3)),
        SituationDimension("weather", ("dry", "wet"), (0.8, 0.2)),
    ])


class TestDimension:
    def test_fraction_lookup(self):
        dim = SituationDimension("road", ("urban", "rural"), (0.7, 0.3))
        assert dim.fraction_of("urban") == 0.7
        with pytest.raises(KeyError):
            dim.fraction_of("lunar")

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SituationDimension("road", ("a", "b"), (0.7, 0.2))

    def test_fraction_count_must_match(self):
        with pytest.raises(ValueError):
            SituationDimension("road", ("a", "b"), (1.0,))

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SituationDimension("road", ("a", "a"))

    def test_fractions_optional(self):
        dim = SituationDimension("road", ("a", "b"))
        with pytest.raises(ValueError, match="no fractions"):
            dim.fraction_of("a")


class TestCatalog:
    def test_count_is_product(self, small_catalog):
        assert small_catalog.count() == 4

    def test_enumeration_is_exhaustive_and_unique(self, small_catalog):
        situations = list(small_catalog.enumerate_situations())
        assert len(situations) == 4
        labels = {s.label() for s in situations}
        assert len(labels) == 4

    def test_time_fraction_independence(self, small_catalog):
        situation = next(small_catalog.enumerate_situations())
        # urban/dry = 0.7 * 0.8
        assert small_catalog.time_fraction(situation) == pytest.approx(0.56)

    def test_time_fractions_sum_to_one(self, small_catalog):
        total = sum(small_catalog.time_fraction(s)
                    for s in small_catalog.enumerate_situations())
        assert total == pytest.approx(1.0)

    def test_situation_value_lookup(self, small_catalog):
        situation = next(small_catalog.enumerate_situations())
        assert situation.value("road") in ("urban", "rural")
        with pytest.raises(KeyError):
            situation.value("altitude")

    def test_duplicate_dimensions_rejected(self):
        dim = SituationDimension("d", ("a", "b"))
        with pytest.raises(ValueError, match="duplicate"):
            SituationCatalog([dim, dim])


class TestRestriction:
    def test_restriction_shrinks_count(self, small_catalog):
        restricted = small_catalog.restricted({"weather": ["dry"]})
        assert restricted.count() == 2

    def test_restriction_renormalises_fractions(self, small_catalog):
        restricted = small_catalog.restricted({"road": ["urban"]})
        situation = next(restricted.enumerate_situations())
        # urban now has fraction 1.0
        assert restricted.time_fraction(situation) in (pytest.approx(0.8),
                                                       pytest.approx(0.2))

    def test_restriction_unknown_value_rejected(self, small_catalog):
        with pytest.raises(KeyError):
            small_catalog.restricted({"road": ["lunar"]})

    def test_empty_restriction_rejected(self, small_catalog):
        with pytest.raises(ValueError):
            small_catalog.restricted({"road": []})


class TestExplosion:
    def test_counts_grow_superlinearly_with_detail(self):
        """The Sec. II-B-1 argument: situation count explodes with ODD
        richness."""
        counts = [SituationCatalog(standard_dimensions(d)).count()
                  for d in (1, 2, 3, 4)]
        assert counts == sorted(counts)
        assert counts[0] < 100
        assert counts[3] > 100_000
        # Each detail step multiplies the space by an order of magnitude.
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(ratio >= 10.0 for ratio in ratios)

    def test_standard_dimensions_fractions_valid(self):
        for detail in (1, 2, 3, 4):
            for dim in standard_dimensions(detail):
                assert dim.fractions is not None
                assert sum(dim.fractions) == pytest.approx(1.0)

    def test_invalid_detail_rejected(self):
        with pytest.raises(ValueError):
            standard_dimensions(0)
        with pytest.raises(ValueError):
            standard_dimensions(9)

    def test_enumeration_is_lazy(self):
        """A detail-4 catalog enumerates lazily (no up-front blowup)."""
        catalog = SituationCatalog(standard_dimensions(4))
        iterator = catalog.enumerate_situations()
        first = list(itertools.islice(iterator, 10))
        assert len(first) == 10
