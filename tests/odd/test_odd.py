"""Tests for ODD definitions, contextual exposure, and restriction."""

from __future__ import annotations

import pytest

from repro.core.quantities import Frequency
from repro.odd.definition import (CategoricalOddParameter,
                                  OperationalDesignDomain,
                                  RangeOddParameter)
from repro.odd.exposure import (ContextDimension, ExposureModel,
                                default_exposure_model)
from repro.odd.restriction import (coverage_of, evaluate_restriction)


@pytest.fixture
def odd():
    return OperationalDesignDomain("urban-shuttle", [
        CategoricalOddParameter("road_type", frozenset({"urban", "suburban"})),
        RangeOddParameter("speed_limit_kmh", 0.0, 60.0, "km/h"),
        RangeOddParameter("temperature_c", -10.0, 45.0, "°C"),
    ])


class TestDefinition:
    def test_contains(self, odd):
        assert odd.contains({"road_type": "urban", "speed_limit_kmh": 50.0,
                             "temperature_c": 20.0})
        assert not odd.contains({"road_type": "highway",
                                 "speed_limit_kmh": 50.0,
                                 "temperature_c": 20.0})

    def test_missing_axis_raises(self, odd):
        with pytest.raises(KeyError, match="missing"):
            odd.contains({"road_type": "urban"})

    def test_violated_parameters(self, odd):
        violated = odd.violated_parameters({
            "road_type": "highway", "speed_limit_kmh": 90.0,
            "temperature_c": 20.0})
        assert set(violated) == {"road_type", "speed_limit_kmh"}

    def test_range_bounds_inclusive(self, odd):
        assert odd.parameter("speed_limit_kmh").admits(60.0)
        assert not odd.parameter("speed_limit_kmh").admits(60.1)

    def test_restriction_narrows(self, odd):
        tighter = odd.restricted(
            "speed_limit_kmh", RangeOddParameter("speed_limit_kmh", 0.0, 40.0))
        assert tighter.is_subset_of(odd)
        assert not odd.is_subset_of(tighter)

    def test_restriction_must_narrow(self, odd):
        with pytest.raises(ValueError, match="narrow"):
            odd.restricted("speed_limit_kmh",
                           RangeOddParameter("speed_limit_kmh", 0.0, 90.0))

    def test_restriction_name_mismatch(self, odd):
        with pytest.raises(ValueError, match="named"):
            odd.restricted("speed_limit_kmh",
                           RangeOddParameter("velocity", 0.0, 40.0))

    def test_subset_with_missing_axis_is_false(self, odd):
        smaller = OperationalDesignDomain("partial", [
            CategoricalOddParameter("road_type", frozenset({"urban"})),
        ])
        assert not smaller.is_subset_of(odd)

    def test_describe(self, odd):
        text = odd.describe()
        assert "road_type" in text and "speed_limit_kmh" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            OperationalDesignDomain("x", [])
        with pytest.raises(ValueError):
            RangeOddParameter("speed", 10.0, 5.0)
        with pytest.raises(ValueError):
            CategoricalOddParameter("road", frozenset())


class TestExposureModel:
    def test_context_modulation(self):
        model = default_exposure_model()
        winter_rural_night = model.rate_in_context(
            "animal_crossing",
            {"season": "autumn", "locality": "rural", "time_of_day": "night"})
        summer_urban_day = model.rate_in_context(
            "animal_crossing",
            {"season": "summer", "locality": "urban", "time_of_day": "day"})
        assert winter_rural_night.rate > 100 * summer_urban_day.rate

    def test_snow_vanishes_in_summer(self):
        model = default_exposure_model()
        rate = model.rate_in_context(
            "snow_on_road",
            {"season": "summer", "locality": "urban", "time_of_day": "day"})
        assert rate.is_zero()

    def test_global_average_is_weight_blend(self):
        """The design-time flattening equals the analytic expectation."""
        dimension = ContextDimension(
            "season", weights={"w": 0.5, "s": 0.5},
            modulators={"snow": {"w": 2.0, "s": 0.0}})
        model = ExposureModel({"snow": Frequency.per_hour(1.0)}, [dimension])
        assert model.global_average("snow").rate == pytest.approx(1.0)

    def test_peak_to_average_quantifies_flattening_error(self):
        """Sec. II-B-4: the peak context can be far above the average."""
        model = default_exposure_model()
        assert model.peak_to_average("snow_on_road") > 3.0
        assert model.peak_to_average("animal_crossing") > 5.0

    def test_missing_context_dimension_raises(self):
        model = default_exposure_model()
        with pytest.raises(KeyError, match="missing"):
            model.rate_in_context("vru_crossing", {"season": "winter"})

    def test_unknown_phenomenon(self):
        model = default_exposure_model()
        with pytest.raises(KeyError):
            model.global_average("meteor_strike")

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ContextDimension("s", {"a": 0.5, "b": 0.2}, {})
        with pytest.raises(ValueError, match="unknown values"):
            ContextDimension("s", {"a": 1.0}, {"x": {"b": 2.0}})
        with pytest.raises(ValueError, match="negative"):
            ContextDimension("s", {"a": 1.0}, {"x": {"a": -1.0}})


class TestRestrictionEffect:
    RATES = {
        "urban": Frequency.per_hour(1.0),
        "rural": Frequency.per_hour(0.1),
        "highway": Frequency.per_hour(0.01),
    }
    WEIGHTS = {"urban": 0.5, "rural": 0.3, "highway": 0.2}

    def test_dropping_hot_context_cuts_rate(self):
        effect = evaluate_restriction(self.RATES, self.WEIGHTS,
                                      kept=["rural", "highway"])
        assert effect.coverage == pytest.approx(0.5)
        assert effect.rate_after < effect.rate_before
        assert effect.rate_reduction_factor > 5.0

    def test_keeping_everything_changes_nothing(self):
        effect = evaluate_restriction(self.RATES, self.WEIGHTS,
                                      kept=list(self.WEIGHTS))
        assert effect.coverage == pytest.approx(1.0)
        assert effect.rate_after.rate == pytest.approx(
            effect.rate_before.rate)

    def test_worthwhile_decision_rule(self):
        effect = evaluate_restriction(self.RATES, self.WEIGHTS,
                                      kept=["rural", "highway"])
        assert effect.worthwhile(min_factor=2.0, min_coverage=0.4)
        assert not effect.worthwhile(min_factor=2.0, min_coverage=0.6)

    def test_coverage_of_validation(self):
        with pytest.raises(KeyError):
            coverage_of(self.WEIGHTS, ["moon"])
        with pytest.raises(ValueError):
            coverage_of(self.WEIGHTS, [])

    def test_mismatched_contexts_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            evaluate_restriction(self.RATES, {"urban": 1.0}, ["urban"])
