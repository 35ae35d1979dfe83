"""Tests for frequency value objects and their unit algebra."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.quantities import (PER_HOUR, PER_KM, PER_MISSION,
                                   ExposureBase, ExposureProfile, Frequency,
                                   FrequencyBand, FrequencyUnit,
                                   UnitMismatchError, sum_frequencies)

rates = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
positive_rates = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False,
                           allow_infinity=False)


class TestConstruction:
    def test_basic_construction(self):
        f = Frequency(1e-7)
        assert f.rate == 1e-7
        assert f.unit.base is ExposureBase.OPERATING_HOUR

    def test_named_constructors(self):
        assert Frequency.per_hour(2.0).unit == PER_HOUR
        assert Frequency.per_km(2.0).unit == PER_KM
        assert Frequency.per_mission(2.0).unit == PER_MISSION

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Frequency(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Frequency(math.nan)

    def test_infinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Frequency(math.inf)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            Frequency(True)

    def test_scaled_unit_normalised(self):
        """3 events per 1e9 hours is 3e-9 per hour."""
        f = Frequency(3.0, FrequencyUnit(ExposureBase.OPERATING_HOUR, 1e9))
        assert f.rate == pytest.approx(3e-9)
        assert f.unit.scale == 1.0

    def test_unit_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            FrequencyUnit(ExposureBase.OPERATING_HOUR, 0.0)

    def test_zero(self):
        assert Frequency.zero().is_zero()
        assert Frequency.zero(PER_KM).unit == PER_KM


class TestParsing:
    def test_parse_per_hour(self):
        assert Frequency.parse("1e-7 /h") == Frequency.per_hour(1e-7)

    def test_parse_scaled(self):
        assert Frequency.parse("3/1e9 h").rate == pytest.approx(3e-9)

    def test_parse_per_mission(self):
        assert Frequency.parse("0.2 /mission") == Frequency.per_mission(0.2)

    def test_parse_garbage_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            Frequency.parse("seven per fortnight")


class TestAlgebra:
    def test_addition(self):
        assert Frequency.per_hour(1.0) + Frequency.per_hour(2.0) == \
            Frequency.per_hour(3.0)

    def test_subtraction(self):
        assert Frequency.per_hour(3.0) - Frequency.per_hour(1.0) == \
            Frequency.per_hour(2.0)

    def test_subtraction_below_zero_rejected(self):
        with pytest.raises(ValueError):
            Frequency.per_hour(1.0) - Frequency.per_hour(2.0)

    def test_subtraction_absorbs_float_fuzz(self):
        a = Frequency.per_hour(0.1 + 0.2)
        b = Frequency.per_hour(0.3)
        assert (a - b).rate >= 0.0
        assert (b - (b - Frequency.per_hour(0.0))).rate == 0.0

    def test_cross_unit_addition_rejected(self):
        with pytest.raises(UnitMismatchError):
            Frequency.per_hour(1.0) + Frequency.per_km(1.0)

    def test_cross_unit_comparison_rejected(self):
        with pytest.raises(UnitMismatchError):
            Frequency.per_hour(1.0) < Frequency.per_km(2.0)

    def test_scalar_multiplication(self):
        assert 2.0 * Frequency.per_hour(1.5) == Frequency.per_hour(3.0)
        assert Frequency.per_hour(1.5) * 2.0 == Frequency.per_hour(3.0)

    def test_frequency_multiplication_rejected(self):
        with pytest.raises(TypeError):
            Frequency.per_hour(1.0) * Frequency.per_hour(1.0)

    def test_division_by_scalar(self):
        assert Frequency.per_hour(3.0) / 2.0 == Frequency.per_hour(1.5)

    def test_division_by_frequency_gives_ratio(self):
        assert Frequency.per_hour(3.0) / Frequency.per_hour(1.5) == 2.0

    def test_division_by_zero_frequency(self):
        with pytest.raises(ZeroDivisionError):
            Frequency.per_hour(1.0) / Frequency.per_hour(0.0)

    def test_equality_ignores_display_scale(self):
        a = Frequency(3.0, FrequencyUnit(ExposureBase.OPERATING_HOUR, 1e9))
        b = Frequency(3e-9, PER_HOUR)
        assert a == b
        assert hash(a) == hash(b)

    def test_comparison(self):
        assert Frequency.per_hour(1.0) < Frequency.per_hour(2.0)
        assert Frequency.per_hour(2.0) >= Frequency.per_hour(2.0)

    @given(a=rates, b=rates)
    def test_addition_commutative(self, a, b):
        fa, fb = Frequency.per_hour(a), Frequency.per_hour(b)
        assert (fa + fb) == (fb + fa)

    @given(a=rates, b=rates, c=rates)
    def test_addition_associative_approx(self, a, b, c):
        fa, fb, fc = (Frequency.per_hour(x) for x in (a, b, c))
        left = ((fa + fb) + fc).rate
        right = (fa + (fb + fc)).rate
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    @given(a=rates)
    def test_zero_is_identity(self, a):
        f = Frequency.per_hour(a)
        assert f + Frequency.zero() == f


class TestWithinAndExpectation:
    def test_within_budget(self):
        assert Frequency.per_hour(1e-8).within(Frequency.per_hour(1e-7))

    def test_exceeds_budget(self):
        assert not Frequency.per_hour(2e-7).within(Frequency.per_hour(1e-7))

    def test_within_tolerates_fuzz_at_boundary(self):
        budget = Frequency.per_hour(0.3)
        load = Frequency.per_hour(0.1) + Frequency.per_hour(0.2)
        assert load.within(budget)

    def test_expected_events(self):
        assert Frequency.per_hour(1e-3).expected_events(1e4) == \
            pytest.approx(10.0)

    def test_expected_events_negative_exposure_rejected(self):
        with pytest.raises(ValueError):
            Frequency.per_hour(1.0).expected_events(-1.0)


class TestSumFrequencies:
    def test_empty_sum_is_zero(self):
        assert sum_frequencies([]).is_zero()

    def test_sum(self):
        total = sum_frequencies([Frequency.per_hour(1.0),
                                 Frequency.per_hour(2.5)])
        assert total == Frequency.per_hour(3.5)

    def test_sum_mixed_units_rejected(self):
        with pytest.raises(UnitMismatchError):
            sum_frequencies([Frequency.per_hour(1.0), Frequency.per_km(1.0)])


class TestFrequencyBand:
    def test_containment(self):
        band = FrequencyBand(Frequency.per_hour(1e-8), Frequency.per_hour(1e-6))
        assert Frequency.per_hour(1e-7) in band
        assert Frequency.per_hour(1e-9) not in band
        assert Frequency.per_hour(1e-6) not in band  # half-open

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError):
            FrequencyBand(Frequency.per_hour(1e-6), Frequency.per_hour(1e-8))

    def test_geometric_midpoint(self):
        band = FrequencyBand(Frequency.per_hour(1e-8), Frequency.per_hour(1e-6))
        assert band.midpoint_log().rate == pytest.approx(1e-7)

    def test_width_decades(self):
        band = FrequencyBand(Frequency.per_hour(1e-8), Frequency.per_hour(1e-6))
        assert band.width_decades() == pytest.approx(2.0)

    def test_zero_low_width_infinite(self):
        band = FrequencyBand(Frequency.zero(), Frequency.per_hour(1e-6))
        assert math.isinf(band.width_decades())


class TestExposureProfile:
    def test_hour_to_km(self):
        profile = ExposureProfile(mean_speed_km_per_h=50.0,
                                  mean_mission_hours=0.5)
        converted = profile.convert(Frequency.per_hour(1.0), PER_KM)
        assert converted == Frequency.per_km(0.02)

    def test_km_to_mission(self):
        profile = ExposureProfile(mean_speed_km_per_h=50.0,
                                  mean_mission_hours=0.5)
        converted = profile.convert(Frequency.per_km(0.02), PER_MISSION)
        assert converted.rate == pytest.approx(0.5)

    def test_roundtrip(self):
        profile = ExposureProfile(mean_speed_km_per_h=72.0,
                                  mean_mission_hours=0.75)
        original = Frequency.per_hour(3.3e-5)
        roundtripped = profile.convert(
            profile.convert(original, PER_MISSION), PER_HOUR)
        assert roundtripped.rate == pytest.approx(original.rate)

    def test_same_base_is_identity(self):
        profile = ExposureProfile(50.0, 0.5)
        f = Frequency.per_hour(2.0)
        assert profile.convert(f, PER_HOUR) == f

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            ExposureProfile(0.0, 1.0)
        with pytest.raises(ValueError):
            ExposureProfile(50.0, 0.0)
