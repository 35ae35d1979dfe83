"""Tests for incident types, margins, splits and record classification."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.incident import (ContributionSplit, IncidentRecord,
                                 IncidentType, ProximityMargin, SpeedBand,
                                 classify_records)
from repro.core.consequence import example_scale
from repro.core.taxonomy import ActorClass


class TestSpeedBand:
    def test_open_below_closed_above(self):
        band = SpeedBand(0.0, 10.0)
        assert not band.contains(0.0)
        assert band.contains(0.1)
        assert band.contains(10.0)
        assert not band.contains(10.1)

    def test_adjacent_bands_tile(self):
        low, high = SpeedBand(0.0, 10.0), SpeedBand(10.0, 70.0)
        assert not low.overlaps(high)
        # 10.0 belongs to exactly one band.
        assert low.contains(10.0) and not high.contains(10.0)

    def test_overlap_detection(self):
        assert SpeedBand(0.0, 12.0).overlaps(SpeedBand(10.0, 70.0))

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            SpeedBand(10.0, 10.0)

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            SpeedBand(-1.0, 10.0)

    def test_describe(self):
        assert "10" in SpeedBand(0.0, 10.0).describe()


class TestProximityMargin:
    def test_containment(self):
        margin = ProximityMargin(1.0, 10.0)
        assert margin.contains(0.5, 15.0)
        assert not margin.contains(1.5, 15.0)   # too far
        assert not margin.contains(0.5, 5.0)    # too slow
        assert not margin.contains(0.0, 15.0)   # zero distance = collision

    def test_invalid_margins_rejected(self):
        with pytest.raises(ValueError):
            ProximityMargin(0.0, 10.0)
        with pytest.raises(ValueError):
            ProximityMargin(1.0, -1.0)


class TestContributionSplit:
    def test_basic(self):
        split = ContributionSplit({"vS1": 0.7, "vS2": 0.3})
        assert split.fraction("vS1") == 0.7
        assert split.fraction("vQ1") == 0.0
        assert split.total() == pytest.approx(1.0)

    def test_partial_split_allowed(self):
        split = ContributionSplit({"vS1": 0.5})
        assert split.total() == 0.5

    def test_over_unity_rejected(self):
        with pytest.raises(ValueError, match="> 1"):
            ContributionSplit({"vS1": 0.7, "vS2": 0.5})

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError):
            ContributionSplit({"vS1": 0.0})

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            ContributionSplit({})

    def test_validate_against_scale(self):
        split = ContributionSplit({"vS1": 0.5, "bogus": 0.1})
        with pytest.raises(ValueError, match="bogus"):
            split.validate_against(example_scale())

    def test_rebalanced(self):
        split = ContributionSplit({"vS1": 0.7, "vS2": 0.3})
        updated = split.rebalanced("vS2", 0.2)
        assert updated.fraction("vS2") == 0.2
        assert split.fraction("vS2") == 0.3  # original untouched

    def test_rebalanced_to_zero_drops_class(self):
        split = ContributionSplit({"vS1": 0.7, "vS2": 0.3})
        updated = split.rebalanced("vS2", 0.0)
        assert updated.class_ids == ("vS1",)

    @given(fractions=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=0.01, max_value=0.25, allow_nan=False),
        min_size=1, max_size=4))
    def test_valid_fractions_always_accepted(self, fractions):
        split = ContributionSplit(fractions)
        assert split.total() <= 1.0 + 1e-9


class TestIncidentType:
    def test_fig5_types_shape(self, fig5_types):
        i1, i2, i3 = fig5_types
        assert not i1.is_collision_type
        assert i2.is_collision_type and i3.is_collision_type
        assert isinstance(i1.margin, ProximityMargin)
        assert i2.margin.high_kmh == 10.0
        assert i3.margin.low_kmh == 10.0 and i3.margin.high_kmh == 70.0
        assert i2.split.fraction("vS1") == pytest.approx(0.7)
        assert i2.split.fraction("vS2") == pytest.approx(0.3)
        assert i3.split.fraction("vS3") > 0

    def test_describe_mentions_pair_and_margin(self, fig5_types):
        text = fig5_types[1].describe()
        assert "I2" in text and "VRU" in text and "10" in text

    def test_wrong_margin_type_rejected(self):
        with pytest.raises(TypeError, match="margin"):
            IncidentType("bad", ActorClass.EGO, ActorClass.VRU,
                         margin="0-10 km/h",  # type: ignore[arg-type]
                         split=ContributionSplit({"vS1": 1.0}))

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            IncidentType("", ActorClass.EGO, ActorClass.VRU,
                         margin=SpeedBand(0, 10),
                         split=ContributionSplit({"vS1": 1.0}))


class TestRecordMatching:
    def test_collision_matches_band(self, fig5_types):
        _, i2, i3 = fig5_types
        record = IncidentRecord(ActorClass.VRU, True, delta_v_kmh=5.0)
        assert i2.matches(record)
        assert not i3.matches(record)

    def test_boundary_goes_to_lower_band(self, fig5_types):
        _, i2, i3 = fig5_types
        record = IncidentRecord(ActorClass.VRU, True, delta_v_kmh=10.0)
        assert i2.matches(record)
        assert not i3.matches(record)

    def test_near_miss_matches_proximity(self, fig5_types):
        i1, i2, _ = fig5_types
        record = IncidentRecord(ActorClass.VRU, False, min_distance_m=0.5,
                                approach_speed_kmh=20.0)
        assert i1.matches(record)
        assert not i2.matches(record)

    def test_wrong_counterpart_never_matches(self, fig5_types):
        record = IncidentRecord(ActorClass.CAR, True, delta_v_kmh=5.0)
        assert not any(t.matches(record) for t in fig5_types)

    def test_invalid_records_rejected(self):
        with pytest.raises(ValueError, match="positive delta_v"):
            IncidentRecord(ActorClass.VRU, True, delta_v_kmh=0.0)
        with pytest.raises(ValueError, match="positive distance"):
            IncidentRecord(ActorClass.VRU, False, min_distance_m=0.0)


class TestClassifyRecords:
    def test_buckets(self, fig5_types):
        records = [
            IncidentRecord(ActorClass.VRU, True, delta_v_kmh=5.0),
            IncidentRecord(ActorClass.VRU, True, delta_v_kmh=30.0),
            IncidentRecord(ActorClass.VRU, False, min_distance_m=0.5,
                           approach_speed_kmh=20.0),
            IncidentRecord(ActorClass.CAR, True, delta_v_kmh=5.0),
        ]
        buckets = classify_records(records, fig5_types)
        assert len(buckets["I1"]) == 1
        assert len(buckets["I2"]) == 1
        assert len(buckets["I3"]) == 1
        assert len(buckets["<unclassified>"]) == 1

    def test_overlapping_types_rejected(self):
        overlapping = [
            IncidentType("A", ActorClass.EGO, ActorClass.VRU,
                         margin=SpeedBand(0, 12),
                         split=ContributionSplit({"vS1": 1.0})),
            IncidentType("B", ActorClass.EGO, ActorClass.VRU,
                         margin=SpeedBand(10, 70),
                         split=ContributionSplit({"vS2": 1.0})),
        ]
        record = IncidentRecord(ActorClass.VRU, True, delta_v_kmh=11.0)
        with pytest.raises(ValueError, match="multiple incident types"):
            classify_records([record], overlapping)
