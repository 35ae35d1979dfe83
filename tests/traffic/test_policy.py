"""Tests for tactical policies (the exposure-shaping levers)."""

from __future__ import annotations

import math

import pytest

from repro.traffic.dynamics import stopping_distance
from repro.traffic.policy import (TacticalPolicy, aggressive_policy,
                                  cautious_policy, nominal_policy)


class TestValidation:
    def test_presets_valid(self):
        for policy in (cautious_policy(), nominal_policy(),
                       aggressive_policy()):
            assert policy.target_speed_ms("urban") > 0

    def test_unknown_context_raises(self):
        with pytest.raises(KeyError, match="context"):
            nominal_policy().target_speed_ms("moon")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TacticalPolicy("p", {"urban": -1.0})
        with pytest.raises(ValueError):
            TacticalPolicy("p", {"urban": 40.0}, proactive_slowdown=1.5)
        with pytest.raises(ValueError):
            TacticalPolicy("p", {"urban": 40.0}, comfort_braking_ms2=0.0)
        with pytest.raises(ValueError):
            TacticalPolicy("p", {"urban": 40.0}, sight_margin=0.0)
        with pytest.raises(ValueError):
            TacticalPolicy("", {"urban": 40.0})


class TestApproachSpeed:
    def test_cue_applies_proactive_slowdown(self):
        policy = nominal_policy()
        uncued = policy.approach_speed_ms("urban", False, 8.0, 8.0)
        cued = policy.approach_speed_ms("urban", True, 8.0, 8.0)
        assert cued == pytest.approx(uncued * (1 - policy.proactive_slowdown))

    def test_capability_aware_scales_with_sqrt(self):
        policy = nominal_policy()
        healthy = policy.approach_speed_ms("urban", False, 8.0, 8.0)
        degraded = policy.approach_speed_ms("urban", False, 4.0, 8.0)
        assert degraded == pytest.approx(healthy * math.sqrt(0.5))

    def test_capability_unaware_keeps_speed(self):
        policy = TacticalPolicy("unaware", {"urban": 40.0},
                                capability_aware=False)
        healthy = policy.approach_speed_ms("urban", False, 8.0, 8.0)
        degraded = policy.approach_speed_ms("urban", False, 4.0, 8.0)
        assert degraded == healthy

    def test_capability_awareness_preserves_stopping_distance(self):
        """The paper's claim: knowing the degraded capability lets the
        policy keep its achievable stopping distance."""
        policy = nominal_policy()
        healthy_v = policy.approach_speed_ms("urban", False, 8.0, 8.0)
        degraded_v = policy.approach_speed_ms("urban", False, 4.0, 8.0)
        # Pure braking distance v²/2a is identical by construction.
        assert healthy_v ** 2 / (2 * 8.0) == \
            pytest.approx(degraded_v ** 2 / (2 * 4.0))


class TestSightLimitedSpeed:
    def test_comfort_stop_fits_in_margin(self):
        policy = nominal_policy()
        sight = 50.0
        speed = policy.sight_limited_speed_ms(sight, 8.0)
        achieved = stopping_distance(speed, policy.comfort_braking_ms2,
                                     policy.reaction_time_s)
        assert achieved == pytest.approx(policy.sight_margin * sight)

    def test_shorter_sight_lower_speed(self):
        policy = nominal_policy()
        assert policy.sight_limited_speed_ms(20.0, 8.0) < \
            policy.sight_limited_speed_ms(100.0, 8.0)

    def test_aggressive_overdrives_sight_line(self):
        """sight_margin > 1 means the stop does NOT fit within sight."""
        policy = aggressive_policy()
        speed = policy.sight_limited_speed_ms(30.0, 8.0)
        achieved = stopping_distance(speed, policy.comfort_braking_ms2,
                                     policy.reaction_time_s)
        assert achieved > 30.0

    def test_encounter_speed_takes_minimum(self):
        policy = nominal_policy()
        open_road = policy.encounter_speed_ms("urban", False, 1000.0, 8.0, 8.0)
        blind_corner = policy.encounter_speed_ms("urban", False, 10.0, 8.0, 8.0)
        assert open_road == pytest.approx(
            policy.approach_speed_ms("urban", False, 8.0, 8.0))
        assert blind_corner < open_road

    def test_invalid_sight_distance(self):
        with pytest.raises(ValueError):
            nominal_policy().sight_limited_speed_ms(0.0, 8.0)


class TestPresetsOrdering:
    def test_speed_ordering(self):
        for context in ("urban", "highway"):
            assert cautious_policy().target_speed_ms(context) < \
                nominal_policy().target_speed_ms(context) < \
                aggressive_policy().target_speed_ms(context)

    def test_proactivity_ordering(self):
        assert cautious_policy().proactive_slowdown > \
            nominal_policy().proactive_slowdown > \
            aggressive_policy().proactive_slowdown

    def test_sight_margin_ordering(self):
        assert cautious_policy().sight_margin < \
            nominal_policy().sight_margin < aggressive_policy().sight_margin


class TestSweeps:
    def test_with_proactivity(self):
        swept = nominal_policy().with_proactivity(0.9, 0.95)
        assert swept.proactive_slowdown == 0.9
        assert swept.cue_probability == 0.95
        assert "0.9" in swept.name

    def test_with_proactivity_keeps_other_fields(self):
        base = nominal_policy()
        swept = base.with_proactivity(0.1)
        assert swept.comfort_braking_ms2 == base.comfort_braking_ms2
        assert swept.cue_probability == base.cue_probability
