"""Tests for safety-goal synthesis and completeness arguments."""

from __future__ import annotations

import pytest

from repro.core.allocation import allocate_proportional
from repro.core.incident import ContributionSplit, IncidentType, SpeedBand
from repro.core.quantities import Frequency
from repro.core.safety_goals import (SafetyGoal, SafetyGoalSet,
                                     derive_safety_goals)
from repro.core.taxonomy import ActorClass


class TestSafetyGoal:
    def test_render_matches_paper_format(self, allocation):
        goals = derive_safety_goals(allocation)
        text = goals["SG-I2"].render()
        assert text.startswith("SG-I2:")
        assert "Avoid collision Ego<->VRU," in text
        assert "0 < Δv_collision ≤ 10 km/h" in text
        assert "to below f_I2" in text

    def test_near_miss_render(self, allocation):
        goals = derive_safety_goals(allocation)
        text = goals["SG-I1"].render()
        assert "Avoid near-miss Ego<->VRU," in text
        assert "0 < d < 1 m" in text
        assert "Δv > 10 km/h" in text

    def test_satisfaction(self, allocation):
        goals = derive_safety_goals(allocation)
        goal = goals["SG-I2"]
        assert goal.is_satisfied_by(goal.max_frequency * 0.5)
        assert not goal.is_satisfied_by(goal.max_frequency * 2.0)

    def test_empty_id_rejected(self, fig5_types, allocation):
        with pytest.raises(ValueError):
            SafetyGoal("", fig5_types[0], Frequency.per_hour(1e-6))


class TestDerivation:
    def test_one_goal_per_type(self, allocation):
        goals = derive_safety_goals(allocation)
        assert len(goals) == len(allocation.types)
        assert goals.goal_ids == ("SG-I1", "SG-I2", "SG-I3")

    def test_integrity_attribute_matches_allocation(self, allocation):
        goals = derive_safety_goals(allocation)
        for goal in goals:
            assert goal.max_frequency == allocation.budget(goal.type_id)

    def test_goal_for_type(self, allocation):
        goals = derive_safety_goals(allocation)
        assert goals.goal_for_type("I3").goal_id == "SG-I3"
        with pytest.raises(KeyError):
            goals.goal_for_type("IX")

    def test_unknown_goal_lookup(self, allocation):
        goals = derive_safety_goals(allocation)
        with pytest.raises(KeyError):
            goals["SG-IX"]

    def test_taxonomy_attaches_certificate(self, allocation, fig4_taxonomy):
        goals = derive_safety_goals(allocation, taxonomy=fig4_taxonomy)
        assert goals.certificate is not None
        assert goals.certificate.is_mece

    def test_dangling_taxonomy_leaf_rejected(self, norm, fig4_taxonomy):
        stray = IncidentType(
            "IX", ActorClass.EGO, ActorClass.VRU,
            margin=SpeedBand(0, 10),
            split=ContributionSplit({"vS1": 1.0}),
            taxonomy_leaf="Ego<->Unicorn")
        allocation = allocate_proportional(norm, [stray])
        with pytest.raises(ValueError, match="Unicorn"):
            derive_safety_goals(allocation, taxonomy=fig4_taxonomy)


class TestGoalSetInvariants:
    def test_goal_frequency_must_match_allocation(self, allocation):
        goals = list(derive_safety_goals(allocation))
        goals[0] = SafetyGoal(goals[0].goal_id, goals[0].incident_type,
                              goals[0].max_frequency * 2.0)
        with pytest.raises(ValueError, match="disagrees"):
            SafetyGoalSet(goals, allocation.norm, allocation)

    def test_duplicate_goal_ids_rejected(self, allocation):
        goals = list(derive_safety_goals(allocation))
        dupe = SafetyGoal(goals[0].goal_id, goals[1].incident_type,
                          allocation.budget(goals[1].type_id))
        with pytest.raises(ValueError, match="duplicate"):
            SafetyGoalSet([goals[0], dupe], allocation.norm, allocation)

    def test_empty_set_rejected(self, allocation):
        with pytest.raises(ValueError):
            SafetyGoalSet([], allocation.norm, allocation)


class TestCompleteness:
    def test_complete_with_certificate_and_feasible_allocation(
            self, allocation, fig4_taxonomy):
        goals = derive_safety_goals(allocation, taxonomy=fig4_taxonomy)
        assert goals.is_complete()

    def test_incomplete_without_certificate(self, allocation):
        goals = derive_safety_goals(allocation)
        assert not goals.is_complete()

    def test_incomplete_with_infeasible_allocation(self, norm, fig5_types,
                                                   fig4_taxonomy):
        from repro.core.allocation import Allocation
        bloated = Allocation(norm, fig5_types, {
            "I1": Frequency.per_hour(1.0),
            "I2": Frequency.per_hour(1.0),
            "I3": Frequency.per_hour(1.0),
        })
        goals = derive_safety_goals(bloated, taxonomy=fig4_taxonomy)
        assert not goals.is_complete()

    def test_argument_text(self, allocation, fig4_taxonomy):
        goals = derive_safety_goals(allocation, taxonomy=fig4_taxonomy)
        text = goals.completeness_argument()
        assert "MECE" in text
        assert "Eq. 1" in text
        assert "COMPLETE" in text
        for class_id in allocation.norm.class_ids:
            assert class_id in text

    def test_argument_flags_missing_certificate(self, allocation):
        text = derive_safety_goals(allocation).completeness_argument()
        assert "NOT ESTABLISHED" in text

    def test_render_all_contains_every_goal(self, allocation):
        goals = derive_safety_goals(allocation)
        text = goals.render_all()
        for goal_id in goals.goal_ids:
            assert goal_id in text
