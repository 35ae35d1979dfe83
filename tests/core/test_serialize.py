"""Tests for plain-data round-tripping of QRN artefacts."""

from __future__ import annotations

import json

import pytest

from repro.core.allocation import allocate_lp
from repro.core.safety_goals import derive_safety_goals
from repro.core.serialize import (allocation_from_dict, allocation_to_dict,
                                  certificate_from_dict, certificate_to_dict,
                                  goal_set_from_dict, goal_set_to_dict,
                                  incident_type_from_dict,
                                  incident_type_to_dict)


class TestIncidentTypeRoundtrip:
    def test_all_fig5_types(self, fig5_types):
        for itype in fig5_types:
            restored = incident_type_from_dict(incident_type_to_dict(itype))
            assert restored == itype

    def test_json_safe(self, fig5_types):
        for itype in fig5_types:
            json.dumps(incident_type_to_dict(itype))

    def test_unknown_margin_kind_rejected(self, fig5_types):
        data = incident_type_to_dict(fig5_types[0])
        data["margin"] = {"kind": "telepathy"}
        with pytest.raises(ValueError, match="telepathy"):
            incident_type_from_dict(data)


class TestAllocationRoundtrip:
    def test_roundtrip_preserves_everything(self, allocation):
        restored = allocation_from_dict(allocation_to_dict(allocation))
        assert restored.norm == allocation.norm
        assert restored.type_ids == allocation.type_ids
        for type_id in allocation.type_ids:
            assert restored.budget(type_id) == allocation.budget(type_id)
        assert restored.is_feasible() == allocation.is_feasible()

    def test_class_loads_identical(self, allocation):
        restored = allocation_from_dict(allocation_to_dict(allocation))
        for class_id in allocation.norm.class_ids:
            assert restored.class_load(class_id).rate == pytest.approx(
                allocation.class_load(class_id).rate)

    def test_json_safe(self, allocation):
        json.dumps(allocation_to_dict(allocation))


class TestCertificateRoundtrip:
    def test_clean_certificate(self, fig4_taxonomy):
        certificate = fig4_taxonomy.mece_certificate()
        restored = certificate_from_dict(certificate_to_dict(certificate))
        assert restored.is_mece == certificate.is_mece
        assert restored.leaf_names == certificate.leaf_names
        assert restored.points_checked == certificate.points_checked

    def test_json_safe(self, fig4_taxonomy):
        certificate = fig4_taxonomy.mece_certificate()
        json.dumps(certificate_to_dict(certificate))


class TestGoalSetRoundtrip:
    def test_full_roundtrip(self, allocation, fig4_taxonomy):
        goals = derive_safety_goals(allocation, taxonomy=fig4_taxonomy)
        restored = goal_set_from_dict(goal_set_to_dict(goals))
        assert restored.goal_ids == goals.goal_ids
        for goal_id in goals.goal_ids:
            assert restored[goal_id].max_frequency == \
                goals[goal_id].max_frequency
        # Completeness verdict survives (as a record, not a re-check).
        assert restored.is_complete() == goals.is_complete()

    def test_rendered_goals_identical(self, allocation):
        goals = derive_safety_goals(allocation)
        restored = goal_set_from_dict(goal_set_to_dict(goals))
        assert restored.render_all() == goals.render_all()

    def test_through_actual_json(self, allocation, fig4_taxonomy):
        """The real storage path: dict → JSON text → dict → objects."""
        goals = derive_safety_goals(allocation, taxonomy=fig4_taxonomy)
        text = json.dumps(goal_set_to_dict(goals))
        restored = goal_set_from_dict(json.loads(text))
        assert restored.completeness_argument() == \
            goals.completeness_argument()

    def test_dangling_goal_type_rejected(self, allocation):
        goals = derive_safety_goals(allocation)
        data = goal_set_to_dict(goals)
        data["goals"][0]["type_id"] = "ghost"
        with pytest.raises(ValueError, match="ghost"):
            goal_set_from_dict(data)

    def test_lp_allocation_roundtrip(self, norm, fig5_types):
        allocation = allocate_lp(norm, fig5_types, objective="max-min")
        goals = derive_safety_goals(allocation)
        restored = goal_set_from_dict(goal_set_to_dict(goals))
        assert restored.allocation.strategy == allocation.strategy


class TestSerialisationProperties:
    def test_random_allocations_roundtrip(self, norm, fig5_types):
        """Property: any valid budget vector survives the storage path."""
        import numpy as np
        from repro.core import Allocation, Frequency
        rng = np.random.default_rng(99)
        for _ in range(25):
            budgets = {t.type_id: Frequency.per_hour(float(rng.uniform(0, 1e-6)))
                       for t in fig5_types}
            allocation = Allocation(norm, fig5_types, budgets)
            restored = allocation_from_dict(allocation_to_dict(allocation))
            for type_id, budget in budgets.items():
                assert restored.budget(type_id) == budget
