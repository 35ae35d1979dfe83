"""Tests for HAZOP hazard derivation and the full HARA pipeline."""

from __future__ import annotations

import pytest

from repro.core.severity import IsoSeverity
from repro.hara.asil import Asil
from repro.hara.controllability import ControllabilityClass
from repro.hara.hara import RatingModel, run_hara
from repro.hara.hazard import GuideWord, VehicleFunction, derive_hazards
from repro.hara.hazardous_event import IsoSafetyGoal, SecRating
from repro.hara.situation import SituationCatalog, SituationDimension


@pytest.fixture
def functions():
    return [
        VehicleFunction("braking", "decelerate on demand"),
        VehicleFunction("steering", "lateral control",
                        applicable_guidewords=(GuideWord.NO, GuideWord.MORE,
                                               GuideWord.UNINTENDED)),
    ]


@pytest.fixture
def catalog():
    return SituationCatalog([
        SituationDimension("road", ("urban", "highway"), (0.6, 0.4)),
        SituationDimension("traffic", ("light", "dense"), (0.5, 0.5)),
    ])


@pytest.fixture
def model():
    def severity(hazard, situation):
        if situation.value("road") == "highway":
            return IsoSeverity.S3
        return IsoSeverity.S1

    def controllability(hazard, situation):
        if hazard.guideword is GuideWord.UNINTENDED:
            return ControllabilityClass.C3
        return ControllabilityClass.C2

    return RatingModel(severity=severity, controllability=controllability)


class TestHazop:
    def test_all_guidewords_by_default(self):
        hazards = derive_hazards([VehicleFunction("braking")])
        assert len(hazards) == len(GuideWord)

    def test_restricted_guidewords(self, functions):
        hazards = derive_hazards(functions)
        steering = [h for h in hazards if h.function.name == "steering"]
        assert len(steering) == 3

    def test_deterministic_ids(self, functions):
        first = derive_hazards(functions)
        second = derive_hazards(functions)
        assert [h.hazard_id for h in first] == [h.hazard_id for h in second]

    def test_statements_mention_function(self, functions):
        for hazard in derive_hazards(functions):
            assert hazard.function.name in hazard.statement

    def test_duplicate_functions_rejected(self):
        fn = VehicleFunction("braking")
        with pytest.raises(ValueError, match="duplicate"):
            derive_hazards([fn, fn])

    def test_empty_function_list_rejected(self):
        with pytest.raises(ValueError):
            derive_hazards([])

    def test_no_guidewords_rejected(self):
        with pytest.raises(ValueError, match="no guidewords"):
            VehicleFunction("idle", applicable_guidewords=())


class TestPipeline:
    def test_event_count(self, functions, catalog, model):
        study = run_hara(functions, catalog, model)
        # (7 + 3 hazards) x 4 situations, all relevant by default.
        assert len(study) == 40
        assert study.situations_considered == 4
        assert study.hazards_considered == 10

    def test_relevance_filter(self, functions, catalog, model):
        filtered = RatingModel(
            severity=model.severity,
            controllability=model.controllability,
            relevant=lambda hazard, situation:
                situation.value("road") == "urban")
        study = run_hara(functions, catalog, filtered)
        assert len(study) == 20
        # Considered totals still count the dismissed combinations.
        assert study.situations_considered == 4

    def test_exposure_comes_from_catalog_fractions(self, functions, catalog,
                                                   model):
        study = run_hara(functions, catalog, model)
        for event in study:
            fraction = catalog.time_fraction(event.situation)
            assert event.rating.exposure.max_time_fraction >= fraction

    def test_events_by_asil_partition(self, functions, catalog, model):
        study = run_hara(functions, catalog, model)
        buckets = study.events_by_asil()
        assert sum(len(events) for events in buckets.values()) == len(study)

    def test_highest_asil(self, functions, catalog, model):
        study = run_hara(functions, catalog, model)
        assert study.highest_asil() >= Asil.QM

    def test_safety_goals_only_above_qm(self, functions, catalog, model):
        study = run_hara(functions, catalog, model)
        goals = study.safety_goals()
        assert all(goal.asil is not Asil.QM for goal in goals)
        above_qm = [e for e in study if e.needs_safety_goal()]
        assert len(goals) == len(above_qm)

    def test_merged_goals_take_max_asil(self, functions, catalog, model):
        study = run_hara(functions, catalog, model)
        merged = study.merged_safety_goals()
        per_hazard = {}
        for event in study:
            if event.needs_safety_goal():
                current = per_hazard.get(event.hazard.hazard_id, Asil.QM)
                per_hazard[event.hazard.hazard_id] = max(current, event.asil)
        assert len(merged) == len(per_hazard)
        for goal in merged:
            hazard_id = goal.goal_id.removeprefix("SG-")
            assert goal.asil is per_hazard[hazard_id]

    def test_completeness_is_an_assumption(self, functions, catalog, model):
        """The baseline's completeness text admits it rests on assumptions
        — the contrast with the QRN's machine-checked certificate."""
        study = run_hara(functions, catalog, model)
        text = study.completeness_argument()
        assert "ASSUMPTION" in text


class TestIsoSafetyGoal:
    def test_qm_goal_rejected(self):
        with pytest.raises(ValueError, match="QM"):
            IsoSafetyGoal("SG-1", "prevent x", Asil.QM, "HE-1")

    def test_render(self):
        goal = IsoSafetyGoal("SG-1", "Prevent unintended braking", Asil.C,
                             "HE-1")
        text = goal.render()
        assert "ASIL C" in text and "SG-1" in text


class TestSecRating:
    def test_asil_property(self):
        rating = SecRating(IsoSeverity.S3,
                           __import__("repro.hara.exposure",
                                      fromlist=["ExposureClass"]
                                      ).ExposureClass.E4,
                           ControllabilityClass.C3)
        assert rating.asil is Asil.D
