"""Integration tests for the paper's Sec. II-B arguments.

These are the claims the paper makes *against* the conventional HARA,
demonstrated by running both methods against the same substrate:

* exposure circularity (II-B-2/3): the HARA's E-rating of 'needs hard
  braking' flips with the tactical policy under analysis;
* situation explosion vs constant QRN goal count (II-B-1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                        figure5_incident_types)
from repro.hara.exposure import exposure_from_rate_per_hour
from repro.hara.situation import SituationCatalog, standard_dimensions
from repro.traffic import (BrakingSystem, EncounterGenerator,
                           default_context_profiles, default_perception,
                           nominal_policy, simulate_mix)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


class TestExposureCircularity:
    def test_hara_exposure_class_depends_on_policy(self, world):
        """The E-rating of the 'needs >4 m/s² braking' situation is not an
        input — it is an output of the tactical design (Sec. II-B-3)."""
        classes = {}
        for slowdown, cue, sight in ((0.0, 0.0, 1.4), (0.6, 0.9, 0.5)):
            policy = nominal_policy().with_proactivity(slowdown, cue,
                                                       sight_margin=sight)
            run = simulate_mix(policy, world, default_perception(),
                               BrakingSystem(), MIX, 3000.0,
                               np.random.default_rng(42))
            # Treat each demand episode as a ~10 s situation.
            rate = run.hard_braking_rate_per_hour()
            classes[slowdown] = exposure_from_rate_per_hour(rate, 10 / 3600)
        assert classes[0.6] < classes[0.0], (
            "proactive policy must lower the exposure class the HARA "
            "would have fixed at design time")

    def test_qrn_goals_unaffected_by_same_change(self):
        """Meanwhile the QRN's SGs never mention the situation at all."""
        norm = example_norm()
        types = list(figure5_incident_types())
        goals = derive_safety_goals(allocate_lp(norm, types))
        for goal in goals:
            text = goal.render()
            assert "braking" not in text.lower()
            assert "m/s" not in text


class TestCompletenessScaling:
    def test_hara_grows_qrn_does_not(self):
        """HE candidates explode with ODD detail; the QRN's SG count is a
        function of the taxonomy only (Sec. II-B-1)."""
        norm = example_norm()
        types = list(figure5_incident_types())
        qrn_goal_counts = []
        hara_he_counts = []
        for detail in (1, 2, 3):
            catalog = SituationCatalog(standard_dimensions(detail))
            # a modest 10-hazard HAZOP over the catalog
            hara_he_counts.append(10 * catalog.count())
            goals = derive_safety_goals(allocate_lp(norm, types))
            qrn_goal_counts.append(len(goals))
        assert hara_he_counts[-1] > 100 * hara_he_counts[0]
        assert len(set(qrn_goal_counts)) == 1

    def test_odd_restriction_shrinks_hara_but_is_a_scope_loss(self):
        catalog = SituationCatalog(standard_dimensions(2))
        restricted = catalog.restricted({"weather": ["clear"],
                                         "lighting": ["day"]})
        assert restricted.count() < catalog.count()
        # The reduction comes purely from excluding operation.
        ratio = catalog.count() / restricted.count()
        assert ratio == pytest.approx(9.0)  # 3 weather x 3 lighting kept 1x1
