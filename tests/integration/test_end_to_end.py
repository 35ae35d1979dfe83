"""End-to-end integration: simulate → estimate → allocate → verify → argue.

The full QRN workflow of Sec. III–V run against the traffic substrate, the
way a real programme would run it against fleet data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assurance.safety_case import build_qrn_safety_case
from repro.core import (allocate_lp, derive_safety_goals, figure4_taxonomy,
                        figure5_incident_types)
from repro.core.verification import Verdict, verify_against_counts
from repro.traffic import (BrakingSystem, EncounterGenerator,
                           cautious_policy, default_context_profiles,
                           default_perception, nominal_policy, simulate_mix,
                           type_counts)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


@pytest.fixture(scope="module")
def campaign(world):
    """A 5000-hour simulated verification campaign with a good policy."""
    return simulate_mix(cautious_policy(), world, default_perception(),
                        BrakingSystem(), MIX, 5000.0,
                        np.random.default_rng(314))


class TestFullWorkflow:
    def test_verification_against_simulated_counts(self, norm, campaign):
        """The statistical verdicts behave sensibly on simulated data:
        a cautious policy demonstrates the quality goals within feasible
        exposure, while fatality-class goals stay inconclusive (never
        falsely demonstrated) at this exposure."""
        types = list(figure5_incident_types())
        allocation = allocate_lp(norm, types,
                                 objective="max-min")
        goals = derive_safety_goals(allocation)
        counts, _ = type_counts(campaign, types)
        report = verify_against_counts(goals, counts, campaign.hours)
        for verdict in report.goal_verdicts:
            assert verdict.verdict in tuple(Verdict)
        # No goal whose budget is far below 1/hours can be 'demonstrated'.
        for verdict in report.goal_verdicts:
            if verdict.budget.rate < 0.1 / campaign.hours:
                assert verdict.verdict is not Verdict.DEMONSTRATED

    def test_safety_case_assembles_and_rolls_up(self, norm, campaign):
        types = list(figure5_incident_types())
        allocation = allocate_lp(norm, types)
        goals = derive_safety_goals(allocation, taxonomy=figure4_taxonomy())
        counts, _ = type_counts(campaign, types)
        report = verify_against_counts(goals, counts, campaign.hours)
        case = build_qrn_safety_case(goals, report)
        # The case must be internally consistent: supported iff all
        # evidence supports.
        assert case.is_supported() == (not case.failing_evidence()
                                       and not case.undeveloped())

    def test_policy_change_moves_rates_not_goals(self, norm, world):
        """The paper's headline property: safety goals are independent of
        the tactical strategy; only the achieved rates move."""
        types = list(figure5_incident_types())
        allocation = allocate_lp(norm, types)
        goals = derive_safety_goals(allocation)

        def observed_rate(policy, seed):
            run = simulate_mix(policy, world, default_perception(),
                               BrakingSystem(), MIX, 2000.0,
                               np.random.default_rng(seed))
            counts, _ = type_counts(run, types)
            return sum(counts.values()) / run.hours

        cautious_rate = observed_rate(cautious_policy(), 1)
        nominal_rate = observed_rate(nominal_policy(), 1)
        # Rates differ by policy...
        assert cautious_rate != nominal_rate
        # ...but the SG set (ids and budgets) is untouched by policy.
        goals_again = derive_safety_goals(allocation)
        assert [g.goal_id for g in goals] == [g.goal_id for g in goals_again]
        assert [g.max_frequency for g in goals] == \
            [g.max_frequency for g in goals_again]
