"""Tests for the automated confirmation review."""

from __future__ import annotations

import pytest

from repro.core import (Allocation, BudgetFloor, Frequency, allocate_lp,
                        derive_safety_goals)
from repro.core.review import Severity, confirmation_review
from repro.core.verification import verify_against_counts


@pytest.fixture
def complete_goals(allocation, fig4_taxonomy):
    return derive_safety_goals(allocation, taxonomy=fig4_taxonomy)


def by_check(findings):
    out = {}
    for finding in findings:
        out.setdefault(finding.check, []).append(finding)
    return out


class TestBlockers:
    def test_missing_certificate_is_blocker(self, allocation):
        goals = derive_safety_goals(allocation)
        findings = by_check(confirmation_review(goals))
        assert findings["mece-certificate"][0].severity is Severity.BLOCKER

    def test_infeasible_allocation_is_blocker(self, norm, fig5_types,
                                              fig4_taxonomy):
        bloated = Allocation(norm, fig5_types, {
            "I1": Frequency.per_hour(1.0),
            "I2": Frequency.per_hour(1.0),
            "I3": Frequency.per_hour(1.0),
        })
        goals = derive_safety_goals(bloated, taxonomy=fig4_taxonomy)
        findings = by_check(confirmation_review(goals))
        assert any(f.severity is Severity.BLOCKER
                   for f in findings["eq1-feasibility"])

    def test_measured_violation_is_blocker(self, complete_goals):
        budget = complete_goals["SG-I2"].max_frequency.rate
        exposure = 1e6
        report = verify_against_counts(
            complete_goals, {"I2": int(budget * exposure * 50) + 5},
            exposure)
        findings = by_check(confirmation_review(complete_goals, report))
        blockers = [f for f in findings["verification"]
                    if f.severity is Severity.BLOCKER]
        assert any("SG-I2" in f.detail for f in blockers)

    def test_ethics_breach_is_blocker(self, complete_goals):
        floor = BudgetFloor(
            "I3", complete_goals["SG-I3"].max_frequency * 10.0)
        findings = by_check(confirmation_review(complete_goals,
                                                constraints=[floor]))
        assert findings["ethical-constraints"][0].severity is \
            Severity.BLOCKER


class TestOpenItems:
    def test_no_report_is_open(self, complete_goals):
        findings = by_check(confirmation_review(complete_goals))
        assert findings["verification"][0].severity is Severity.OPEN

    def test_inconclusive_goals_are_open_with_exposure_hint(
            self, complete_goals):
        report = verify_against_counts(complete_goals, {}, exposure=1e3)
        findings = by_check(confirmation_review(complete_goals, report))
        opens = [f for f in findings["verification"]
                 if f.severity is Severity.OPEN]
        assert opens
        assert any("more" in f.detail for f in opens)

    def test_ledger_gaps_are_open(self, complete_goals):
        from repro.assurance.architecture import AllocationLedger, Element
        ledger = AllocationLedger(complete_goals, [Element("camera")])
        findings = by_check(confirmation_review(complete_goals,
                                                ledger=ledger))
        assert len(findings["refinement"]) == len(complete_goals)


class TestNotesAndCleanState:
    def test_zero_budget_noted(self, norm, fig5_types, fig4_taxonomy):
        # Unweighted max-total LP starves I3 to zero (observed behaviour).
        allocation = allocate_lp(norm, fig5_types)
        goals = derive_safety_goals(allocation, taxonomy=fig4_taxonomy)
        findings = by_check(confirmation_review(goals))
        assert "zero-budget" in findings

    def test_concentration_noted(self, norm, fig5_types, fig4_taxonomy):
        allocation = allocate_lp(norm, fig5_types)
        goals = derive_safety_goals(allocation, taxonomy=fig4_taxonomy)
        findings = by_check(confirmation_review(goals))
        assert "budget-concentration" in findings

    def test_clean_case_has_no_blockers(self, complete_goals):
        report = verify_against_counts(complete_goals, {}, exposure=1e10)
        findings = confirmation_review(complete_goals, report)
        assert all(f.severity is not Severity.BLOCKER for f in findings)

    def test_findings_sorted_most_severe_first(self, norm, fig5_types):
        goals = derive_safety_goals(allocate_lp(norm, fig5_types))
        findings = confirmation_review(goals)
        order = {Severity.BLOCKER: 0, Severity.OPEN: 1, Severity.NOTE: 2}
        ranks = [order[f.severity] for f in findings]
        assert ranks == sorted(ranks)

    def test_render(self, complete_goals):
        findings = confirmation_review(complete_goals)
        for finding in findings:
            text = finding.render()
            assert finding.check in text
            assert finding.severity.value.upper() in text
