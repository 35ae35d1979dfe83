"""Tests for requirement allocation ledgers and safety-case trees."""

from __future__ import annotations

import pytest

from repro.assurance.architecture import (AllocatedRequirement,
                                          AllocationLedger, Element,
                                          Subsystem)
from repro.assurance.fault_tree import BasicEvent, FaultTree, Gate, GateKind
from repro.assurance.safety_case import (CaseNode, NodeKind, SafetyCase,
                                         build_qrn_safety_case)
from repro.core.quantities import Frequency
from repro.core.safety_goals import derive_safety_goals
from repro.core.verification import verify_against_counts


def f(rate):
    return Frequency.per_hour(rate)


@pytest.fixture
def goals(allocation, fig4_taxonomy):
    return derive_safety_goals(allocation, taxonomy=fig4_taxonomy)


@pytest.fixture
def elements():
    return [Element("camera"), Element("lidar"), Element("planner")]


class TestLedger:
    def _requirements(self, goal_id):
        return [
            AllocatedRequirement("R1", "camera", "detect VRUs", f(1e-2),
                                 goal_id),
            AllocatedRequirement("R2", "lidar", "detect VRUs", f(1e-2),
                                 goal_id),
        ]

    def _composition(self, rate_a=1e-2, rate_b=1e-2):
        return FaultTree(Gate("goal-violation", GateKind.AND, (
            BasicEvent("camera-miss", f(rate_a)),
            BasicEvent("lidar-miss", f(rate_b)),
        ), exposure_window=1 / 3600))

    def test_allocate_and_cover(self, goals, elements):
        ledger = AllocationLedger(goals, elements)
        entry = ledger.allocate("SG-I2", self._requirements("SG-I2"),
                                self._composition())
        assert entry.composed_rate().rate == pytest.approx(
            2 * (1 / 3600) * 1e-4)
        assert entry.is_covered() == entry.composition.meets(
            goals["SG-I2"].max_frequency)

    def test_unallocated_goals_reported(self, goals, elements):
        ledger = AllocationLedger(goals, elements)
        ledger.allocate("SG-I2", self._requirements("SG-I2"),
                        self._composition())
        assert set(ledger.unallocated_goals()) == {"SG-I1", "SG-I3"}
        assert not ledger.is_complete()

    def test_unknown_element_rejected(self, goals, elements):
        ledger = AllocationLedger(goals, elements)
        bad = [AllocatedRequirement("R1", "radar", "detect", f(1e-2),
                                    "SG-I2")]
        with pytest.raises(KeyError, match="radar"):
            ledger.allocate("SG-I2", bad)

    def test_wrong_derivation_rejected(self, goals, elements):
        ledger = AllocationLedger(goals, elements)
        bad = [AllocatedRequirement("R1", "camera", "detect", f(1e-2),
                                    "SG-I1")]
        with pytest.raises(ValueError, match="derives from"):
            ledger.allocate("SG-I2", bad)

    def test_requirements_for_element(self, goals, elements):
        ledger = AllocationLedger(goals, elements)
        ledger.allocate("SG-I2", self._requirements("SG-I2"),
                        self._composition())
        assert len(ledger.requirements_for_element("camera")) == 1
        assert ledger.requirements_for_element("planner") == []

    def test_missing_composition_not_covered(self, goals, elements):
        ledger = AllocationLedger(goals, elements)
        ledger.allocate("SG-I2", self._requirements("SG-I2"))
        assert "SG-I2" in ledger.uncovered_goals()

    def test_summary(self, goals, elements):
        ledger = AllocationLedger(goals, elements)
        ledger.allocate("SG-I2", self._requirements("SG-I2"),
                        self._composition())
        text = ledger.summary()
        assert "SG-I2" in text and "UNALLOCATED" in text

    def test_subsystem_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Subsystem("perception", (Element("cam"), Element("cam")))
        with pytest.raises(ValueError):
            Subsystem("empty", ())


class TestCaseNode:
    def test_evidence_must_state_outcome(self):
        with pytest.raises(ValueError, match="outcome"):
            CaseNode("E1", NodeKind.EVIDENCE, "some evidence")

    def test_claims_roll_up(self):
        claim = CaseNode("G1", NodeKind.CLAIM, "claim")
        claim.add(CaseNode("E1", NodeKind.EVIDENCE, "ok", supported=True))
        assert claim.is_supported()
        claim.add(CaseNode("E2", NodeKind.EVIDENCE, "bad", supported=False))
        assert not claim.is_supported()

    def test_undeveloped_claim_unsupported(self):
        assert not CaseNode("G1", NodeKind.CLAIM, "claim").is_supported()

    def test_claim_cannot_assert_support(self):
        with pytest.raises(ValueError, match="roll up"):
            CaseNode("G1", NodeKind.CLAIM, "claim", supported=True)

    def test_evidence_cannot_have_children(self):
        evidence = CaseNode("E1", NodeKind.EVIDENCE, "x", supported=True)
        with pytest.raises(ValueError, match="children"):
            CaseNode("E2", NodeKind.EVIDENCE, "y", children=[evidence],
                     supported=True)


class TestSafetyCase:
    def test_root_must_be_claim(self):
        strategy = CaseNode("S1", NodeKind.STRATEGY, "argue")
        with pytest.raises(ValueError, match="claim"):
            SafetyCase(strategy)

    def test_duplicate_ids_rejected(self):
        root = CaseNode("G", NodeKind.CLAIM, "top")
        root.add(CaseNode("X", NodeKind.EVIDENCE, "a", supported=True))
        root.add(CaseNode("X", NodeKind.EVIDENCE, "b", supported=True))
        with pytest.raises(ValueError, match="duplicate"):
            SafetyCase(root)

    def test_design_time_case_has_undeveloped_goal_claims(self, goals):
        case = build_qrn_safety_case(goals)
        assert not case.is_supported()
        undeveloped = case.undeveloped()
        assert any(node.startswith("G-SG-") for node in undeveloped)

    def test_verified_case_supported(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e10)
        case = build_qrn_safety_case(goals, report)
        assert case.is_supported()
        assert case.failing_evidence() == []

    def test_inconclusive_evidence_does_not_support(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e3)
        case = build_qrn_safety_case(goals, report)
        assert not case.is_supported()
        assert case.failing_evidence()

    def test_render(self, goals):
        report = verify_against_counts(goals, {}, exposure=1e10)
        case = build_qrn_safety_case(goals, report)
        text = case.render()
        assert "G0" in text and "E-mece" in text
        assert "✓" in text


class TestCaseSerialisation:
    def test_round_trip(self, goals):
        import json
        report = verify_against_counts(goals, {}, exposure=1e10)
        case = build_qrn_safety_case(goals, report)
        restored = SafetyCase.from_dict(json.loads(
            json.dumps(case.to_dict())))
        assert restored.render() == case.render()
        assert restored.is_supported() == case.is_supported()

    def test_support_recomputed_not_stored(self, goals):
        """A stored case can never claim more than its evidence: flipping
        stored evidence flips the reloaded roll-up."""
        report = verify_against_counts(goals, {}, exposure=1e10)
        case = build_qrn_safety_case(goals, report)
        data = case.to_dict()

        def poison(node):
            if node.get("supported") is True:
                node["supported"] = False
                return True
            return any(poison(child) for child in node.get("children", []))

        assert poison(data["root"])
        tampered = SafetyCase.from_dict(data)
        assert not tampered.is_supported()

    def test_diff_detects_outcome_changes(self, goals):
        weak = build_qrn_safety_case(
            goals, verify_against_counts(goals, {}, exposure=1e3))
        strong = build_qrn_safety_case(
            goals, verify_against_counts(goals, {}, exposure=1e10))
        changes = weak.diff(strong)
        assert changes
        assert any("evidence outcome False → True" in change
                   for change in changes)

    def test_diff_detects_structure_changes(self, goals):
        design_time = build_qrn_safety_case(goals)
        verified = build_qrn_safety_case(
            goals, verify_against_counts(goals, {}, exposure=1e10))
        changes = design_time.diff(verified)
        assert any(change.startswith("added in other:")
                   for change in changes)

    def test_identical_cases_diff_empty(self, goals):
        case = build_qrn_safety_case(goals)
        assert case.diff(SafetyCase.from_dict(case.to_dict())) == []
