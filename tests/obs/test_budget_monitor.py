"""Unit tests for live QRN budget-utilisation tracking.

A campaign's live budget table is the journal's replay verified as a
whole: :meth:`JournalReplay.budget_report` runs ``verify_against_counts``
on the summed chunk counts over the fsum-pooled hours, and the recorder
writes its :meth:`~repro.core.verification.VerificationReport.to_rows`.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import derive_safety_goals
from repro.core.verification import verify_against_counts
from repro.obs import (EventRecord, FlightRecorder, JournalReplay,
                       read_status, render_status, replay_journal)
from repro.stats.poisson import rate_mle, rate_upper_bound


@pytest.fixture
def goals(allocation):
    return derive_safety_goals(allocation)


def _replay(chunks):
    """Fold ``(hours, type_counts)`` chunk commits into one replay."""
    replay = JournalReplay()
    for index, (hours, counts) in enumerate(chunks):
        replay.observe(EventRecord(
            seq=index, ts_utc="2026-01-01T00:00:00+00:00",
            kind="chunk.committed",
            data={"chunk_index": index, "hours": hours,
                  "type_counts": dict(counts)}))
    return replay


def _row(rows, budget_id):
    (row,) = [row for row in rows if row["budget_id"] == budget_id]
    return row


class TestAccumulation:
    def test_starts_empty(self):
        replay = JournalReplay()
        assert replay.hours == 0.0
        assert replay.type_counts() == {}

    def test_counts_and_exposure_accumulate(self, goals):
        replay = _replay([(100.0, {"I1": 2}), (50.0, {"I1": 1, "I2": 3})])
        assert replay.type_counts() == {"I1": 3, "I2": 3}
        assert replay.hours == pytest.approx(150.0)
        report = replay.budget_report(goals)
        assert report.exposure == replay.hours
        # Types no chunk reported are zero observed events.
        assert {g.type_id: g.observed_count for g in report.goal_verdicts} \
            == {"I1": 3, "I2": 3, "I3": 0}

    def test_unknown_type_rejected_without_half_apply(self, goals):
        replay = _replay([(10.0, {"I1": 2}), (10.0, {"I1": 2, "nope": 1})])
        with pytest.raises(KeyError, match="unknown incident types"):
            replay.budget_report(goals)
        # The failed verdict leaves the fold as it was.
        assert replay.type_counts() == {"I1": 4, "nope": 1}
        assert replay.hours == 20.0

    def test_negative_count_rejected_without_half_apply(self, goals):
        replay = _replay([(10.0, {"I1": 2, "I2": -1})])
        with pytest.raises(ValueError, match="non-negative"):
            replay.budget_report(goals)
        assert replay.type_counts() == {"I1": 2, "I2": -1}
        assert replay.hours == 10.0

    def test_bad_exposure_rejected(self, goals):
        for exposure in (0.0, -1.0, math.inf, math.nan):
            replay = _replay([(exposure, {"I1": 1})])
            with pytest.raises(ValueError):
                replay.budget_report(goals)

    def test_bad_confidence_rejected(self, goals):
        replay = _replay([(10.0, {"I1": 1})])
        for confidence in (0.0, 1.0):
            with pytest.raises(ValueError, match="confidence"):
                verify_against_counts(goals, replay.type_counts(),
                                      replay.hours, confidence=confidence)


class TestUtilisation:
    def test_requires_exposure(self, goals, fig5_types, tmp_path):
        with pytest.raises(ValueError, match="exposure must be positive"):
            JournalReplay().budget_report(goals)
        # Before its first chunk a recorder writes no budget table.
        with FlightRecorder(tmp_path, goals=goals,
                            types=fig5_types) as recorder:
            assert recorder.status_document()["budget"] is None
        assert read_status(recorder.status_path)["budget"] is None

    def test_type_rows_match_poisson_intervals(self, goals):
        counts = {"I1": 4, "I3": 1}
        rows = _replay([(200.0, counts)]).budget_report(goals).to_rows()
        for goal in goals:
            row = _row(rows, goal.type_id)
            count = counts.get(goal.type_id, 0)
            point = rate_mle(count, 200.0)
            upper = rate_upper_bound(count, 200.0, 0.95)
            budget = goal.max_frequency.rate
            assert row["kind"] == "incident_type"
            assert row["observed"] == count
            assert row["rate"] == point
            assert row["rate_upper"] == upper
            assert row["budget_rate"] == budget
            assert row["utilisation"] == pytest.approx(point / budget)
            assert row["utilisation_upper"] == pytest.approx(upper / budget)

    def test_class_rows_propagate_splits(self, goals):
        counts = {"I1": 10, "I2": 2, "I3": 1}
        replay = _replay([(300.0, {"I1": 6, "I3": 1}),
                          (200.0, {"I1": 4, "I2": 2})])
        assert replay.type_counts() == counts
        rows = replay.budget_report(goals).to_rows()
        points = {tid: rate_mle(counts[tid], 500.0) for tid in counts}
        uppers = {tid: rate_upper_bound(counts[tid], 500.0, 0.95)
                  for tid in counts}
        for class_id in goals.norm.class_ids:
            row = _row(rows, class_id)
            expected_point = sum(
                itype.split.fraction(class_id) * points[itype.type_id]
                for itype in goals.allocation.types)
            expected_upper = sum(
                itype.split.fraction(class_id) * uppers[itype.type_id]
                for itype in goals.allocation.types)
            assert row["kind"] == "consequence_class"
            assert row["rate"] == pytest.approx(expected_point)
            assert row["rate_upper"] == pytest.approx(expected_upper)
            assert row["observed"] == pytest.approx(expected_point * 500.0)
            assert row["budget_rate"] == goals.norm.budget(class_id).rate

    def test_report_shape_and_render(self, goals):
        report = _replay([(100.0, {"I1": 1})]).budget_report(goals)
        rows = report.to_rows()
        kinds = [row["kind"] for row in rows]
        assert kinds.count("incident_type") == len(goals.allocation.type_ids)
        assert kinds.count("consequence_class") == len(goals.norm.class_ids)
        assert min(row["utilisation"] for row in rows) >= 0.0
        assert all("utilisation_upper" in row for row in rows)
        with pytest.raises(KeyError):
            report.consequence_class("no-such-budget")
        assert "Verification over 100 exposure units" in report.summary()
        text = render_status({"state": "running", "budget": rows})
        assert "Budget utilisation (live)" in text
        assert "95% UCB util." in text
        for row in rows:
            assert row["budget_id"] in text

    def test_utilisation_above_one_flags_violation(self, goals):
        # Enough I3 events to blow any of the example budgets
        rows = _replay([(1.0, {"I3": 1000})]).budget_report(goals).to_rows()
        i3 = _row(rows, "I3")
        assert i3["utilisation"] > 1.0
        assert i3["verdict"] == "violated"
        assert max(row["utilisation"] for row in rows) > 1.0


class TestObserveResult:
    def test_classifies_a_real_campaign(self, goals, fig5_types, tmp_path):
        from repro.traffic import (BrakingSystem, EncounterGenerator,
                                   default_context_profiles,
                                   default_perception, nominal_policy,
                                   simulate_mix)
        from repro.traffic.incidents import type_counts

        world = EncounterGenerator(default_context_profiles())
        run = simulate_mix(nominal_policy(), world, default_perception(),
                           BrakingSystem(),
                           {"urban": 0.6, "rural": 0.4}, 150.0,
                           np.random.default_rng(7), engine="vectorized")
        with FlightRecorder(tmp_path, goals=goals,
                            types=fig5_types) as recorder:
            recorder.on_progress(SimpleNamespace(
                chunk_index=0, bytes_shipped=0, result=run))
        counts, _ = type_counts(run, fig5_types)
        replay = replay_journal(recorder.journal_path)
        assert replay.type_counts() == counts
        assert replay.hours == run.hours
        assert read_status(recorder.status_path)["budget"] == \
            verify_against_counts(goals, counts, run.hours).to_rows()
