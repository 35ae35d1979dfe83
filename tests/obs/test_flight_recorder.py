"""The flight recorder's end-to-end invariants (DESIGN §13).

Four contracts are pinned here:

1. **Replay ≡ manifest** — folding a verified journal back through
   :func:`~repro.obs.replay_journal` reconstructs the campaign's
   counters and its budget table (``verify``'s report on the summed
   counts) *bit-for-bit*, for a clean run and across a kill-and-resume
   at any worker count.
2. **Pure observation** — the merged campaign result is bitwise
   identical with the recorder on and off (the golden-stats contract
   extends to the recorder).
3. **Crash consistency** — a campaign killed mid-flight leaves a valid
   (shorter) chain, and the resumed journal still verifies end to end.
4. **Status ≡ replay** — every count in ``status.json``, and its budget
   table, equals the same fold of the journal file, on a fresh campaign
   at any worker count and across a kill-and-resume.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                        figure4_taxonomy, figure5_incident_types)
from repro.core.verification import verify_against_counts
from repro.obs import (EventRecord, FlightRecorder, read_journal,
                       read_status, replay_journal)
from repro.obs.status import classified_counts
from repro.stats import RetryPolicy
from repro.testing.chaos import ChaosScript, ChaosWorker
from repro.traffic import (BrakingSystem, CampaignCheckpoint,
                           EncounterGenerator, cautious_policy,
                           default_context_profiles, default_perception,
                           run_fleet, type_counts)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
HOURS = 500.0
CHUNK_HOURS = 125.0
N_CHUNKS = 4
SCALE = 1e4  # the CLI default --scale


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


@pytest.fixture(scope="module")
def goal_set():
    norm = example_norm().tightened(SCALE, name="sim-scale QRN")
    types = list(figure5_incident_types())
    allocation = allocate_lp(norm, types, objective="max-min")
    return derive_safety_goals(allocation,
                               taxonomy=figure4_taxonomy()), types


def _run(world, seed, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("chunk_hours", CHUNK_HOURS)
    return run_fleet(cautious_policy(), world, default_perception(),
                     BrakingSystem(), MIX, HOURS, seed, **kwargs)


def _recorded_run(world, tmp_path, seed, goal_set, *, workers=2, **kwargs):
    goals, types = goal_set
    with FlightRecorder(tmp_path / "flight", goals=goals,
                        types=types) as recorder:
        result = _run(world, seed, workers=workers,
                      progress=recorder.on_progress, **kwargs)
    return result, recorder


def _manifest_rows(result, goal_set):
    """The budget table a manifest build computes from the merged result."""
    goals, types = goal_set
    counts, _ = type_counts(result, types)
    return verify_against_counts(goals, counts, result.hours).to_rows()


class TestReplayEqualsManifest:
    @pytest.mark.parametrize("seed", [2020, 777])
    def test_counters_reconstruct_exactly(self, world, tmp_path, seed,
                                          goal_set):
        result, recorder = _recorded_run(world, tmp_path, seed, goal_set)
        replay = replay_journal(recorder.journal_path)
        assert sorted(replay.chunks) == list(range(N_CHUNKS))
        # Exact equality, not approx: fsum-pooled exposure and integer
        # counter sums must be bit-for-bit the merged campaign's.
        assert replay.hours == result.hours
        assert replay.encounters_resolved == result.encounters_resolved
        assert replay.incidents_found == result.num_records
        assert replay.collisions == result.collision_count()
        assert replay.hard_braking_demands == result.hard_braking_demands
        assert replay.type_counts() == classified_counts(result, goal_set[1])

    @pytest.mark.parametrize("seed", [2020, 777])
    def test_budget_table_bit_for_bit(self, world, tmp_path, seed, goal_set):
        result, recorder = _recorded_run(world, tmp_path, seed, goal_set)
        replayed = replay_journal(recorder.journal_path)
        assert replayed.budget_report(goal_set[0]).to_rows() == \
            _manifest_rows(result, goal_set)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_replay_verifies_the_summed_counts(self, goal_set, data):
        """One verdict rule: the replayed table is ``verify``'s report on
        the summed counts, whatever the counts, hours and commit order."""
        goals, _ = goal_set
        type_ids = list(goals.allocation.type_ids)
        chunks = data.draw(st.lists(st.tuples(
            st.floats(min_value=1e-3, max_value=1e5),
            st.dictionaries(st.sampled_from(type_ids),
                            st.integers(min_value=0, max_value=500))),
            min_size=1, max_size=8))
        order = data.draw(st.permutations(range(len(chunks))))
        records = [EventRecord(
            seq=seq, ts_utc="2026-01-01T00:00:00+00:00",
            kind="chunk.committed",
            data={"chunk_index": index, "hours": chunks[index][0],
                  "type_counts": chunks[index][1]})
            for seq, index in enumerate(order)]
        summed = {type_id: sum(counts.get(type_id, 0)
                               for _, counts in chunks)
                  for type_id in type_ids}
        report = verify_against_counts(
            goals, summed, math.fsum(hours for hours, _ in chunks))
        rows = replay_journal(records).budget_report(goals).to_rows()
        assert rows == report.to_rows()
        assert [(row["budget_id"], row["verdict"]) for row in rows] == \
            [(g.type_id, g.verdict.value) for g in report.goal_verdicts] \
            + [(c.class_id, c.verdict.value) for c in report.class_verdicts]

    def test_campaign_lifecycle_events(self, world, tmp_path, goal_set):
        _, recorder = _recorded_run(world, tmp_path, 2020, goal_set)
        records, head = read_journal(recorder.journal_path)
        kinds = [r.kind for r in records]
        assert kinds[0] == "campaign.started"
        # The terminal status write may re-evaluate the budget after the
        # fleet's finish event, so trailing budget.verdict entries are
        # legitimate — but nothing else may follow the finish marker.
        after_finish = kinds[kinds.index("campaign.finished") + 1:]
        assert set(after_finish) <= {"budget.verdict"}
        assert kinds.count("chunk.committed") == N_CHUNKS
        assert head is not None
        started = records[0].data
        assert started["seed"] == 2020
        assert started["hours"] == HOURS
        assert started["n_chunks"] == N_CHUNKS


class TestPureObservation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_result_identical_recorder_on_and_off(self, world, tmp_path,
                                                  goal_set, workers):
        plain = _run(world, 2020, workers=workers)
        recorded, _ = _recorded_run(world, tmp_path, 2020, goal_set,
                                    workers=workers)
        assert recorded == plain

    def test_recorder_without_goals_still_journals(self, world, tmp_path):
        with FlightRecorder(tmp_path / "flight") as recorder:
            _run(world, 2020, progress=recorder.on_progress)
        replay = replay_journal(recorder.journal_path)
        assert sorted(replay.chunks) == list(range(N_CHUNKS))
        assert "type_counts" not in replay.chunks[0]


class TestKillAndResume:
    class _KillAfter:
        def __init__(self, recorder, after):
            self.recorder = recorder
            self.after = after
            self.seen = 0

        def __call__(self, update):
            self.recorder.on_progress(update)
            self.seen += 1
            if self.seen >= self.after:
                raise KeyboardInterrupt

    @pytest.mark.parametrize("resume_workers", [1, 2, 4])
    def test_resumed_journal_replays_exactly(self, world, tmp_path,
                                             goal_set, resume_workers):
        goals, types = goal_set
        flight = tmp_path / "flight"
        checkpoint = tmp_path / "campaign.ck.json"
        uninterrupted = _run(world, 2020)

        with pytest.raises(KeyboardInterrupt):
            with FlightRecorder(flight, goals=goals, types=types) as rec:
                _run(world, 2020, workers=1, checkpoint=checkpoint,
                     progress=self._KillAfter(rec, 2))
        # The kill left a valid, shorter chain and an interrupted status.
        partial = replay_journal(flight / "journal.jsonl")
        assert 0 < len(partial.chunks) < N_CHUNKS
        assert read_status(flight / "status.json")["state"] == "interrupted"

        with FlightRecorder(flight, goals=goals, types=types,
                            resume=True) as rec:
            rec.observe_restored_checkpoint(
                CampaignCheckpoint.load(checkpoint))
            resumed = _run(world, 2020, workers=resume_workers,
                           checkpoint=checkpoint, resume=True,
                           progress=rec.on_progress)
        assert resumed == uninterrupted

        # One chain end to end, replaying to exactly one record per
        # chunk and the same budget table as the uninterrupted manifest.
        replay = replay_journal(flight / "journal.jsonl")
        assert replay.resumed == 1
        assert sorted(replay.chunks) == list(range(N_CHUNKS))
        assert replay.hours == resumed.hours
        assert replay.encounters_resolved == resumed.encounters_resolved
        assert replay.budget_report(goals).to_rows() == \
            _manifest_rows(uninterrupted, goal_set)

    def test_resume_journals_no_verdict_the_chain_holds(self, world,
                                                        tmp_path, goal_set):
        """Every ``budget.verdict`` entry changes the verdict the chain
        before it holds: a resumed recorder continues the chain's
        verdicts instead of journalling them all again."""
        goals, types = goal_set
        flight = tmp_path / "flight"
        checkpoint = tmp_path / "campaign.ck.json"
        with pytest.raises(KeyboardInterrupt):
            with FlightRecorder(flight, goals=goals, types=types) as rec:
                _run(world, 2020, checkpoint=checkpoint,
                     progress=self._KillAfter(rec, 2))
        with FlightRecorder(flight, goals=goals, types=types,
                            resume=True) as rec:
            rec.observe_restored_checkpoint(
                CampaignCheckpoint.load(checkpoint))
            _run(world, 2020, checkpoint=checkpoint, resume=True,
                 progress=rec.on_progress)
        records, _ = read_journal(flight / "journal.jsonl")
        held = {}
        for record in records:
            if record.kind != "budget.verdict":
                continue
            budget_id = record.data["budget_id"]
            assert record.data["previous"] == held.get(budget_id)
            assert record.data["verdict"] != held.get(budget_id)
            held[budget_id] = record.data["verdict"]
        final = replay_journal(records).budget_report(goals).to_rows()
        assert held == {row["budget_id"]: row["verdict"] for row in final}
        assert read_status(flight / "status.json")["budget"] == final

    def test_restored_chunks_cover_the_journal_gap(self, world, tmp_path,
                                                   goal_set):
        """Even if every pre-kill chunk event were lost, the restored
        re-emission alone reconstructs the banked prefix."""
        goals, types = goal_set
        flight = tmp_path / "flight"
        checkpoint = tmp_path / "campaign.ck.json"
        with pytest.raises(KeyboardInterrupt):
            with FlightRecorder(flight, goals=goals, types=types) as rec:
                _run(world, 2020, checkpoint=checkpoint,
                     progress=self._KillAfter(rec, 2))
        # Simulate the worst kill window: journal lost all chunk events.
        (flight / "journal.jsonl").unlink()
        (flight / "status.json").unlink()
        with FlightRecorder(flight, goals=goals, types=types) as rec:
            rec.observe_restored_checkpoint(
                CampaignCheckpoint.load(checkpoint))
            resumed = _run(world, 2020, checkpoint=checkpoint, resume=True,
                           progress=rec.on_progress)
        replay = replay_journal(flight / "journal.jsonl")
        assert sorted(replay.chunks) == list(range(N_CHUNKS))
        assert replay.hours == resumed.hours
        assert replay.budget_report(goals).to_rows() == \
            _manifest_rows(resumed, goal_set)


class TestLiveStatus:
    def test_status_document_after_finish(self, world, tmp_path, goal_set):
        result, recorder = _recorded_run(world, tmp_path, 2020, goal_set)
        doc = read_status(recorder.status_path)
        assert doc["state"] == "finished"
        assert doc["chunks_done"] == N_CHUNKS
        assert doc["hours_done"] == result.hours
        assert doc["encounters_resolved"] == result.encounters_resolved
        assert doc["event_seq"] == len(
            read_journal(recorder.journal_path)[0])
        assert isinstance(doc["journal_head"], str)
        budget = doc["budget"]
        assert isinstance(budget, list) and budget
        assert {row["verdict"] for row in budget} <= {
            "demonstrated", "violated", "inconclusive"}

    def test_status_tracks_transport_and_bytes(self, world, tmp_path,
                                               goal_set):
        _, recorder = _recorded_run(world, tmp_path, 2020, goal_set,
                                    workers=2)
        doc = read_status(recorder.status_path)
        assert doc["transport"] in ("shm", "pickle")
        assert doc["bytes_shipped"] > 0

    def test_failure_state_on_exception(self, world, tmp_path):
        with pytest.raises(RuntimeError):
            with FlightRecorder(tmp_path / "flight") as recorder:
                raise RuntimeError("campaign driver bug")
        assert read_status(recorder.status_path)["state"] == "failed"

    def test_eta_is_null_not_inf(self, tmp_path):
        with FlightRecorder(tmp_path / "flight") as recorder:
            doc = recorder.status_document()
            assert doc["eta_s"] is None or math.isfinite(doc["eta_s"])


def _replayed_status(journal):
    """The status counts, folded from the journal file alone."""
    records, _ = read_journal(journal)
    replay = replay_journal(records)
    started = replay.campaign
    resumed = [r.data for r in records if r.kind == "campaign.resumed"]
    restored = resumed[-1] if resumed else {}
    return {
        "chunks_done": len(replay.chunks),
        "chunks_total": started["n_chunks"],
        "chunks_resumed": len(restored.get("chunk_indices", [])),
        "hours_done": replay.hours,
        "hours_total": started["hours"],
        "hours_resumed": restored.get("hours_resumed", 0.0),
        "encounters_resolved": replay.encounters_resolved,
        "incidents_found": replay.incidents_found,
        "hard_braking_demands": replay.hard_braking_demands,
        "failures": len(replay.failures),
        "retries": replay.retries,
        "timeouts": replay.timeouts,
        "quarantined": len(replay.quarantined),
        "pool_rebuilds": replay.pool_rebuilds,
        "checkpoint_commits": replay.checkpoint_commits,
        "transport": started["transport"],
        "event_seq": len(records),
    }


def _status_counts(flight, keys):
    doc = read_status(flight / "status.json")
    return {key: doc[key] for key in keys}


class TestStatusIsTheReplay:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fresh_status_equals_replay(self, world, tmp_path, goal_set,
                                        workers):
        checkpoint = tmp_path / "campaign.ck"
        _, recorder = _recorded_run(world, tmp_path, 2020, goal_set,
                                    workers=workers, checkpoint=checkpoint)
        flight = tmp_path / "flight"
        replayed = _replayed_status(recorder.journal_path)
        assert replayed["chunks_total"] == replayed["chunks_done"] \
            == replayed["checkpoint_commits"] == N_CHUNKS
        assert _status_counts(flight, replayed) == replayed
        assert read_status(flight / "status.json")["budget"] == \
            replay_journal(recorder.journal_path).budget_report(
                goal_set[0]).to_rows()

    def test_resumed_status_counts_the_whole_journal(self, world, tmp_path,
                                                     goal_set):
        """A retried chunk, a kill after 2 of 4 chunks, then a resume:
        the fault counters cover both runs, as the progress totals do."""
        goals, types = goal_set
        flight = tmp_path / "flight"
        checkpoint = tmp_path / "campaign.ck"
        (tmp_path / "chaos").mkdir()
        script = ChaosScript({1: ("raise",)})
        with pytest.raises(KeyboardInterrupt), \
                pytest.warns(RuntimeWarning, match="chunk 1 failed"):
            with FlightRecorder(flight, goals=goals, types=types) as rec:
                _run(world, 2020, checkpoint=checkpoint,
                     retry=RetryPolicy(backoff_base_s=0.0, jitter_s=0.0),
                     wrap_worker=lambda worker: ChaosWorker(
                         worker, script, str(tmp_path / "chaos")),
                     progress=TestKillAndResume._KillAfter(rec, 2))
        with FlightRecorder(flight, goals=goals, types=types,
                            resume=True) as rec:
            rec.observe_restored_checkpoint(
                CampaignCheckpoint.load(checkpoint))
            _run(world, 2020, checkpoint=checkpoint, resume=True,
                 progress=rec.on_progress)
        replayed = _replayed_status(flight / "journal.jsonl")
        assert (replayed["failures"], replayed["retries"],
                replayed["checkpoint_commits"], replayed["chunks_done"],
                replayed["chunks_resumed"]) == (1, 1, N_CHUNKS, N_CHUNKS, 2)
        assert _status_counts(flight, replayed) == replayed
