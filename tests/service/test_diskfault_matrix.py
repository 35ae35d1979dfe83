"""The REPRO_FS_CHAOS acceptance matrix (DESIGN §15).

Every instrumented write point × every fault kind must fail *typed*
(never a raw traceback), leave no torn artifact behind, and be fully
recoverable: ``repro fsck --repair`` plus a plain retry completes the
interrupted operation bit-for-bit.  The in-process matrix covers the
classification; the daemon test at the end proves the end-to-end
claim with a real runner dying on a real injected fault.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ArtifactError
from repro.io.artifact import ARTIFACTS
from repro.io.atomic import iter_orphan_tmp
from repro.service import (CampaignService, JobResult, JobStore,
                           ServiceJournal, SpoolError, fsck_spool,
                           read_service_journal)
from repro.testing.chaos import (FS_CHAOS_DIR_ENV, FS_CHAOS_ENV,
                                 FS_FAULT_KINDS)
from repro.traffic import CampaignCheckpoint, CheckpointWriteError

from .test_daemon import (SPEC, Daemon, assert_completed_bit_for_bit,
                          wait_job_state)

pytestmark = pytest.mark.diskfault


def spec_payload(**overrides) -> dict:
    base = dict(policy="nominal", hours=8.0, seed=2020, chunk_hours=2.0)
    base.update(overrides)
    return base


def example_result() -> JobResult:
    return ARTIFACTS.get("repro.job-result").example()


@pytest.mark.parametrize("kind", FS_FAULT_KINDS)
class TestSaveJobPoint:
    def test_typed_failure_then_retry_heals(self, tmp_path, monkeypatch,
                                            kind):
        service = CampaignService(tmp_path / "spool")
        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@store.save-job")
        with pytest.raises(SpoolError) as excinfo:
            service.submit(spec_payload())
        assert excinfo.value.http_status == 507
        monkeypatch.delenv(FS_CHAOS_ENV)

        # No torn artifact is ever visible through the artifact globs.
        for path in service.store.iter_job_paths():
            service.store.load_job(path.stem)  # must parse + verify

        # The idempotent retry lands the job — including after the
        # short-fsync durability lie, where the record already exists.
        record, _, _ = service.submit(spec_payload())
        assert record.state == "queued"
        assert service.store.load_job(record.job_id).state == "queued"
        assert record.job_id in service.scheduler.queued_ids()

        # fsck agrees nothing is damaged once the orphan (torn case)
        # is swept.
        report = fsck_spool(service.store.root, repair=True)
        assert all(f.kind == "orphan" for f in report.findings)
        assert fsck_spool(service.store.root).clean


@pytest.mark.parametrize("kind", FS_FAULT_KINDS)
class TestSaveResultPoint:
    def test_typed_failure_then_retry_heals(self, tmp_path, monkeypatch,
                                            kind):
        store = JobStore(tmp_path / "spool")
        job_result = example_result()
        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@store.save-result")
        with pytest.raises(SpoolError, match="cannot persist result"):
            store.save_result(job_result)
        monkeypatch.delenv(FS_CHAOS_ENV)

        path = store.save_result(job_result)  # the retry
        loaded = store.load_result(job_result.spec_digest)
        # Bit-for-bit: the retried commit round-trips exactly.
        assert ARTIFACTS.dump_dict("repro.job-result", loaded) == \
            ARTIFACTS.dump_dict("repro.job-result", job_result)
        assert path.exists()
        assert fsck_spool(store.root, repair=True).counts().get(
            "digest-mismatch") is None


@pytest.mark.parametrize("kind", FS_FAULT_KINDS)
class TestCheckpointSavePoint:
    def test_typed_failure_then_retry_heals(self, tmp_path, monkeypatch,
                                            kind):
        path = tmp_path / "checkpoint.json"
        checkpoint = CampaignCheckpoint.new(path, {"seed": 2020})
        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@checkpoint-save")
        with pytest.raises(CheckpointWriteError):
            checkpoint.save()
        monkeypatch.delenv(FS_CHAOS_ENV)
        checkpoint.save()
        reloaded = CampaignCheckpoint.load(path)
        assert reloaded.campaign == {"seed": 2020}
        # Either no residue at all, or the torn write's orphan temp.
        residue = list(iter_orphan_tmp(tmp_path))
        assert len(residue) <= 1

    def test_failed_append_then_retry_heals(self, tmp_path, monkeypatch,
                                            kind):
        path = tmp_path / "checkpoint.json"
        result = example_result().result
        checkpoint = CampaignCheckpoint.new(path, {"seed": 2020})
        checkpoint.record(0, result)
        acknowledged = path.read_bytes()
        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@checkpoint-save")
        with pytest.raises(CheckpointWriteError):
            checkpoint.record(1, result)
        monkeypatch.delenv(FS_CHAOS_ENV)
        if kind == "enospc":
            assert path.read_bytes() == acknowledged  # not a byte landed
        # The retry cuts back to the last acknowledged byte first, so
        # the failed line (torn or whole) is replaced, never followed.
        checkpoint.save()
        assert CampaignCheckpoint.load(path).chunk_indices() == (0, 1)
        assert path.read_bytes().startswith(acknowledged)
        assert len(path.read_bytes().splitlines()) == 3


class TestCheckpointSaveDuringCampaign:
    """``repro fleet --checkpoint`` under a failing checkpoint write."""

    FLEET = ["fleet", "--hours", "4", "--chunk-hours", "1", "--seed", "9",
             "--workers", "1"]

    @pytest.fixture
    def uninterrupted(self, tmp_path):
        from repro.cli import main

        summary = tmp_path / "reference.json"
        assert main(self.FLEET + ["--json", str(summary)]) == 0
        return json.loads(summary.read_text())

    def _resume(self, tmp_path, capsys):
        from repro.cli import main

        summary = tmp_path / "resumed.json"
        capsys.readouterr()
        code = main(self.FLEET + ["--checkpoint",
                                  str(tmp_path / "ck.json"), "--resume",
                                  "--json", str(summary)])
        assert code == 0
        return json.loads(summary.read_text()), capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["torn", "enospc"])
    def test_failing_disk_exits_4_then_resume_is_bit_for_bit(
            self, tmp_path, monkeypatch, capsys, uninterrupted, kind):
        from repro.cli import main

        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@checkpoint-save")
        capsys.readouterr()
        assert main(self.FLEET + ["--checkpoint",
                                  str(tmp_path / "ck.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        monkeypatch.delenv(FS_CHAOS_ENV)
        resumed, _ = self._resume(tmp_path, capsys)
        assert resumed == uninterrupted

    def test_failed_append_is_retried_and_the_sink_keeps_its_chunk(
            self, tmp_path, monkeypatch, uninterrupted):
        """Hit 3 (the second chunk's append) fails: the campaign warns,
        the next commit re-appends the chunk, and the record sink still
        gets every chunk."""
        from repro.cli import main
        from repro.traffic import CampaignCheckpoint

        chaos_dir = tmp_path / "chaos"
        chaos_dir.mkdir()
        monkeypatch.setenv(FS_CHAOS_DIR_ENV, str(chaos_dir))
        monkeypatch.setenv(FS_CHAOS_ENV, "eio@checkpoint-save#3")
        summary = tmp_path / "summary.json"
        with pytest.warns(RuntimeWarning, match="cannot flush checkpoint"):
            assert main(self.FLEET + [
                "--checkpoint", str(tmp_path / "ck.json"),
                "--record-sink", str(tmp_path / "sink"),
                "--json", str(summary)]) == 0
        spilled = json.loads(summary.read_text()).pop("record_sink")
        assert spilled["parts"] == 4
        assert CampaignCheckpoint.load(tmp_path / "ck.json").chunk_indices() \
            == (0, 1, 2, 3)

    def test_torn_last_append_is_cut_on_resume(self, tmp_path, monkeypatch,
                                               capsys, uninterrupted):
        """Hit 1 writes the identity line, hits 2–5 the four chunks: the
        last append tears, as if the process died in the middle of it."""
        from repro.cli import main

        chaos_dir = tmp_path / "chaos"
        chaos_dir.mkdir()
        monkeypatch.setenv(FS_CHAOS_DIR_ENV, str(chaos_dir))
        monkeypatch.setenv(FS_CHAOS_ENV, "torn@checkpoint-save#5")
        with pytest.warns(RuntimeWarning, match="cannot flush checkpoint"):
            assert main(self.FLEET + ["--checkpoint",
                                      str(tmp_path / "ck.json")]) == 0
        monkeypatch.delenv(FS_CHAOS_ENV)
        with pytest.raises(ArtifactError):
            CampaignCheckpoint.load(tmp_path / "ck.json")
        resumed, err = self._resume(tmp_path, capsys)
        assert "cut a torn tail" in err and "3 banked chunks" in err
        assert resumed == uninterrupted


@pytest.mark.parametrize("kind", FS_FAULT_KINDS)
class TestServiceJournalPoint:
    def test_audit_starvation_never_kills_the_service(
            self, tmp_path, monkeypatch, kind):
        service = CampaignService(tmp_path / "spool")
        service._journal = ServiceJournal.open(
            service.store.journal_path)
        service._emit("service.started", epoch=service.epoch)
        monkeypatch.setenv(
            FS_CHAOS_ENV, f"{kind}@journal-append:repro.service-journal")
        # The journal append fails under the hood; the submission — the
        # record leg, which drives recovery — must still succeed.
        record, created, _ = service.submit(spec_payload())
        monkeypatch.delenv(FS_CHAOS_ENV)
        assert created and record.state == "queued"
        assert service.store.load_job(record.job_id).state == "queued"
        service._journal.close()

        # fsck then repairs whatever the fault left (a torn tail at
        # worst) and the journal chain reads strictly again.
        fsck_spool(service.store.root, repair=True)
        records, _ = read_service_journal(service.store.journal_path)
        assert records[0].kind == "service.started"


class TestEndToEnd:
    def test_runner_dies_on_torn_result_commit_then_completes(
            self, tmp_path, monkeypatch):
        """A real runner hits a torn result commit, dies typed, and the
        supervisor's retry completes the job bit-for-bit."""
        chaos_dir = tmp_path / "chaos"
        chaos_dir.mkdir()
        monkeypatch.setenv(FS_CHAOS_ENV, "torn@store.save-result#1")
        monkeypatch.setenv(FS_CHAOS_DIR_ENV, str(chaos_dir))
        spool = tmp_path / "spool"
        daemon = Daemon(spool)
        monkeypatch.delenv(FS_CHAOS_ENV)
        monkeypatch.delenv(FS_CHAOS_DIR_ENV)
        try:
            reply = daemon.client.submit(dict(SPEC, seed=2020))
            job_id = reply["job"]["job_id"]
            wait_job_state(spool, job_id, {"done"})
            assert_completed_bit_for_bit(spool, job_id, 2020)
            # The fault really fired: the first runner died on the
            # torn commit, so completion took a second attempt.
            assert JobStore(spool).load_job(job_id).attempts >= 2
        finally:
            daemon.terminate_and_wait()
        # After the dust settles the spool audits clean (the torn
        # write's orphan temp is the only acceptable residue).
        report = fsck_spool(spool, repair=True)
        assert all(f.kind == "orphan" for f in report.findings)
        assert fsck_spool(spool).clean
