"""``repro fsck``: the spool auditor's taxonomy and repair safety.

Every test fabricates a precise damage state, asserts the audit
classifies it into exactly the right :data:`FINDING_KINDS` entry, and
— where a repair is provably safe — that ``repair=True`` heals it such
that a second audit is clean and the daemon-facing invariants hold
(no acknowledged work lost, nothing unverifiable rewritten in place).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.io.artifact import ARTIFACTS
from repro.service import (CampaignSpec, Finding, JobRecord, JobResult,
                           JobStore, Lease, ServiceError, ServiceJournal,
                           daemon_pid, fsck_spool, read_service_journal)
from repro.service.fsck import FINDING_KINDS, REPAIR_ACTIONS


def spec(**overrides) -> CampaignSpec:
    base = dict(policy="nominal", hours=8.0, seed=2020, chunk_hours=2.0)
    base.update(overrides)
    return CampaignSpec(**base)


def example_result() -> JobResult:
    return ARTIFACTS.get("repro.job-result").example()


def result_for(record: JobRecord) -> JobResult:
    return JobResult(spec_digest=record.spec_digest,
                     job_id=record.job_id,
                     result=example_result().result)


def queued(store: JobStore, **overrides) -> JobRecord:
    record = JobRecord.new(spec(**overrides), tenant="acme",
                           priority="normal", submit_seq=0)
    return store.save_job(record)


def journal_with_entries(store: JobStore, n: int = 4) -> None:
    with ServiceJournal.open(store.journal_path) as journal:
        journal.emit("service.started", {"epoch": "e1"})
        for index in range(n - 1):
            journal.emit("job.submitted", {"job_id": f"j-{index:016x}"})


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "spool")


class TestCleanSpool:
    def test_empty_spool_is_clean(self, store):
        report = fsck_spool(store.root)
        assert report.clean and not report.findings

    def test_healthy_spool_is_clean(self, store):
        record = queued(store)
        done = record.advanced("done")
        store.save_job(done)
        store.save_result(result_for(done))
        journal_with_entries(store)
        report = fsck_spool(store.root)
        assert report.clean
        assert report.jobs_checked == 1
        assert report.results_checked == 1
        assert report.journal_entries == 4

    def test_scan_without_repair_mutates_nothing(self, store):
        record = queued(store)
        path = store.job_path(record.job_id)
        path.write_text(path.read_text().replace("queued", "melted"))
        before = sorted(p.name for p in store.root.rglob("*"))
        report = fsck_spool(store.root, repair=False)
        assert not report.clean
        assert all(f.repair is None for f in report.findings)
        assert sorted(p.name for p in store.root.rglob("*")) == before


class TestOrphans:
    def test_orphan_tmp_swept(self, store):
        orphan = store.root / "jobs" / ".repro-tmp.j-x.json.abc.tmp"
        orphan.write_text("torn half-payload")
        report = fsck_spool(store.root, repair=True)
        kinds = [f.kind for f in report.findings]
        assert kinds == ["orphan"]
        assert report.findings[0].repair == "swept"
        assert not orphan.exists()
        assert fsck_spool(store.root).clean

    def test_scratch_for_unknown_job_swept(self, store):
        record = queued(store)  # known job keeps its scratch
        store.beat(record.job_id, 1)
        store.beat("j-" + "0" * 16, 7)
        store.write_job_error("j-" + "1" * 16, "stale diagnostic")
        (store.root / "jobs" / ("j-" + "2" * 16 + ".log")).write_text("x")
        report = fsck_spool(store.root, repair=True)
        assert sorted(f.kind for f in report.findings) == ["orphan"] * 3
        assert store.read_beat(record.job_id) == 1
        assert store.read_beat("j-" + "0" * 16) is None
        assert fsck_spool(store.root).clean

    def test_orphan_checkpoint_quarantined_not_swept(self, store):
        # A checkpoint is resume evidence: park it, don't delete it.
        source = store.checkpoint_path("j-" + "a" * 16)
        source.write_text("whatever the runner left")
        report = fsck_spool(store.root, repair=True)
        # Unparseable -> digest-mismatch; either way it must be moved
        # into quarantine, never unlinked.
        assert [f.repair for f in report.findings] == ["quarantined"]
        assert not source.exists()
        assert (store.quarantine_dir
                / f"checkpoints-{source.name}").exists()

    def test_stale_endpoint_swept(self, store):
        store.endpoint_path.write_text(json.dumps(
            {"url": "http://127.0.0.1:1", "pid": 2 ** 22 + 11}))
        assert daemon_pid(store) is None
        report = fsck_spool(store.root, repair=True)
        assert [f.kind for f in report.findings] == ["orphan"]
        assert not store.endpoint_path.exists()


class TestJournalDamage:
    def test_torn_tail_truncated(self, store):
        journal_with_entries(store, n=5)
        raw = store.journal_path.read_bytes()
        store.journal_path.write_bytes(raw[:-20])
        report = fsck_spool(store.root, repair=True)
        torn = [f for f in report.findings if f.kind == "torn-tail"]
        assert len(torn) == 1 and torn[0].repair == "truncated"
        records, _ = read_service_journal(store.journal_path)
        # Every fully-acknowledged entry survives, then the repair
        # summary extends the recovered chain.
        assert [r.kind for r in records[:-1]] == \
            ["service.started"] + ["job.submitted"] * 3
        assert records[-1].kind == "service.fsck"
        assert fsck_spool(store.root).clean

    def test_interior_damage_quarantined(self, store):
        journal_with_entries(store, n=5)
        lines = store.journal_path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"sha256", b"sha666")
        store.journal_path.write_bytes(b"\n".join(lines))
        report = fsck_spool(store.root, repair=True)
        assert [f.kind for f in report.findings] == ["digest-mismatch"]
        assert report.findings[0].repair == "quarantined"
        assert not store.journal_path.exists()
        assert (store.quarantine_dir / "spool-service-journal.jsonl"
                ).exists()

    def test_repair_summary_lands_in_healthy_journal(self, store):
        journal_with_entries(store, n=3)
        raw = store.journal_path.read_bytes()
        store.journal_path.write_bytes(raw[:-15])
        fsck_spool(store.root, repair=True)
        records, _ = read_service_journal(store.journal_path)
        assert records[-1].kind == "service.fsck"
        assert records[-1].data["counts"] == {"torn-tail": 1}


class TestCheckpointDamage:
    """Spool checkpoints are audited with the checkpoint's own reader."""

    def checkpoint_for(self, store: JobStore, chunks: int = 3):
        from repro.traffic import CampaignCheckpoint

        record = queued(store)
        path = store.checkpoint_path(record.job_id)
        checkpoint = CampaignCheckpoint.new(path, {"seed": 2020})
        for index in range(chunks):
            checkpoint.record(index, example_result().result)
        return path

    def test_healthy_checkpoint_is_clean(self, store):
        self.checkpoint_for(store)
        report = fsck_spool(store.root)
        assert report.clean and report.checkpoints_checked == 1

    def test_torn_tail_truncated(self, store):
        from repro.traffic import CampaignCheckpoint

        path = self.checkpoint_for(store)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines)[:-len(lines[-1]) // 2])
        audit = fsck_spool(store.root)
        assert [(f.kind, f.repair) for f in audit.findings] == \
            [("torn-tail", None)]
        report = fsck_spool(store.root, repair=True)
        assert [(f.kind, f.repair) for f in report.findings] == \
            [("torn-tail", "truncated")]
        # The cut keeps every acknowledged entry and nothing else.
        assert path.read_bytes() == b"".join(lines[:-1])
        assert CampaignCheckpoint.load(path).chunk_indices() == (0, 1)
        assert fsck_spool(store.root).clean

    def test_interior_damage_quarantined(self, store):
        path = self.checkpoint_for(store)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"index":0', b'"index":7', 1)
        path.write_bytes(b"".join(lines))
        report = fsck_spool(store.root, repair=True)
        assert [(f.kind, f.repair) for f in report.findings] == \
            [("digest-mismatch", "quarantined")]
        assert "not a torn tail" in report.findings[0].detail
        assert not path.exists()
        assert (store.quarantine_dir / f"checkpoints-{path.name}").exists()


class TestArtifactDamage:
    def test_corrupt_job_record_quarantined(self, store):
        record = queued(store)
        path = store.job_path(record.job_id)
        path.write_text(path.read_text().replace("queued", "melted"))
        report = fsck_spool(store.root, repair=True)
        assert [f.kind for f in report.findings] == ["digest-mismatch"]
        assert not path.exists()
        assert (store.quarantine_dir / f"jobs-{path.name}").exists()
        assert fsck_spool(store.root).clean

    def test_corrupt_result_quarantined(self, store):
        job_result = example_result()
        path = store.save_result(job_result)
        path.write_bytes(path.read_bytes()[:-40])  # torn result file
        report = fsck_spool(store.root, repair=True)
        assert [f.kind for f in report.findings] == ["digest-mismatch"]
        assert not path.exists()
        assert (store.quarantine_dir / f"results-{path.name}").exists()

    def test_misfiled_result_quarantined(self, store):
        job_result = example_result()
        path = store.save_result(job_result)
        misfiled = path.with_name("ab" * 32 + ".json")
        os.rename(path, misfiled)
        report = fsck_spool(store.root, repair=True)
        assert [f.kind for f in report.findings] == ["digest-mismatch"]
        assert not misfiled.exists()


class TestDanglingLeases:
    def lease(self) -> Lease:
        return Lease(lease_id=1, epoch="dead-epoch", pid=0, ttl_s=30.0)

    def test_completed_from_cached_result(self, store):
        record = queued(store).advanced("running", lease=self.lease(),
                                        attempts=1)
        store.save_job(record)
        store.save_result(result_for(record))
        report = fsck_spool(store.root, repair=True)
        finding = report.findings[0]
        assert finding.kind == "dangling-lease"
        assert finding.repair == "completed"
        healed = store.load_job(record.job_id)
        assert healed.state == "done" and healed.lease is None
        assert fsck_spool(store.root).clean

    def test_requeued_without_result(self, store):
        record = queued(store).advanced("leased", lease=self.lease(),
                                        attempts=1)
        store.save_job(record)
        store.beat(record.job_id, 3)
        report = fsck_spool(store.root, repair=True)
        finding = report.findings[0]
        assert finding.kind == "dangling-lease"
        assert finding.repair == "requeued"
        healed = store.load_job(record.job_id)
        assert healed.state == "queued" and healed.lease is None
        assert store.read_beat(record.job_id) is None
        assert fsck_spool(store.root).clean


class TestUnreachableResults:
    def test_done_without_result_requeued(self, store):
        record = queued(store).advanced("done")
        store.save_job(record)
        report = fsck_spool(store.root, repair=True)
        finding = report.findings[0]
        assert finding.kind == "unreachable-result"
        assert finding.repair == "requeued"
        assert store.load_job(record.job_id).state == "queued"
        assert fsck_spool(store.root).clean


class TestGuards:
    def test_repair_refused_while_daemon_alive(self, store):
        store.endpoint_path.write_text(json.dumps(
            {"url": "http://127.0.0.1:1", "pid": os.getpid()}))
        assert daemon_pid(store) == os.getpid()
        with pytest.raises(ServiceError, match="refusing to repair"):
            fsck_spool(store.root, repair=True)
        # Read-only audit is still allowed.
        assert fsck_spool(store.root, repair=False).clean

    def test_finding_taxonomy_is_closed(self):
        with pytest.raises(ValueError, match="unknown finding kind"):
            Finding(kind="gremlin", path="x", detail="y")
        with pytest.raises(ValueError, match="unknown repair action"):
            Finding(kind="orphan", path="x", detail="y",
                    repair="vaporized")
        assert len(FINDING_KINDS) == 5 and len(REPAIR_ACTIONS) == 5

    def test_report_serializes(self, store):
        queued(store)
        document = fsck_spool(store.root).to_dict()
        assert document["clean"] is True
        assert document["jobs_checked"] == 1
        json.dumps(document)  # wire-safe
