"""The job store: a content-addressed spool of durable service state.

Layout of one spool directory::

    spool/
      service-journal.jsonl     digest-chained audit trail (ServiceJournal)
      endpoint.json             the live daemon's bound address + pid
      jobs/<job_id>.json        one repro.job-record/v1 per job (ground truth)
      results/<digest-hex>.json repro.job-result/v1, keyed by *spec* digest
      checkpoints/<job_id>.json the runner's repro.checkpoint-log/v1
      heartbeats/<job_id>       runner liveness counter (atomic replace)

Every JSON file crosses the :mod:`repro.io` artifact boundary: schema
tag + embedded payload sha256, atomic durable writes, typed errors.
Two consequences the service leans on:

* **Crash consistency is per-file.**  A job record is rewritten
  atomically on every state transition, so recovery reads exactly one
  consistent state per job — there is no cross-file transaction to
  repair.  Results are written *before* the owning record flips to
  ``done``; the inverse order would let a kill invent a completed job
  with no evidence.
* **Results are content-addressed by spec digest**, not job id: any
  future submission of a bit-identical spec — any tenant, any daemon
  incarnation — resolves to the cached artifact with zero compute.

``OSError`` from the underlying filesystem (and the chaos tier's
injected ``ENOSPC`` at the ``spool-write:job`` point) surfaces as a
typed :class:`~repro.service.jobs.SpoolError` so admission fails with
a 507-style refusal instead of a stack trace.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

from ..io.artifact import ARTIFACTS, ArtifactSchema, register_artifact
from ..io.atomic import atomic_write_text
from ..io.validate import Int, Record, Str
from ..testing.chaos import fs_chaos, fs_fault, service_chaos
from ..traffic.checkpoint import (RESULT_SPEC, result_from_dict,
                                  result_to_dict)
from ..traffic.simulator import SimulationResult
from .jobs import JobRecord, SpoolError, _utc_now

__all__ = ["JOB_RESULT_SCHEMA", "JOB_RESULT_SCHEMA_NAME", "JobResult",
           "JobStore", "JOURNAL_FILENAME", "ENDPOINT_FILENAME"]

JOB_RESULT_SCHEMA_NAME = "repro.job-result"
JOB_RESULT_SCHEMA = f"{JOB_RESULT_SCHEMA_NAME}/v1"

JOURNAL_FILENAME = "service-journal.jsonl"
ENDPOINT_FILENAME = "endpoint.json"


class JobResult:
    """One completed campaign's evidence (``repro.job-result/v1``).

    Wraps the merged :class:`~repro.traffic.simulator.SimulationResult`
    (exact-float serialised, the checkpoint codec) with its provenance:
    the producing job, the spec digest it is addressed by, how many
    runner attempts it took and how many chunks the final attempt
    restored from the checkpoint instead of re-simulating.
    """

    def __init__(self, spec_digest: str, job_id: str,
                 result: SimulationResult, *, attempts: int = 1,
                 chunks_resumed: int = 0,
                 completed_utc: Optional[str] = None):
        self.spec_digest = spec_digest
        self.job_id = job_id
        self.result = result
        self.attempts = int(attempts)
        self.chunks_resumed = int(chunks_resumed)
        self.completed_utc = completed_utc or _utc_now()

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec_digest": self.spec_digest,
            "job_id": self.job_id,
            "attempts": self.attempts,
            "chunks_resumed": self.chunks_resumed,
            "completed_utc": self.completed_utc,
            "result": result_to_dict(self.result),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobResult):
            return NotImplemented
        return (self.spec_digest == other.spec_digest
                and self.job_id == other.job_id
                and self.attempts == other.attempts
                and self.chunks_resumed == other.chunks_resumed
                and self.result == other.result)


class JobStore:
    """Typed, atomic access to one spool directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        for sub in ("jobs", "results", "checkpoints", "heartbeats"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_FILENAME

    @property
    def endpoint_path(self) -> Path:
        return self.root / ENDPOINT_FILENAME

    def job_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    def result_path(self, spec_digest: str) -> Path:
        return self.root / "results" / (
            spec_digest.split(":", 1)[-1] + ".json")

    def checkpoint_path(self, job_id: str) -> Path:
        return self.root / "checkpoints" / f"{job_id}.json"

    def heartbeat_path(self, job_id: str) -> Path:
        return self.root / "heartbeats" / job_id

    def error_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.error"

    def log_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.log"

    @property
    def quarantine_dir(self) -> Path:
        """Where ``repro fsck`` parks artifacts it cannot safely repair."""
        return self.root / "quarantine"

    def iter_job_paths(self) -> List[Path]:
        return sorted((self.root / "jobs").glob("j-*.json"))

    def iter_result_paths(self) -> List[Path]:
        return sorted((self.root / "results").glob("*.json"))

    def iter_checkpoint_paths(self) -> List[Path]:
        return sorted((self.root / "checkpoints").glob("*.json"))

    # -- job records ------------------------------------------------------

    def save_job(self, record: JobRecord) -> JobRecord:
        """Atomically persist one job record (the durable transition)."""
        try:
            service_chaos("spool-write:job")
            fault = fs_chaos("store.save-job")
            if fault is not None:
                raise fs_fault(fault, "store.save-job")
            ARTIFACTS.save(self.job_path(record.job_id),
                           "repro.job-record", record)
        except OSError as exc:
            raise SpoolError(
                f"cannot persist job {record.job_id}: "
                f"{exc.strerror or exc}") from exc
        return record

    def load_job(self, job_id: str) -> JobRecord:
        record = ARTIFACTS.load(self.job_path(job_id), "repro.job-record")
        assert isinstance(record, JobRecord)
        return record

    def has_job(self, job_id: str) -> bool:
        return self.job_path(job_id).exists()

    def iter_jobs(self) -> Iterator[JobRecord]:
        """Every job record in the spool, ordered by ``submit_seq`` —
        recovery preserves the original admission (fair-share) order."""
        records: List[JobRecord] = []
        for path in sorted((self.root / "jobs").glob("j-*.json")):
            record = ARTIFACTS.load(path, "repro.job-record")
            assert isinstance(record, JobRecord)
            records.append(record)
        records.sort(key=lambda r: r.submit_seq)
        return iter(records)

    def max_submit_seq(self) -> int:
        return max((r.submit_seq for r in self.iter_jobs()), default=-1)

    # -- job errors (free-text diagnostics from dead runners) -------------

    def write_job_error(self, job_id: str, message: str) -> None:
        atomic_write_text(self.error_path(job_id), message + "\n")

    def read_job_error(self, job_id: str) -> Optional[str]:
        try:
            return self.error_path(job_id).read_text(
                encoding="utf-8").strip()
        except OSError:
            return None

    # -- results (content-addressed by spec digest) -----------------------

    def save_result(self, job_result: JobResult) -> Path:
        try:
            fault = fs_chaos("store.save-result")
            if fault is not None:
                raise fs_fault(fault, "store.save-result")
            path = ARTIFACTS.save(self.result_path(job_result.spec_digest),
                                  JOB_RESULT_SCHEMA_NAME, job_result)
        except OSError as exc:
            raise SpoolError(
                f"cannot persist result for {job_result.job_id}: "
                f"{exc.strerror or exc}") from exc
        service_chaos("result-commit")
        return path

    def has_result(self, spec_digest: str) -> bool:
        return self.result_path(spec_digest).exists()

    def load_result(self, spec_digest: str) -> JobResult:
        result = ARTIFACTS.load(self.result_path(spec_digest),
                                JOB_RESULT_SCHEMA_NAME)
        assert isinstance(result, JobResult)
        return result

    # -- runner heartbeats ------------------------------------------------

    def beat(self, job_id: str, counter: int) -> None:
        """Record runner liveness (atomic replace; losing one beat is
        harmless, a torn beat is impossible)."""
        atomic_write_text(self.heartbeat_path(job_id), str(counter))

    def read_beat(self, job_id: str) -> Optional[int]:
        try:
            return int(self.heartbeat_path(job_id).read_text())
        except (OSError, ValueError):
            return None

    def clear_runner_state(self, job_id: str) -> None:
        """Drop per-attempt scratch (heartbeat + stale error note).

        The checkpoint is deliberately kept — it is the resume evidence."""
        for path in (self.heartbeat_path(job_id), self.error_path(job_id)):
            try:
                os.unlink(path)
            except OSError:
                pass


# -- artifact schema registration ------------------------------------------

def _load_job_result(data: Mapping[str, object]) -> JobResult:
    return JobResult(
        spec_digest=str(data["spec_digest"]),
        job_id=str(data["job_id"]),
        result=result_from_dict(dict(data["result"])),  # type: ignore[call-overload]
        attempts=int(data["attempts"]),  # type: ignore[arg-type]
        chunks_resumed=int(data["chunks_resumed"]),  # type: ignore[arg-type]
        completed_utc=str(data["completed_utc"]),
    )


def _example_job_result() -> JobResult:
    """A small deterministic result for the fuzz tier."""
    from ..core.incident import IncidentRecord
    from ..core.taxonomy import ActorClass

    result = SimulationResult(
        policy_name="nominal", hours=4.0,
        context_hours={"urban": 3.0, "highway": 1.0},
        records=[
            IncidentRecord(counterpart=ActorClass.VRU, is_collision=False,
                           min_distance_m=0.9, approach_speed_kmh=17.5,
                           time_h=0.5, context="urban"),
        ],
        encounters_resolved=57, hard_braking_demands=2,
        hard_braking_threshold_ms2=4.0)
    return JobResult(
        spec_digest="sha256:" + "ef" * 32,
        job_id="j-" + "ef" * 8,
        result=result, attempts=2, chunks_resumed=1,
        completed_utc="2026-01-01T00:00:00+00:00")


_JOB_RESULT_SPEC = Record(required={
    "spec_digest": Str(),
    "job_id": Str(),
    "attempts": Int(),
    "chunks_resumed": Int(),
    "completed_utc": Str(),
    # The embedded campaign result pins the same structural contract as
    # checkpoint chunks — one codec, two artifacts.
    "result": RESULT_SPEC,
})

register_artifact(ArtifactSchema(
    name=JOB_RESULT_SCHEMA_NAME,
    version=1,
    spec=_JOB_RESULT_SPEC,
    load=_load_job_result,
    dump=JobResult.to_dict,
    label="job result",
    example=_example_job_result,
    volatile=("completed_utc",),
))
