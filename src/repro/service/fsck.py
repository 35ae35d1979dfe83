"""``repro fsck`` — the offline spool auditor and self-healer.

The spool is a forest of independently-verifiable artifacts (every
JSON file carries its schema tag and payload sha256; the journal is a
digest chain), so an audit needs no daemon state: walk everything,
verify everything, and classify each deviation into a closed taxonomy:

``orphan``
    A file no live record reaches: a leaked ``.repro-tmp.*.tmp`` from a
    torn atomic write, runner scratch (heartbeat / error note / log)
    for a job id with no record, a checkpoint for an unknown job, or a
    stale ``endpoint.json`` whose pid is dead.
``torn-tail``
    The last append to the journal or to a checkpoint log was cut
    mid-line by a crash or a full disk — a valid chain prefix followed
    *only* by fragments that never parse as complete signed envelopes.
``digest-mismatch``
    An artifact (job record, result, checkpoint, or an *interior*
    journal or checkpoint-log entry) that fails verification: wrong
    digest, wrong schema, unparseable, or filed under a name that
    contradicts its content.
``dangling-lease``
    A job record frozen in ``leased``/``running`` with no daemon alive
    to supervise it (the lease's epoch died with its daemon).
``unreachable-result``
    A record that claims ``done`` but whose content-addressed result
    artifact is missing — the evidence leg of the promise is gone.

Repair (``--repair``) applies only *provably safe* actions, one per
kind, and quarantines everything else rather than guess:

* orphans are **swept** (scratch) or **quarantined** (checkpoints —
  they are resume evidence for a future resubmission of the same spec);
* a torn tail is **truncated** at the last valid byte — safe because a
  writer never appends past a failed append (the journal writer is
  poisoned, the checkpoint cuts back first), so at most one damaged
  fragment ever follows the valid prefix, and it was never
  acknowledged;
* digest mismatches are **quarantined** into ``spool/quarantine/`` —
  rewriting unverifiable bytes would manufacture evidence;
* a dangling lease is **completed** from the cached result if the spec
  digest already has one (determinism makes the result identical to
  what the dead runner would have produced) and **requeued** otherwise;
* an unreachable result is **requeued** — re-running the spec is
  bit-for-bit identical by the determinism contract, so recomputing
  the lost artifact is correctness-preserving.

Repair refuses to run while a daemon owns the spool (a live pid in
``endpoint.json``): two writers would race.  After a successful repair
the audit summary is appended to the (now healthy) service journal as
a ``service.fsck`` entry, so the chain itself records the surgery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from ..io import ArtifactError, parse_artifact_text
from ..io.artifact import ARTIFACTS
from ..io.atomic import iter_orphan_tmp
from ..traffic.checkpoint import audit_checkpoint, repair_checkpoint_tail
from .jobs import JOB_RECORD_SCHEMA_NAME, JobRecord, ServiceError
from .journal import ServiceJournal, scan_service_journal
from .store import JOB_RESULT_SCHEMA_NAME, JobStore

__all__ = ["FINDING_KINDS", "REPAIR_ACTIONS", "Finding", "FsckReport",
           "daemon_pid", "fsck_spool"]

#: The closed damage taxonomy — every finding is exactly one of these.
FINDING_KINDS = ("orphan", "torn-tail", "digest-mismatch",
                 "dangling-lease", "unreachable-result")

#: The closed repair vocabulary — every applied repair is one of these.
REPAIR_ACTIONS = ("swept", "truncated", "quarantined", "requeued",
                  "completed")


@dataclass(frozen=True)
class Finding:
    """One audit deviation: what kind, where, why, and (when the audit
    ran with ``repair=True``) which safe action resolved it."""

    kind: str
    path: str
    detail: str
    repair: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FINDING_KINDS:
            raise ValueError(f"unknown finding kind {self.kind!r}; "
                             f"expected one of {FINDING_KINDS}")
        if self.repair is not None and self.repair not in REPAIR_ACTIONS:
            raise ValueError(f"unknown repair action {self.repair!r}; "
                             f"expected one of {REPAIR_ACTIONS}")

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "path": self.path,
                "detail": self.detail, "repair": self.repair}


@dataclass
class FsckReport:
    """The complete audit outcome for one spool."""

    root: str
    repaired: bool
    findings: List[Finding] = field(default_factory=list)
    jobs_checked: int = 0
    results_checked: int = 0
    checkpoints_checked: int = 0
    journal_entries: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        by_kind: Dict[str, int] = {}
        for finding in self.findings:
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
        return by_kind

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "repaired": self.repaired,
            "clean": self.clean,
            "counts": self.counts(),
            "jobs_checked": self.jobs_checked,
            "results_checked": self.results_checked,
            "checkpoints_checked": self.checkpoints_checked,
            "journal_entries": self.journal_entries,
            "findings": [f.to_dict() for f in self.findings],
        }


def daemon_pid(store: JobStore) -> Optional[int]:
    """The pid of a daemon that is *actually alive* on this spool, or
    ``None`` (no endpoint file, unreadable endpoint, or dead pid)."""
    try:
        text = store.endpoint_path.read_text(encoding="utf-8")
        document = parse_artifact_text(text, source=store.endpoint_path)
        pid = int(document["pid"])  # type: ignore[arg-type, call-overload]
    except (OSError, ArtifactError, KeyError, TypeError, ValueError):
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return None
    except PermissionError:
        return pid  # alive, just not ours to signal
    except OSError:
        return None
    return pid


class _Audit:
    """One pass over the spool; accumulates findings, applies repairs."""

    def __init__(self, store: JobStore, repair: bool):
        self.store = store
        self.repair = repair
        self.report = FsckReport(root=str(store.root), repaired=repair)
        self.records: Dict[str, JobRecord] = {}

    # -- repair primitives (each provably safe, see module doc) ---------

    def _found(self, kind: str, path: Path, detail: str,
               repair: Optional[str] = None) -> None:
        self.report.findings.append(Finding(
            kind=kind, path=str(path), detail=detail,
            repair=repair if self.repair else None))

    def _sweep(self, kind: str, path: Path, detail: str) -> None:
        if self.repair:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._found(kind, path, detail, repair="swept")

    def _quarantine(self, kind: str, path: Path, detail: str) -> None:
        if self.repair:
            quarantine = self.store.quarantine_dir
            quarantine.mkdir(parents=True, exist_ok=True)
            # Prefix with the source subdirectory so results/ and jobs/
            # entries with colliding basenames cannot clobber each other.
            target = quarantine / f"{path.parent.name}-{path.name}"
            os.replace(path, target)
        self._found(kind, path, detail, repair="quarantined")

    # -- the walk -------------------------------------------------------

    def run(self) -> FsckReport:
        self._check_orphan_tmp()
        self._check_journal()
        self._check_jobs()
        self._check_results()
        self._check_checkpoints()
        self._check_job_states()
        self._check_scratch()
        self._check_endpoint()
        return self.report

    def _check_orphan_tmp(self) -> None:
        for path in iter_orphan_tmp(self.store.root):
            self._sweep("orphan", path,
                        "leaked temp file from a torn atomic write")

    def _check_journal(self) -> None:
        path = self.store.journal_path
        if not path.exists():
            return
        scan = scan_service_journal(path)
        self.report.journal_entries = len(scan.records)
        if scan.clean:
            return
        if scan.torn_tail:
            detail = (f"torn tail at byte {scan.valid_bytes} "
                      f"(line {scan.damage_lineno}): {scan.damage}")
            if self.repair:
                from .journal import repair_service_journal_tail
                repaired = repair_service_journal_tail(path)
                self.report.journal_entries = len(repaired.records)
            self._found("torn-tail", path, detail, repair="truncated")
        else:
            self._quarantine(
                "digest-mismatch", path,
                f"interior chain damage at line {scan.damage_lineno} "
                f"({scan.damage}); committed entries follow the break, "
                f"so a suffix cut would lose acknowledged history")

    def _check_jobs(self) -> None:
        for path in self.store.iter_job_paths():
            self.report.jobs_checked += 1
            try:
                record = ARTIFACTS.load(path, JOB_RECORD_SCHEMA_NAME)
            except (ArtifactError, ValueError) as exc:
                self._quarantine("digest-mismatch", path,
                                 f"job record fails verification: {exc}")
                continue
            assert isinstance(record, JobRecord)
            if path.stem != record.job_id:
                self._quarantine(
                    "digest-mismatch", path,
                    f"filed as {path.stem!r} but the record says "
                    f"{record.job_id!r}")
                continue
            self.records[record.job_id] = record

    def _check_results(self) -> None:
        for path in self.store.iter_result_paths():
            self.report.results_checked += 1
            try:
                result = ARTIFACTS.load(path, JOB_RESULT_SCHEMA_NAME)
            except (ArtifactError, ValueError) as exc:
                self._quarantine("digest-mismatch", path,
                                 f"result fails verification: {exc}")
                continue
            claimed = result.spec_digest.split(":", 1)[-1]
            if path.stem != claimed:
                self._quarantine(
                    "digest-mismatch", path,
                    f"content-addressed as {path.stem!r} but the result "
                    f"says spec digest {claimed!r}")

    def _check_checkpoints(self) -> None:
        for path in self.store.iter_checkpoint_paths():
            self.report.checkpoints_checked += 1
            try:
                torn = audit_checkpoint(path)
            except (ArtifactError, ValueError) as exc:
                self._quarantine("digest-mismatch", path,
                                 f"checkpoint fails verification: {exc}")
                continue
            if torn is not None:
                if self.repair:
                    repair_checkpoint_tail(path)
                self._found("torn-tail", path,
                            f"torn tail at byte {torn.valid_bytes} (line "
                            f"{torn.damage_lineno}): {torn.damage}",
                            repair="truncated")
            if path.stem not in self.records:
                self._quarantine(
                    "orphan", path,
                    f"checkpoint for unknown job {path.stem!r} (kept in "
                    f"quarantine: it is resume evidence for a future "
                    f"resubmission of the same spec)")

    def _check_job_states(self) -> None:
        for job_id, record in sorted(self.records.items()):
            path = self.store.job_path(job_id)
            if record.state in ("leased", "running"):
                if self.store.has_result(record.spec_digest):
                    if self.repair:
                        result = self.store.load_result(record.spec_digest)
                        self.store.save_job(record.advanced(
                            "done", lease=None, error=None,
                            chunks_resumed=result.chunks_resumed))
                    self._found(
                        "dangling-lease", path,
                        f"{record.state} under a dead daemon but the "
                        f"result exists; completing from cache",
                        repair="completed")
                else:
                    if self.repair:
                        self.store.save_job(record.advanced(
                            "queued", lease=None))
                        self.store.clear_runner_state(job_id)
                    self._found(
                        "dangling-lease", path,
                        f"{record.state} under a dead daemon with no "
                        f"cached result; requeueing",
                        repair="requeued")
            elif record.state == "done" and not self.store.has_result(
                    record.spec_digest):
                if self.repair:
                    self.store.save_job(record.advanced(
                        "queued", lease=None))
                self._found(
                    "unreachable-result", path,
                    f"done but result {record.spec_digest} is missing; "
                    f"requeueing (determinism makes the re-run "
                    f"bit-for-bit identical)",
                    repair="requeued")

    def _check_scratch(self) -> None:
        """Runner scratch (heartbeats, error notes, logs) for job ids
        that no verified record names is sweepable noise."""
        known: Set[str] = set(self.records)
        for path in sorted((self.store.root / "heartbeats").glob("*")):
            if path.name not in known:
                self._sweep("orphan", path,
                            f"heartbeat for unknown job {path.name!r}")
        for suffix, label in ((".error", "error note"), (".log", "log")):
            for path in sorted((self.store.root / "jobs").glob(
                    "j-*" + suffix)):
                job_id = path.name[:-len(suffix)]
                if job_id not in known:
                    self._sweep("orphan", path,
                                f"{label} for unknown job {job_id!r}")

    def _check_endpoint(self) -> None:
        path = self.store.endpoint_path
        if path.exists() and daemon_pid(self.store) is None:
            self._sweep("orphan", path,
                        "endpoint file for a dead daemon")


def fsck_spool(root: Union[str, Path], *, repair: bool = False,
               ) -> FsckReport:
    """Audit one spool directory; with ``repair=True`` also heal it.

    Returns the :class:`FsckReport`.  Raises :class:`ServiceError` if
    ``repair`` is requested while a daemon is alive on the spool.
    """
    store = JobStore(root)
    if repair:
        pid = daemon_pid(store)
        if pid is not None:
            raise ServiceError(
                f"refusing to repair {store.root}: daemon pid {pid} is "
                f"alive on this spool (stop it first)")
    report = _Audit(store, repair).run()
    if repair and report.findings:
        _journal_repair_summary(store, report)
    return report


def _journal_repair_summary(store: JobStore, report: FsckReport) -> None:
    """Record the surgery in the (now healthy) journal — best-effort:
    a spool with no journal yet, or one quarantined this very pass,
    simply starts its next chain with the daemon."""
    if not store.journal_path.exists():
        return
    try:
        journal = ServiceJournal.open(store.journal_path, resume=True)
        try:
            journal.emit("service.fsck", {
                "counts": report.counts(),
                "repairs": sorted({f.repair for f in report.findings
                                   if f.repair is not None}),
                "jobs_checked": report.jobs_checked,
                "results_checked": report.results_checked,
            })
        finally:
            journal.close()
    except (OSError, ArtifactError, ValueError):
        pass
