"""Campaign checkpoints: an append-only log + resume for fleet campaigns.

The QRN's evidence runs are *long* — exactly the campaigns most likely
to be killed by a deploy, an OOM or a Ctrl-C.  A
:class:`CampaignCheckpoint` is the schema-tagged sibling of
:class:`~repro.obs.manifest.RunManifest` that makes that survivable: the
fleet runner persists every *committed* (validated) chunk result — plus
its telemetry snapshot, when telemetry is on — and a resumed campaign
re-executes only the missing chunks.

Resume is bit-for-bit: the chunk plan and the per-chunk
``SeedSequence.spawn`` children depend only on ``(seed, hours,
chunk_hours)``, restored chunks skip execution but keep their slot in
the chunk-index-ordered merge, and JSON round-trips Python floats
exactly (shortest-repr), so::

    run_fleet(seed, hours)                            # uninterrupted
    == merge(restored chunks ++ re-run missing chunks)  # kill + resume

for any worker count on either side.  ``tests/traffic/test_checkpoint.py``
enforces this as a kill-and-resume property.

Format.  The file is a digest-chained log (``repro.checkpoint-log/v1``)
written by the chain machinery of :mod:`repro.obs.events`: one signed
JSON line per entry, each naming the previous entry's payload digest.
The first line is the ``campaign.identity`` block (seed, hours, chunk
plan, engine, policy, mix); every committed chunk appends one
``chunk.banked`` line ``{index, result, telemetry}``, checked against
:data:`RESULT_SPEC` before it is written and fsync'd before
:meth:`CampaignCheckpoint.record` returns.  A commit therefore costs
one line, not a rewrite of every banked chunk.  The first save writes
the log to a temp file and renames it into place, so the path never
holds a log without its identity block.

Damage.  :meth:`CampaignCheckpoint.load` is strict: a torn final line,
a reordered, spliced or dropped entry, a duplicate chunk index and an
edited value (digest mismatch) all raise a typed
:class:`~repro.errors.ArtifactError`.  A kill in the middle of an
append leaves a *provably torn tail* — nothing past the last verified
entry parses as a signed entry (:func:`~repro.obs.events.scan_journal`)
— and :meth:`CampaignCheckpoint.resume` cuts exactly that before it
loads, so a kill loses at most the chunk being appended.  Interior
damage is never cut, and neither is a file that is no checkpoint log
at all: it fails typed and stays as it was.  Resuming against a
checkpoint whose identity differs raises :class:`CheckpointMismatchError`
instead of silently merging foreign chunks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import ClassVar, Dict, Mapping, Optional, Sequence, Set, Tuple

from ..core.incident import IncidentRecord
from ..core.taxonomy import ActorClass
from ..errors import (ArtifactError, ArtifactValidationError,
                      CorruptArtifactError)
from ..io.artifact import ArtifactSchema, register_artifact
from ..io.atomic import ORPHAN_TMP_PREFIX, ORPHAN_TMP_SUFFIX
from ..io.validate import (Bool, Int, Json, ListOf, MapOf, NullOr, Number,
                           Record, Str, TaggedUnion)
from ..obs.events import (EventJournal, EventRecord, JournalScan,
                          journal_event, read_chained_journal,
                          repair_journal_tail, scan_journal)
from ..obs.session import TelemetrySnapshot
from .simulator import SimulationResult

__all__ = ["CHECKPOINT_LOG_SCHEMA", "CHECKPOINT_LOG_SCHEMA_NAME",
           "RESULT_SPEC", "CampaignCheckpoint", "CheckpointLog",
           "CheckpointLogEntry", "CheckpointMismatchError",
           "CheckpointWriteError", "repair_checkpoint_tail",
           "result_from_dict", "result_to_dict"]

#: The append-only log every checkpoint is written as.
CHECKPOINT_LOG_SCHEMA_NAME = "repro.checkpoint-log"
CHECKPOINT_LOG_SCHEMA = f"{CHECKPOINT_LOG_SCHEMA_NAME}/v1"


class CheckpointMismatchError(ArtifactValidationError):
    """The checkpoint on disk belongs to a different campaign."""


class CheckpointWriteError(ArtifactError):
    """A checkpoint flush failed at the filesystem (disk full, I/O
    error), typed rather than a raw ``OSError``.  When a campaign opens
    its checkpoint the failure stops it (CLI exit 4).  A failed append
    mid-campaign is reported by the fleet runner as a warning, and the
    next commit retries it after cutting back to the last acknowledged
    byte; a chunk still unlogged when the campaign finishes gets one
    more append, and if that fails too the campaign raises this error
    (CLI exit 4) naming the unlogged chunks.  Every acknowledged chunk
    stays in the log and a failed append leaves at most a torn tail,
    which ``--resume`` cuts, so a resume re-runs only the unlogged
    chunks."""


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """Plain-JSON form of one chunk's :class:`SimulationResult`.

    Floats survive exactly: ``json`` serialises Python floats via their
    shortest round-trip repr, so ``result_from_dict(result_to_dict(r))
    == r`` bit-for-bit (dataclass equality over every field).
    """
    return {
        "policy_name": result.policy_name,
        "hours": result.hours,
        "context_hours": dict(result.context_hours),
        "encounters_resolved": result.encounters_resolved,
        "hard_braking_demands": result.hard_braking_demands,
        "hard_braking_threshold_ms2": result.hard_braking_threshold_ms2,
        "records": [
            {
                "counterpart": record.counterpart.name,
                "is_collision": record.is_collision,
                "delta_v_kmh": record.delta_v_kmh,
                "min_distance_m": record.min_distance_m,
                "approach_speed_kmh": record.approach_speed_kmh,
                "time_h": record.time_h,
                "context": record.context,
                "induced": record.induced,
            }
            for record in result.records
        ],
    }


def result_from_dict(data: Mapping[str, object]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    records = [
        IncidentRecord(
            counterpart=ActorClass[str(entry["counterpart"])],
            is_collision=bool(entry["is_collision"]),
            delta_v_kmh=float(entry["delta_v_kmh"]),  # type: ignore[arg-type]
            min_distance_m=float(entry["min_distance_m"]),  # type: ignore[arg-type]
            approach_speed_kmh=float(entry["approach_speed_kmh"]),  # type: ignore[arg-type]
            time_h=float(entry["time_h"]),  # type: ignore[arg-type]
            context=str(entry["context"]),
            induced=bool(entry["induced"]),
        )
        for entry in data["records"]  # type: ignore[union-attr]
    ]
    return SimulationResult(
        policy_name=str(data["policy_name"]),
        hours=float(data["hours"]),  # type: ignore[arg-type]
        context_hours={str(k): float(v) for k, v in
                       dict(data["context_hours"]).items()},  # type: ignore[call-overload]
        records=records,
        encounters_resolved=int(data["encounters_resolved"]),  # type: ignore[arg-type]
        hard_braking_demands=int(data["hard_braking_demands"]),  # type: ignore[arg-type]
        hard_braking_threshold_ms2=float(data["hard_braking_threshold_ms2"]),  # type: ignore[arg-type]
    )


@dataclass
class _ChunkEntry:
    """One persisted chunk: its result + optional telemetry snapshot."""

    result: SimulationResult
    telemetry: Optional[TelemetrySnapshot] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "result": result_to_dict(self.result),
            "telemetry": (None if self.telemetry is None
                          else self.telemetry.to_dict()),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "_ChunkEntry":
        telemetry = data["telemetry"]
        return cls(
            result=result_from_dict(dict(data["result"])),  # type: ignore[call-overload]
            telemetry=(None if telemetry is None
                       else TelemetrySnapshot.from_dict(dict(telemetry))),  # type: ignore[call-overload]
        )


@dataclass(frozen=True)
class CheckpointLogEntry(EventRecord):
    """One checkpoint-log line: the identity block or one banked chunk.

    The chain shape of :class:`~repro.obs.events.EventRecord`.  A
    ``chunk.banked`` entry loaded from disk also carries its decoded
    ``chunk``, built while the artifact boundary loads the line, so a
    malformed result fails typed there; it is not part of the entry's
    identity (``data`` is).
    """

    KINDS: ClassVar[Tuple[str, ...]] = ("campaign.identity",
                                        "chunk.banked")

    chunk: Optional[_ChunkEntry] = field(default=None, compare=False,
                                         repr=False)


class CheckpointLog(EventJournal):
    """The checkpoint's append-only writer: the event-journal machinery
    under the checkpoint-log schema, fsync'd per append, with its faults
    scripted at the ``checkpoint-save`` chaos point."""

    SCHEMA_NAME: ClassVar[str] = CHECKPOINT_LOG_SCHEMA_NAME
    RECORD_TYPE: ClassVar[type] = CheckpointLogEntry
    FSYNC: ClassVar[bool] = True
    CHAOS_POINT: ClassVar[Optional[str]] = "checkpoint-save"


class CampaignCheckpoint:
    """Mutable on-disk campaign state: identity block + committed chunks.

    Lifecycle: the fleet runner creates one (:meth:`new`) or reopens one
    (:meth:`resume` + :meth:`ensure_matches`), then calls :meth:`record`
    once per committed chunk — each call appends that chunk's line to
    the log, so the checkpoint on disk is always a consistent prefix of
    the campaign (in commit order, which may not be index order; resume
    handles any subset).
    """

    def __init__(self, path: Path, campaign: Mapping[str, object],
                 created_utc: Optional[str] = None):
        self.path = Path(path)
        self.campaign = dict(campaign)
        self.chunks: Dict[int, _ChunkEntry] = {}
        self.created_utc = (created_utc or
                            datetime.now(timezone.utc).isoformat())
        # The log on disk: (entries, head digest, bytes) up to its last
        # acknowledged entry, or None while there is no log yet.
        self._tail: Optional[Tuple[int, Optional[str], int]] = None
        # The chunks in the log on disk.
        self._logged: Set[int] = set()

    # -- construction -----------------------------------------------------

    @classmethod
    def new(cls, path: Path, campaign: Mapping[str, object],
            ) -> "CampaignCheckpoint":
        return cls(path, campaign)

    @classmethod
    def load(cls, path: Path) -> "CampaignCheckpoint":
        """Load + verify one checkpoint file, strictly.

        Corruption (a torn line, a bit-flip against an entry's digest, a
        reordered, spliced or dropped entry, malformed JSON), a duplicate
        chunk index, an unknown or missing schema tag, and structurally
        invalid content all raise the corresponding typed
        :class:`~repro.errors.ArtifactError` subclass.
        """
        path = Path(path)
        entries, head = read_chained_journal(
            path, schema_name=CHECKPOINT_LOG_SCHEMA_NAME)
        return _from_entries(path, entries, head, path.stat().st_size)

    @classmethod
    def resume(cls, path: Path,
               ) -> "Tuple[Optional[CampaignCheckpoint], int]":
        """Open a checkpoint to continue it: ``(checkpoint, bytes cut)``.

        Loads strictly; when that fails only because the log ends in a
        provably torn tail (the append in flight when the last run
        died), the tail is cut and the log loaded strictly again.
        Any other damage raises and cuts nothing.  The checkpoint is
        ``None`` when there is nothing to resume: no file, or an empty
        one.
        """
        path = Path(path)
        if not path.exists():
            return None, 0
        try:
            return cls.load(path), 0
        except ArtifactError:
            pass  # a provably torn tail is cut below; the rest raises there
        size = path.stat().st_size
        scan = repair_checkpoint_tail(path)
        cut = size - scan.total_bytes
        return (cls.load(path) if scan.records else None), cut

    # -- identity ---------------------------------------------------------

    def ensure_matches(self, campaign: Mapping[str, object]) -> None:
        """Refuse to resume a different campaign.

        Every key of ``campaign`` must match the stored identity block
        (the worker count is deliberately *not* part of the identity —
        resuming on a different pool size is supported and bit-exact).
        """
        mismatches = {
            key: (self.campaign.get(key), value)
            for key, value in campaign.items()
            if self.campaign.get(key) != value
        }
        if mismatches:
            detail = "; ".join(
                f"{key}: checkpoint={stored!r} requested={wanted!r}"
                for key, (stored, wanted) in sorted(mismatches.items()))
            raise CheckpointMismatchError(
                f"checkpoint {self.path} belongs to a different campaign "
                f"({detail})")

    # -- chunk state ------------------------------------------------------

    def record(self, index: int, result: SimulationResult,
               telemetry: Optional[TelemetrySnapshot] = None) -> None:
        """Persist one committed chunk (one appended, fsync'd line)."""
        if index in self.chunks:
            raise ValueError(f"chunk {index} is already banked in "
                             f"checkpoint {self.path}")
        self.chunks[index] = _ChunkEntry(result=result, telemetry=telemetry)
        self.save()
        journal_event("checkpoint.committed", chunk_index=int(index),
                      path=str(self.path), chunks_banked=len(self.chunks))

    def completed_results(self) -> Dict[int, SimulationResult]:
        return {index: entry.result
                for index, entry in sorted(self.chunks.items())}

    def completed_telemetry(self) -> Dict[int, Optional[TelemetrySnapshot]]:
        return {index: entry.telemetry
                for index, entry in sorted(self.chunks.items())}

    def units_done(self) -> float:
        """Exposure already banked (sum of restored chunks' hours)."""
        return math.fsum(entry.result.hours
                         for entry in self.chunks.values())

    def chunk_indices(self) -> "tuple[int, ...]":
        """The committed chunk indices, sorted."""
        return tuple(sorted(self.chunks))

    def unlogged(self) -> "tuple[int, ...]":
        """Banked chunks not on disk yet (their append failed), sorted;
        the next :meth:`save` appends them."""
        return tuple(sorted(set(self.chunks) - self._logged))

    # -- persistence ------------------------------------------------------

    def save(self) -> None:
        """Log every banked chunk that is not in the log yet.

        The first save writes the identity line and the banked chunks to
        a temp file and renames it into place; every later save appends
        one signed, fsync'd line per new chunk.  A failed append advances
        nothing, and the next save cuts back to the last acknowledged
        byte before it appends, so no entry ever lands past a torn
        fragment.  A filesystem failure (including the
        ``checkpoint-save`` fs-chaos point) surfaces as a typed
        :class:`CheckpointWriteError`, never a raw ``OSError`` traceback.
        """
        try:
            if self._tail is None:
                self._write_log()
                return
            pending = [i for i in self.chunks if i not in self._logged]
            if not pending:
                return
            log = CheckpointLog.reopen(self.path, *self._tail)
            try:
                for index in pending:
                    self._emit_chunk(log, index)
                    self._logged.add(index)
                    self._tail = (log.seq, log.head, log.size)
            finally:
                log.close()
        except OSError as exc:
            raise CheckpointWriteError(
                f"cannot flush checkpoint: {exc.strerror or exc}",
                source=self.path, schema=CHECKPOINT_LOG_SCHEMA) from exc

    def _write_log(self) -> None:
        tmp = self.path.with_name(
            f"{ORPHAN_TMP_PREFIX}{self.path.name}{ORPHAN_TMP_SUFFIX}")
        tmp.unlink(missing_ok=True)  # residue of an earlier failed save
        log = CheckpointLog.open(tmp)
        try:
            log.emit("campaign.identity",
                     {"campaign": self.campaign,
                      "created_utc": self.created_utc})
            for index in self.chunks:
                self._emit_chunk(log, index)
            log.close()
            os.replace(tmp, self.path)
        except BaseException:
            log.close()
            tmp.unlink(missing_ok=True)
            raise
        self._logged = set(self.chunks)
        self._tail = (log.seq, log.head, log.size)

    def _emit_chunk(self, log: CheckpointLog, index: int) -> None:
        log.emit("chunk.banked",
                 {"index": int(index), **self.chunks[index].to_dict()})


def repair_checkpoint_tail(path: "Path | str") -> JournalScan:
    """Suffix-cut a torn checkpoint-log tail in place (see
    :func:`~repro.obs.events.repair_journal_tail`); returns the scan of
    what is left.

    Any other damage raises, and so does damage before a verified
    identity line: the first save renames that line into place whole,
    so it never tears.
    """
    scan = scan_journal(path, schema_name=CHECKPOINT_LOG_SCHEMA_NAME)
    if scan.error is not None and scan.damage_lineno is None:
        raise scan.error  # unreadable: there is no tail to judge
    if not scan.clean and not (scan.torn_tail and scan.records):
        raise CorruptArtifactError(
            f"checkpoint damage at line {scan.damage_lineno} is not a torn "
            f"tail after a verified identity line: {scan.damage}",
            source=path, schema=CHECKPOINT_LOG_SCHEMA)
    return repair_journal_tail(path, schema_name=CHECKPOINT_LOG_SCHEMA_NAME)


# -- reading ---------------------------------------------------------------

def _from_entries(path: Path, entries: Sequence[EventRecord],
                  head: Optional[str], size: int) -> CampaignCheckpoint:
    """Fold verified log entries: the identity block first, then each
    chunk index at most once."""
    if not entries or entries[0].kind != "campaign.identity":
        raise ArtifactValidationError(
            "checkpoint log does not start with its identity block",
            source=path, schema=CHECKPOINT_LOG_SCHEMA)
    identity = entries[0].data
    checkpoint = CampaignCheckpoint(
        path, dict(identity["campaign"]),  # type: ignore[call-overload]
        created_utc=str(identity["created_utc"]))
    for entry in entries[1:]:
        assert isinstance(entry, CheckpointLogEntry)
        if entry.chunk is None:
            raise ArtifactValidationError(
                f"entry {entry.seq} is a second identity block",
                source=path, schema=CHECKPOINT_LOG_SCHEMA)
        index = int(entry.data["index"])  # type: ignore[call-overload]
        if index in checkpoint.chunks:
            raise ArtifactValidationError(
                f"entry {entry.seq} banks chunk {index} a second time "
                f"(duplicate chunk index)",
                source=path, schema=CHECKPOINT_LOG_SCHEMA)
        checkpoint.chunks[index] = entry.chunk
    checkpoint._logged = set(checkpoint.chunks)
    checkpoint._tail = (len(entries), head, size)
    return checkpoint


# -- artifact schema registration ----------------------------------------

def _example_result() -> SimulationResult:
    return SimulationResult(
        policy_name="nominal", hours=2.0,
        context_hours={"urban": 1.5, "highway": 0.5},
        records=[
            IncidentRecord(counterpart=ActorClass.VRU, is_collision=False,
                           min_distance_m=0.8, approach_speed_kmh=12.5,
                           time_h=0.25, context="urban"),
            IncidentRecord(counterpart=ActorClass.CAR, is_collision=True,
                           delta_v_kmh=7.25, approach_speed_kmh=31.0,
                           time_h=1.75, context="highway", induced=False),
        ],
        encounters_resolved=41, hard_braking_demands=3,
        hard_braking_threshold_ms2=4.0)


def _load_log_entry(data: Mapping[str, object]) -> CheckpointLogEntry:
    body = dict(data["data"])  # type: ignore[call-overload]
    return CheckpointLogEntry(
        seq=int(data["seq"]),  # type: ignore[call-overload]
        ts_utc=str(data["ts_utc"]),
        kind=str(data["kind"]),
        data=body,
        prev=(None if data["prev"] is None else str(data["prev"])),
        chunk=(_ChunkEntry.from_dict(body)
               if data["kind"] == "chunk.banked" else None))


def _example_log_entry() -> CheckpointLogEntry:
    """A small deterministic ``chunk.banked`` line for the fuzz tier."""
    return CheckpointLogEntry(
        seq=1, ts_utc="2026-01-01T00:00:00+00:00", kind="chunk.banked",
        data={"index": 0, "result": result_to_dict(_example_result()),
              "telemetry": None},
        prev="sha256:" + "ef" * 32)


_RECORD_SPEC = Record(required={
    "counterpart": Str(), "is_collision": Bool(), "delta_v_kmh": Number(),
    "min_distance_m": Number(), "approach_speed_kmh": Number(),
    "time_h": Number(), "context": Str(), "induced": Bool(),
})

#: The structural contract of :func:`result_to_dict`'s payload, which
#: every ``chunk.banked`` line carries.
RESULT_SPEC = Record(required={
    "policy_name": Str(), "hours": Number(),
    "context_hours": MapOf(Number()),
    "encounters_resolved": Int(), "hard_braking_demands": Int(),
    "hard_braking_threshold_ms2": Number(),
    "records": ListOf(_RECORD_SPEC),
})

_ENTRY_FIELDS = {"seq": Int(), "ts_utc": Str(), "kind": Str(),
                 "prev": NullOr(Str())}

_LOG_ENTRY_SPEC = TaggedUnion("kind", {
    "campaign.identity": Record(required={**_ENTRY_FIELDS, "data": Record(
        required={"campaign": MapOf(Json()), "created_utc": Str()})}),
    "chunk.banked": Record(required={**_ENTRY_FIELDS, "data": Record(
        required={"index": Int(), "result": RESULT_SPEC,
                  "telemetry": NullOr(Json())})}),
})

register_artifact(ArtifactSchema(
    name=CHECKPOINT_LOG_SCHEMA_NAME,
    version=1,
    spec=_LOG_ENTRY_SPEC,
    load=_load_log_entry,
    dump=CheckpointLogEntry.to_dict,
    label="checkpoint-log entry",
    example=_example_log_entry,
))
