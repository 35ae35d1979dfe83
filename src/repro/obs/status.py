"""Live campaign status: the flight recorder and its watchable artifact.

The journal (:mod:`repro.obs.events`) is the durable, replayable record;
this module is the *live* face of the same recorder.  A
:class:`FlightRecorder` owns one journal plus one atomically rewritten
``status.json`` — a small, self-contained snapshot of where the
campaign stands *right now*: progress fractions, fsum-pooled exposure,
the budget table of :func:`~repro.core.verification.verify_against_counts`
(verdicts included), throughput and ETA from
:class:`~repro.obs.metrics.ThroughputMeter`, fault and quarantine
counts, transport + bytes shipped.  ``repro watch PATH``
re-reads and re-renders that file on an interval, which is the whole
point of writing it atomically: a reader can never observe a torn
status, only the previous or the next complete one.  Every count in it
is read from one :class:`~repro.obs.events.JournalReplay` that folds
each entry the journal writes (seeded with the continued chain on
resume), so the status is the journal's replay by construction — its
budget table included: :meth:`JournalReplay.budget_report
<repro.obs.events.JournalReplay.budget_report>` verifies the summed
chunk counts, and a ``budget.verdict`` event is journalled only where
that verdict differs from the one the chain already holds.

The recorder is pure observation.  It classifies each chunk through
:func:`classified_counts`, the same classification a manifest's
``type_counts`` makes, which is what makes the journal's per-chunk
``type_counts`` replay to the manifest's budget table exactly.  Nothing
here reads or advances an RNG stream, and a campaign without a recorder
never touches this module (the ``journal_event`` guard lives in
:mod:`repro.obs.events`).
"""

from __future__ import annotations

import json
import math
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..errors import CorruptArtifactError
from ..io.artifact import parse_artifact_text
from ..io.atomic import atomic_write_text
from .events import (EventJournal, EventRecord, JournalReplay,
                     journal_event, read_journal, recording_journal,
                     replay_journal)
from .metrics import ThroughputMeter

__all__ = ["STATUS_SCHEMA", "FlightRecorder", "read_status",
           "render_status", "format_bytes", "format_duration"]

STATUS_SCHEMA = "repro.campaign-status/v1"

JOURNAL_FILENAME = "journal.jsonl"
STATUS_FILENAME = "status.json"

#: Journal events after which the observer rewrites the status: the
#: ones that arrive outside :meth:`FlightRecorder._record_chunk` (the
#: retry layer and the campaign lifecycle emit directly).  Chunk entries
#: and verdicts are journalled inside it, and it writes next; a
#: checkpoint commit is followed by its chunk's progress update.
_OBSERVER_WRITES = ("chunk.failed", "chunk.retry", "chunk.quarantined",
                    "pool.rebuilt", "campaign.finished", "campaign.failed")


def classified_counts(result, types) -> Dict[str, int]:
    """Classify a ``SimulationResult`` into per-type incident counts.

    Records matching no type are outside every budget and dropped (their
    completeness story belongs to the MECE certificate).
    """
    from ..traffic.records import classify_block_counts  # lazy: avoid cycles

    counts, _ = classify_block_counts(result.record_block, list(types))
    return counts


def format_bytes(n: int) -> str:
    """``1234567`` → ``"1.2 MiB"`` (binary units, one decimal)."""
    n = int(n)
    if n < 1024:
        return f"{n} B"
    value = float(n)
    for unit in ("KiB", "MiB", "GiB", "TiB"):
        value /= 1024.0
        if value < 1024.0:
            return f"{value:.1f} {unit}"
    return f"{value:.1f} PiB"


def format_duration(seconds: Optional[float]) -> str:
    """Seconds → compact ``1h 02m`` / ``42s`` form (``"?"`` if unknown)."""
    if seconds is None or not math.isfinite(seconds):
        return "?"
    seconds = max(float(seconds), 0.0)
    if seconds < 60.0:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m {secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h {minutes:02d}m"


def read_status(path: Union[str, Path]) -> Dict[str, object]:
    """Load + verify one ``status.json`` (typed errors only).

    The status file is a plain JSON snapshot (not a registered artifact
    schema — it is rewritten in place, never archival evidence), but it
    still rides the strict artifact parser and carries a ``schema`` tag,
    so corruption and foreign files fail with the usual typed taxonomy.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorruptArtifactError(
            f"cannot read status file: {exc.strerror or exc}",
            source=path, schema=STATUS_SCHEMA) from exc
    doc = parse_artifact_text(text, source=path)
    if not isinstance(doc, dict):
        raise CorruptArtifactError(
            f"status file is not a JSON object but {type(doc).__name__}",
            source=path, schema=STATUS_SCHEMA)
    tag = doc.get("schema")
    if tag != STATUS_SCHEMA:
        raise CorruptArtifactError(
            f"expected schema {STATUS_SCHEMA!r}, found {tag!r}",
            source=path, schema=STATUS_SCHEMA)
    if "state" not in doc:
        raise CorruptArtifactError(
            "status file carries no 'state' field",
            source=path, schema=STATUS_SCHEMA)
    return doc


def render_status(doc: Dict[str, object]) -> str:
    """Human-readable rendering of one status snapshot (``repro watch``)."""
    from ..reporting.tables import render_table  # lazy: avoid cycles

    def num(key: str, default: float = 0.0) -> float:
        value = doc.get(key, default)
        return float(value) if isinstance(value, (int, float)) else default

    lines: List[str] = []
    lines.append(f"campaign {doc.get('state', '?')} — "
                 f"updated {doc.get('updated_utc', '?')}")
    chunks_done = int(num("chunks_done"))
    chunks_total = int(num("chunks_total"))
    resumed = int(num("chunks_resumed"))
    resumed_note = f" ({resumed} restored)" if resumed else ""
    lines.append(
        f"  chunks {chunks_done}/{chunks_total}{resumed_note}  |  "
        f"hours {num('hours_done'):g}/{num('hours_total'):g}")
    lines.append(
        f"  encounters {int(num('encounters_resolved'))}  "
        f"incidents {int(num('incidents_found'))}  "
        f"hard-braking demands {int(num('hard_braking_demands'))}")
    lines.append(
        f"  faults: {int(num('failures'))} failed, "
        f"{int(num('retries'))} retried, {int(num('timeouts'))} timed out, "
        f"{int(num('quarantined'))} quarantined; "
        f"pool rebuilds {int(num('pool_rebuilds'))}, "
        f"checkpoint commits {int(num('checkpoint_commits'))}")
    transport = doc.get("transport")
    shipped = format_bytes(int(num("bytes_shipped")))
    rate = num("rate_hours_per_s")
    eta = doc.get("eta_s")
    eta_s = float(eta) if isinstance(eta, (int, float)) else None
    lines.append(
        f"  transport {transport or '?'}, {shipped} shipped  |  "
        f"{rate:.3g} h/s  ETA {format_duration(eta_s)}")
    lines.append(
        f"  journal: {int(num('event_seq'))} events, "
        f"head {doc.get('journal_head') or '-'}")
    budget = doc.get("budget")
    if isinstance(budget, list) and budget:
        rows = []
        confidence = 0.95
        for row in budget:
            if not isinstance(row, dict):
                continue
            confidence = float(row.get("confidence", confidence))
            rows.append([
                row.get("budget_id", "?"),
                str(row.get("kind", "?")).replace("incident_type", "type")
                .replace("consequence_class", "class"),
                f"{float(row.get('observed', 0.0)):g}",
                f"{float(row.get('utilisation', 0.0)):.2%}",
                f"{float(row.get('utilisation_upper', 0.0)):.2%}",
                str(row.get("verdict", "?")),
            ])
        lines.append("")
        lines.append(render_table(
            ["budget", "kind", "observed", "utilisation",
             f"{confidence:.0%} UCB util.", "verdict"],
            rows, title="Budget utilisation (live)"))
    return "\n".join(lines)


class FlightRecorder:
    """One campaign's journal + live status, driven by progress updates.

    Construct with the recorder *directory* (journal and status live
    side by side in it), optionally the campaign's goal set + incident
    types (without both the recorder still journals and tracks progress,
    it just cannot produce a budget table), and ``resume=True`` to
    continue an existing journal's chain — the same same-path
    discipline as ``--checkpoint``/``--resume``.  ``status_interval_s``
    throttles status rewrites (lifecycle transitions always force
    through); the journal itself is never throttled.

    Use as a context manager around the campaign::

        with FlightRecorder(out_dir, goals=goals, types=types) as rec:
            run_fleet(..., progress=rec.on_progress)

    Entering installs the journal process-wide (so the fleet runner,
    retry layer, checkpoint writer, recorder and accelerator emit into
    it via :func:`~repro.obs.events.journal_event`); exiting
    restores the previous journal, finalises the status state
    (``finished`` / ``interrupted`` / ``failed``) and closes the file.
    """

    def __init__(self, directory: Union[str, Path], *, goals=None,
                 types=None, resume: bool = False,
                 status_interval_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic):
        self._dir = Path(directory)
        journal_path = self._dir / JOURNAL_FILENAME
        # Every live count is the fold of the journal (one JournalReplay,
        # fed by the journal observer); a resumed journal seeds it with
        # the chain it continues, so the status covers the whole journal.
        if resume and journal_path.exists():
            records, head = read_journal(journal_path)
            self._replay = replay_journal(records)
            self._journal = EventJournal.reopen(
                journal_path, len(records), head,
                journal_path.stat().st_size)
        else:
            self._replay = JournalReplay()
            self._journal = EventJournal.open(journal_path)
        self._status_path = self._dir / STATUS_FILENAME
        self._types = None if types is None else list(types)
        # Chunks carry type counts only when the types are known.
        self._goals = None if types is None else goals
        self._meter = ThroughputMeter(clock)
        self._clock = clock
        self._status_interval_s = float(status_interval_s)
        self._last_status_write: Optional[float] = None
        self._state = "running"
        self._scope = None
        self._last_budget_rows: Optional[List[Dict[str, object]]] = None
        # No event carries the shipped bytes per chunk.
        self._bytes_shipped = 0
        self._journal.add_observer(self._observe_event)
        self._write_status(force=True)

    # -- plumbing ---------------------------------------------------------

    @property
    def journal(self) -> EventJournal:
        return self._journal

    @property
    def journal_path(self) -> Path:
        return self._journal.path

    @property
    def status_path(self) -> Path:
        return self._status_path

    @property
    def state(self) -> str:
        return self._state

    def __enter__(self) -> "FlightRecorder":
        self._scope = recording_journal(self._journal)
        self._scope.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                if self._state == "running":
                    self._state = "finished"
            elif issubclass(exc_type, KeyboardInterrupt):
                self._state = "interrupted"
            elif self._state == "running":
                self._state = "failed"
            self._write_status(force=True)
        finally:
            if self._scope is not None:
                self._scope.__exit__(exc_type, exc, tb)
                self._scope = None
            self._journal.close()
        return False

    # -- event-driven bookkeeping ----------------------------------------

    def _observe_event(self, record: EventRecord) -> None:
        self._replay.observe(record)
        kind = record.kind
        if kind in ("campaign.finished", "campaign.failed"):
            self._state = kind[len("campaign."):]
        if kind in _OBSERVER_WRITES:
            self._write_status(force=kind.startswith("campaign."))

    # -- campaign hooks ---------------------------------------------------

    def on_progress(self, update) -> None:
        """Fold one :class:`~repro.traffic.fleet.FleetProgress` update in.

        Emits ``chunk.committed`` (with the chunk's classified
        ``type_counts`` when incident types are known); the status write
        it triggers journals any verdict change.  Safe to compose with a
        user progress callback — it only reads the update.
        """
        self._bytes_shipped = update.bytes_shipped
        self._record_chunk("chunk.committed", update.chunk_index,
                           update.result)

    def observe_restored_checkpoint(self, checkpoint) -> None:
        """Re-journal a restored checkpoint's banked chunks.

        ``checkpoint`` is the
        :class:`~repro.traffic.checkpoint.CampaignCheckpoint` the
        campaign resumes from — the caller opens it once and hands the
        same object to the fleet runner.  On resume, a chunk may be
        banked in the checkpoint while its ``chunk.committed`` entry was
        lost to the kill (commit and journal append cannot be one atomic
        step).  Emitting ``chunk.restored`` — with the same classified
        counter payload — for *every* banked chunk closes that window:
        replay deduplicates by chunk index, so the journal always
        reconstructs exactly one record per chunk regardless of where
        the kill landed.
        """
        restored = checkpoint.completed_results()
        journal_event("campaign.resumed",
                      checkpoint=str(checkpoint.path),
                      chunk_indices=sorted(restored),
                      hours_resumed=math.fsum(
                          r.hours for r in restored.values()))
        for index in sorted(restored):
            self._record_chunk("chunk.restored", index, restored[index])
        self._write_status(force=True)

    def _record_chunk(self, kind: str, index: int, result) -> None:
        data: Dict[str, object] = {
            "chunk_index": int(index),
            "hours": float(result.hours),
            "encounters": int(result.encounters_resolved),
            "records": int(result.num_records),
            "collisions": int(result.collision_count()),
            "hard_braking_demands": int(result.hard_braking_demands),
        }
        if self._types is not None:
            counts = classified_counts(result, self._types)
            data["type_counts"] = {k: int(v) for k, v in sorted(
                counts.items())}
        journal_event(kind, **data)
        self._write_status()

    # -- the status artifact ----------------------------------------------

    def status_document(self) -> Dict[str, object]:
        """The complete live snapshot as a plain JSON-safe dict.

        Every count is read from the fold of the journal, so the status
        equals :func:`~repro.obs.events.replay_journal` of the journal
        at every write; only ``bytes_shipped`` is the recorder's own.
        """
        replay = self._replay
        started = replay.campaign
        resumed = replay.resumed_from or {}
        hours_done = replay.hours
        hours_total = float(started.get("hours", 0.0))
        hours_resumed = float(resumed.get("hours_resumed", 0.0))
        rate = self._meter.rate_per_s(hours_done, baseline=hours_resumed)
        eta = self._meter.eta_s(hours_done, hours_total,
                                baseline=hours_resumed)
        return {
            "schema": STATUS_SCHEMA,
            "state": self._state,
            "updated_utc": datetime.now(timezone.utc).isoformat(),
            "chunks_done": len(replay.chunks),
            "chunks_total": int(started.get("n_chunks", 0)),
            "chunks_resumed": len(resumed.get("chunk_indices", ())),
            "hours_done": hours_done,
            "hours_total": hours_total,
            "hours_resumed": hours_resumed,
            "encounters_resolved": replay.encounters_resolved,
            "incidents_found": replay.incidents_found,
            "hard_braking_demands": replay.hard_braking_demands,
            "failures": len(replay.failures),
            "retries": replay.retries,
            "timeouts": replay.timeouts,
            "quarantined": len(replay.quarantined),
            "pool_rebuilds": replay.pool_rebuilds,
            "checkpoint_commits": replay.checkpoint_commits,
            "transport": started.get("transport"),
            "bytes_shipped": self._bytes_shipped,
            "rate_hours_per_s": rate,
            "eta_s": None if not math.isfinite(eta) else eta,
            "event_seq": self._journal.seq,
            "journal_head": self._journal.head,
            "budget": self._last_budget_rows,
        }

    def _write_status(self, *, force: bool = False) -> None:
        # Atomic but not fsync'd: a torn status must be impossible, but
        # the status file is ephemeral — the journal is the durable leg.
        # Rewrites are throttled to one per ``status_interval_s`` (fast
        # chunk streams would otherwise spend more time rewriting status
        # than simulating); lifecycle transitions force through so the
        # final state is always on disk.
        now = self._clock()
        if not force and self._last_status_write is not None \
                and now - self._last_status_write < self._status_interval_s:
            return
        self._last_status_write = now
        if self._goals is not None and self._replay.chunks:
            # Verifying here (not per chunk) rides the same throttle, so
            # verdict changes land in the journal at status cadence — and
            # always once more at the forced terminal write.
            rows = self._replay.budget_report(self._goals).to_rows()
            for row in rows:
                previous = self._replay.verdicts.get(row["budget_id"])
                if row["verdict"] != previous:
                    journal_event(
                        "budget.verdict", budget_id=row["budget_id"],
                        kind=row["kind"], verdict=row["verdict"],
                        previous=previous, utilisation=row["utilisation"],
                        utilisation_upper=row["utilisation_upper"],
                        exposure=row["exposure"])
            self._last_budget_rows = rows
        atomic_write_text(
            self._status_path,
            json.dumps(self.status_document(), indent=2, sort_keys=True)
            + "\n",
            durable=False)
