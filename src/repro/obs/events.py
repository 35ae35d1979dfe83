"""The campaign flight recorder's structured event journal.

A fleet campaign's *final* manifest proves what the run concluded; the
QRN evidence argument (Sec. III / Eq. 1) also needs an auditable record
of how it got there — chunks committed and restored, faults retried,
pools rebuilt, checkpoints flushed, budget verdicts changing as the
evidence grew.  This module is that record: a typed, append-only **event
journal** written as digest-chained JSONL through the :mod:`repro.io`
boundary.

Format.  Each line of ``journal.jsonl`` is one complete
``repro.event-log/v1`` artifact envelope (schema tag + payload sha256,
exactly the DESIGN §10 discipline), serialised in canonical compact
form.  Entries are chained: entry *N*'s ``prev`` field must equal entry
*N−1*'s ``payload_sha256`` (``None`` for the genesis entry), and ``seq``
must count 0,1,2,…  Any truncation, reorder, edit, or splice therefore
fails :func:`read_journal` with a typed
:class:`~repro.errors.CorruptArtifactError` — the journal is
tamper-evident end to end, including across a kill-and-resume that
reopens the same file.

Emission.  Hot paths mirror the :mod:`~repro.obs.session` telemetry
pattern exactly: :func:`journal_event` reads one module global and
returns immediately when no journal is installed (benchmarked in
``benchmarks/bench_observer_overhead.py``), so campaigns without a
flight recorder pay one attribute load + ``None`` check per emission
site — and emission sites sit at chunk/campaign granularity, never per
encounter.  Nothing here reads or advances an RNG stream (DESIGN §8):
the golden pins run bit-for-bit with the recorder on and off.

Replay.  :func:`replay_journal` folds a verified journal back into the
campaign's counters and per-chunk classified counts; verifying those
(:meth:`JournalReplay.budget_report`) reproduces the run manifest's
budget table *exactly* — integer counts sum exactly and exposure parts
pool through ``math.fsum`` (order-independent correctly-rounded sums),
the same discipline as :meth:`SimulationResult.merge_many`.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import (Callable, ClassVar, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..errors import CorruptArtifactError
from ..io.artifact import (ARTIFACTS, DIGEST_KEY, ArtifactSchema,
                           parse_artifact_text, register_artifact)
from ..io.faults import fs_chaos, fs_fault
from ..io.validate import Int, Json, MapOf, NullOr, Record, Str

__all__ = ["EVENT_LOG_SCHEMA", "EVENT_LOG_SCHEMA_NAME", "EVENT_KINDS",
           "EventRecord", "EventJournal", "read_journal",
           "read_chained_journal", "replay_journal", "JournalReplay",
           "journal_event", "active_journal", "recording_journal",
           "JournalScan", "scan_journal", "repair_journal_tail"]

EVENT_LOG_SCHEMA_NAME = "repro.event-log"
EVENT_LOG_SCHEMA = f"{EVENT_LOG_SCHEMA_NAME}/v1"

EVENT_KINDS = (
    # campaign lifecycle
    "campaign.started", "campaign.resumed", "campaign.finished",
    "campaign.failed",
    # chunk lifecycle (committed = executed this run; restored = banked
    # in a checkpoint by an earlier run and fed back on resume)
    "chunk.committed", "chunk.restored",
    # fault-tolerance path (DESIGN §9)
    "chunk.failed", "chunk.retry", "chunk.quarantined",
    "pool.rebuilt", "pool.degraded",
    # persistence + verdict evolution
    "checkpoint.committed", "budget.verdict",
    # rare-event accelerator alarms (DESIGN §11)
    "degeneracy.alarm",
)
"""The closed event taxonomy.  ``EventRecord`` rejects anything else —
an unknown kind in a journal file is corruption, not forward compat.
Chained logs with a *different* taxonomy (the campaign checkpoint's
``repro.checkpoint-log/v1``) subclass :class:`EventRecord` and override
``KINDS`` — the chain discipline is shared, the vocabulary is not."""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class EventRecord:
    """One journal entry: position in the chain + typed event payload.

    ``seq`` is the 0-based position, ``prev`` the previous entry's
    payload digest (``None`` at genesis) — together they make the file
    an append-only hash chain.  ``data`` carries the kind-specific
    payload (chunk index, counts, failure details, …) as plain JSON.
    """

    KINDS: ClassVar[Tuple[str, ...]] = EVENT_KINDS

    seq: int
    ts_utc: str
    kind: str
    data: Dict[str, object] = field(default_factory=dict)
    prev: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"event seq must be >= 0, got {self.seq}")
        if self.kind not in type(self).KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{type(self).KINDS}")

    def to_dict(self) -> Dict[str, object]:
        return {"seq": self.seq, "ts_utc": self.ts_utc, "kind": self.kind,
                "data": dict(self.data), "prev": self.prev}


# -- reading + chain verification -----------------------------------------

def _chain_error(path: object, lineno: int, message: str, *,
                 schema: str = EVENT_LOG_SCHEMA) -> CorruptArtifactError:
    return CorruptArtifactError(
        f"event journal chain broken at line {lineno}: {message}",
        source=path, schema=schema)


@dataclass
class JournalScan:
    """One walk of a chained journal: its valid prefix and first damage.

    ``records`` is the longest valid chain prefix, ``valid_bytes`` the
    byte length of that prefix in the file (truncating to it yields a
    journal the strict reader accepts).  ``error`` is the typed
    exception the walk stopped at (``None`` when the whole file
    verifies), which :func:`read_chained_journal` raises; ``damage`` is
    its text.  ``torn_tail`` says whether that damage is *provably*
    un-acknowledged residue: nothing after the valid prefix parses as a
    complete signed envelope, so the damage can only be the torn final
    append of a crashed writer — cutting it loses no committed entry.
    Interior damage (a valid-looking envelope exists past the break) is
    NOT a torn tail: cutting there would discard committed audit data,
    so :func:`repair_journal_tail` refuses it.
    """

    path: Path
    schema_name: str
    records: List[EventRecord] = field(default_factory=list)
    head: Optional[str] = None
    valid_bytes: int = 0
    total_bytes: int = 0
    error: Optional[ValueError] = None
    damage_lineno: Optional[int] = None
    torn_tail: bool = False

    @property
    def damage(self) -> Optional[str]:
        return None if self.error is None else str(self.error)

    @property
    def clean(self) -> bool:
        return self.error is None


def scan_journal(path: Union[str, Path], *,
                 schema_name: str = EVENT_LOG_SCHEMA_NAME) -> JournalScan:
    """Walk one chained journal file up to its first damage, never raising.

    Walks the file byte-accurately: each newline-terminated line (plus a
    possible unterminated final fragment) is verified in turn — UTF-8,
    envelope parse, schema load, digest, ``seq`` contiguity, ``prev``
    linkage.  The walk stops at the first failure, keeps its typed
    exception and classifies it (see :class:`JournalScan`).  An
    unreadable file reports 0 valid bytes with the read error as
    damage.
    """
    path = Path(path)
    schema_tag = f"{schema_name}/v{ARTIFACTS.get(schema_name).version}"
    scan = JournalScan(path=path, schema_name=schema_name)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        scan.error = CorruptArtifactError(
            f"cannot read event journal: {exc.strerror or exc}",
            source=path, schema=schema_tag)
        return scan
    scan.total_bytes = len(raw)

    # Split into (line_bytes, end_offset) pairs; the final fragment (no
    # trailing newline) is included — a complete valid envelope there is
    # accepted.
    pieces: List[Tuple[bytes, int]] = []
    start = 0
    while start < len(raw):
        newline = raw.find(b"\n", start)
        if newline < 0:
            pieces.append((raw[start:], len(raw)))
            break
        pieces.append((raw[start:newline], newline + 1))
        start = newline + 1

    def _verify(line_bytes: bytes,
                lineno: int) -> Optional[Tuple[EventRecord, str]]:
        """The line as the chain's next entry (``None`` if blank)."""
        source = f"{path}:{lineno}"
        try:
            line = line_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptArtifactError(
                f"event journal line is not valid UTF-8: {exc}",
                source=source, schema=schema_tag) from exc
        if not line.strip():
            return None
        envelope = parse_artifact_text(line, source=source)
        record = ARTIFACTS.load_dict(envelope, schema_name, source=source)
        assert isinstance(record, EventRecord)
        digest = envelope.get(DIGEST_KEY) if isinstance(envelope, dict) \
            else None
        if not isinstance(digest, str):
            raise _chain_error(path, lineno, "entry carries no payload "
                              "digest (chain link missing)",
                              schema=schema_tag)
        if record.seq != len(scan.records):
            raise _chain_error(
                path, lineno, f"expected seq {len(scan.records)}, found "
                f"{record.seq} (entries dropped, duplicated or reordered)",
                schema=schema_tag)
        if record.prev != scan.head:
            raise _chain_error(
                path, lineno, f"prev digest {record.prev!r} does not "
                f"match the preceding entry's digest {scan.head!r}",
                schema=schema_tag)
        return record, digest

    for lineno, (line_bytes, end_offset) in enumerate(pieces, start=1):
        try:
            entry = _verify(line_bytes, lineno)
        except ValueError as exc:  # every ArtifactError is one
            scan.error, scan.damage_lineno = exc, lineno
            scan.torn_tail = not any(
                _parses_as_envelope(rest, schema_name)
                for rest, _ in pieces[lineno:])
            break
        if entry is not None:  # blank lines are chain-neutral
            scan.records.append(entry[0])
            scan.head = entry[1]
        scan.valid_bytes = end_offset
    return scan


def read_chained_journal(path: Union[str, Path], *,
                         schema_name: str = EVENT_LOG_SCHEMA_NAME,
                         ) -> Tuple[List[EventRecord], Optional[str]]:
    """Read + verify one digest-chained journal file end to end.

    Returns ``(records, head_digest)`` where ``head_digest`` is the last
    entry's payload sha256 (``None`` for an empty journal) — exactly
    what an appender needs to continue the chain.  This is
    :func:`scan_journal` with no damage allowed: the first line that
    fails the artifact boundary (digest + spec) or the chain (contiguous
    ``seq`` from 0, each ``prev`` equal to the previous entry's digest)
    raises the typed :class:`~repro.errors.ArtifactError` the scan
    stopped at.
    """
    scan = scan_journal(path, schema_name=schema_name)
    if scan.error is not None:
        raise scan.error
    return scan.records, scan.head


def read_journal(path: Union[str, Path],
                 ) -> Tuple[List[EventRecord], Optional[str]]:
    """Read + verify one flight-recorder journal (``repro.event-log/v1``).

    The event-log specialisation of :func:`read_chained_journal` — see
    there for the chain contract.
    """
    return read_chained_journal(path, schema_name=EVENT_LOG_SCHEMA_NAME)


# -- damage triage + suffix-cut repair -------------------------------------

def _parses_as_envelope(line_bytes: bytes, schema_name: str) -> bool:
    """Does this line alone verify as a complete signed entry?

    Used by :func:`scan_journal` to distinguish a torn tail (nothing
    committed lies past the break) from interior damage (it does).
    Chain linkage is deliberately not checked — a committed entry past a
    garbled line still chains to the *damaged* entry's digest, which can
    no longer be verified.
    """
    try:
        line = line_bytes.decode("utf-8")
        if not line.strip():
            return False
        envelope = parse_artifact_text(line)
        ARTIFACTS.load_dict(envelope, schema_name)
        return isinstance(envelope, dict) \
            and isinstance(envelope.get(DIGEST_KEY), str)
    except (CorruptArtifactError, ValueError):
        return False


def repair_journal_tail(path: Union[str, Path], *,
                        schema_name: str = EVENT_LOG_SCHEMA_NAME,
                        ) -> JournalScan:
    """Suffix-cut a torn journal tail in place (the provably-safe repair).

    Returns the post-repair scan.  A clean journal is returned
    untouched; a torn tail (see :class:`JournalScan`) is truncated back
    to the valid prefix and fsync'd.  Interior damage raises
    :class:`~repro.errors.CorruptArtifactError` — discarding committed
    entries is never safe, the caller must quarantine the file.

    Safety argument: every entry in the valid prefix was fully written
    and verifies; everything past it parses as no complete envelope, so
    it can only be the partial final append of a writer that died
    mid-``write`` — an append whose :meth:`EventJournal.emit` never
    returned, hence was never acknowledged to any caller.
    """
    scan = scan_journal(path, schema_name=schema_name)
    if scan.clean:
        return scan
    if not scan.torn_tail:
        raise CorruptArtifactError(
            f"journal damage at line {scan.damage_lineno} is not a torn "
            f"tail (committed entries exist past the break): "
            f"{scan.damage}", source=path,
            schema=f"{schema_name}/v{ARTIFACTS.get(schema_name).version}")
    with open(scan.path, "r+b") as handle:
        handle.truncate(scan.valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    return scan_journal(path, schema_name=schema_name)


# -- the append-only writer ------------------------------------------------

class EventJournal:
    """Append-only, digest-chained journal writer.

    Open with :meth:`open` (``resume=True`` verifies an existing file
    and continues its chain — the same same-path discipline as
    ``--checkpoint``/``--resume``).  Every :meth:`emit` writes one fully
    signed envelope line and flushes, so a kill at any instant leaves a
    valid (merely shorter) chain.  The journal is coordinator-local:
    entries emitted from a forked worker process are refused (the pid
    guard), keeping the chain single-writer by construction.

    Subclasses may override ``SCHEMA_NAME`` and ``RECORD_TYPE`` to chain
    a different closed event taxonomy under a different artifact schema
    (the campaign checkpoint's
    :class:`~repro.traffic.checkpoint.CheckpointLog` does exactly this);
    the append/verify machinery is shared.  A subclass that must survive
    power loss, not just a killed process, sets ``FSYNC`` (the
    checkpoint log does), and ``CHAOS_POINT`` renames its
    ``REPRO_FS_CHAOS`` write point (:mod:`repro.io.faults`).
    """

    SCHEMA_NAME: ClassVar[str] = EVENT_LOG_SCHEMA_NAME
    RECORD_TYPE: ClassVar[type] = EventRecord
    FSYNC: ClassVar[bool] = False
    CHAOS_POINT: ClassVar[Optional[str]] = None

    def __init__(self, path: Path, handle, seq: int,
                 head: Optional[str], size: int = 0) -> None:
        self._path = Path(path)
        self._handle = handle
        self._seq = seq
        self._head = head
        self._size = size
        self._pid = os.getpid()
        self._poisoned = False
        self._observers: List[Callable[[EventRecord], None]] = []

    @classmethod
    def open(cls, path: Union[str, Path], *,
             resume: bool = False) -> "EventJournal":
        path = Path(path)
        if path.exists():
            if not resume:
                raise FileExistsError(
                    f"event journal {path} already exists; pass "
                    f"resume=True (CLI: --resume) to continue its chain, "
                    f"or remove it to start over")
            records, head = read_chained_journal(
                path, schema_name=cls.SCHEMA_NAME)
            return cls.reopen(path, len(records), head,
                              path.stat().st_size)
        path.parent.mkdir(parents=True, exist_ok=True)
        return cls(path, path.open("a", encoding="utf-8"), 0, None)

    @classmethod
    def reopen(cls, path: Union[str, Path], seq: int, head: Optional[str],
               size: int) -> "EventJournal":
        """Continue a chain already verified up to byte ``size``.

        ``seq`` entries end at digest ``head``.  Bytes past ``size`` can
        only be the residue of an append that failed and was never
        acknowledged, so they are cut first — appending past them would
        turn a torn tail into interior damage.  A crash can also tear
        off the final line's newline terminator while leaving the entry
        itself complete; it is restored, or the next entry would
        concatenate onto the last one and corrupt the chain.
        """
        path = Path(path)
        with path.open("r+b") as tail:
            if tail.seek(0, os.SEEK_END) != size:
                tail.truncate(size)
            if size:
                tail.seek(size - 1)
                if tail.read(1) != b"\n":
                    tail.write(b"\n")
                    size += 1
        return cls(path, path.open("a", encoding="utf-8"), seq, head, size)

    @property
    def path(self) -> Path:
        return self._path

    @property
    def seq(self) -> int:
        """The next entry's sequence number."""
        return self._seq

    @property
    def head(self) -> Optional[str]:
        """The last written entry's payload digest (``None`` if empty)."""
        return self._head

    @property
    def size(self) -> int:
        """Bytes in the file up to the end of the last written entry."""
        return self._size

    @property
    def pid(self) -> int:
        return self._pid

    def add_observer(self, observer: Callable[[EventRecord], None]) -> None:
        """Call ``observer(record)`` after every successful append (the
        flight recorder's live-status hook)."""
        self._observers.append(observer)

    def emit(self, kind: str,
             data: Optional[Mapping[str, object]] = None) -> EventRecord:
        """Append one event and advance the chain.

        A failed append **poisons** the journal: the handle is closed
        and every later :meth:`emit` raises.  This is deliberate — after
        a torn or errored write the file may end in a damaged fragment,
        and appending past it would turn a provably-safe suffix cut
        (:func:`repair_journal_tail` truncates the torn tail) into
        unrepairable interior damage.  The chain state
        (``seq``/``head``) is never advanced on failure.
        """
        if os.getpid() != self._pid:
            raise RuntimeError(
                f"event journal {self._path} crossed a process boundary "
                f"(opened in pid {self._pid}, emit from {os.getpid()}); "
                f"the chain is single-writer")
        if self._handle is None:
            raise ValueError(f"event journal {self._path} is closed"
                             + (" (poisoned by an earlier failed append)"
                                if self._poisoned else ""))
        record = type(self).RECORD_TYPE(
            seq=self._seq, ts_utc=_utc_now(), kind=kind,
            data=dict(data or {}), prev=self._head)
        envelope = ARTIFACTS.dump_dict(type(self).SCHEMA_NAME, record,
                                       source=self._path)
        # ASCII (``ensure_ascii``), so its length is its size in bytes.
        line = json.dumps(envelope, sort_keys=True,
                          separators=(",", ":")) + "\n"
        point = (type(self).CHAOS_POINT
                 or f"journal-append:{type(self).SCHEMA_NAME}")
        try:
            fault = fs_chaos(point)
            if fault == "enospc":
                raise fs_fault(fault, point)
            if fault == "torn":
                # A prefix of the line lands, then the write errors —
                # the journal now ends in a genuinely torn tail.
                self._handle.write(line[:max(1, len(line) // 2)])
                self._handle.flush()
                raise fs_fault(fault, point)
            self._handle.write(line)
            self._handle.flush()
            if type(self).FSYNC:
                os.fsync(self._handle.fileno())
            if fault in ("eio", "shortfsync"):
                # The line is on disk but the durability step "failed":
                # for ``eio`` the chain must not advance (the caller
                # retries or degrades); the suffix-cut repair handles
                # the maybe-durable last line either way.
                raise fs_fault(fault, point)
        except OSError:
            self._poison()
            raise
        self._head = envelope[DIGEST_KEY]  # type: ignore[assignment]
        self._seq += 1
        self._size += len(line)
        for observer in self._observers:
            observer(record)
        return record

    def _poison(self) -> None:
        """Close the handle after a failed append (see :meth:`emit`)."""
        self._poisoned = True
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - double-fault close
                pass
            self._handle = None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# -- the no-op disabled path ----------------------------------------------

_ACTIVE_JOURNAL: Optional[EventJournal] = None


def active_journal() -> Optional[EventJournal]:
    """The installed journal, or ``None`` — the emission-site guard."""
    return _ACTIVE_JOURNAL


def journal_event(kind: str, /, **data: object) -> Optional[EventRecord]:
    """Emit one event iff a journal is installed *in this process*.

    The disabled path is one module-global read and a ``None`` check —
    the exact :func:`~repro.obs.session.active_session` discipline.  In
    a forked worker the inherited journal is silently skipped (pid
    guard), and an emission failure (disk full, closed handle) degrades
    to a ``RuntimeWarning``: observability must never abort a campaign.
    """
    journal = _ACTIVE_JOURNAL
    if journal is None:
        return None
    if os.getpid() != journal.pid:
        return None
    try:
        return journal.emit(kind, data)
    except Exception as exc:  # noqa: BLE001 - recording is best-effort
        warnings.warn(
            f"event journal emit failed ({type(exc).__name__}: {exc}); "
            f"continuing without this entry",
            RuntimeWarning, stacklevel=2)
        return None


@contextmanager
def recording_journal(journal: EventJournal) -> Iterator[EventJournal]:
    """Install ``journal`` as the process-wide emission target.

    Re-entrant like :func:`~repro.obs.session.telemetry_session`: the
    previous journal (if any) is saved and restored, so nested scopes
    compose.  Closing the journal is the caller's business — this only
    manages the module global.
    """
    global _ACTIVE_JOURNAL
    previous = _ACTIVE_JOURNAL
    _ACTIVE_JOURNAL = journal
    try:
        yield journal
    finally:
        _ACTIVE_JOURNAL = previous


# -- replay ----------------------------------------------------------------

@dataclass
class JournalReplay:
    """What a verified journal reconstructs about its campaign.

    ``chunks`` maps chunk index → the *latest* chunk event's data for
    that index (``chunk.committed`` and ``chunk.restored`` carry the
    same counter payload; on a resumed journal the restored re-emission
    simply confirms the earlier commit).  All totals derive from it in
    chunk-index order, so replay is independent of completion order —
    the same invariance the merge contract gives the real campaign.
    ``campaign`` and ``resumed_from`` are the latest
    ``campaign.started`` and ``campaign.resumed`` payloads.
    """

    campaign: Dict[str, object] = field(default_factory=dict)
    chunks: Dict[int, Dict[str, object]] = field(default_factory=dict)
    failures: List[Dict[str, object]] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    quarantined: List[int] = field(default_factory=list)
    pool_rebuilds: int = 0
    pool_degraded: bool = False
    checkpoint_commits: int = 0
    verdicts: Dict[str, str] = field(default_factory=dict)
    degeneracy_alarms: List[Dict[str, object]] = field(default_factory=list)
    started: int = 0
    resumed: int = 0
    resumed_from: Optional[Dict[str, object]] = None
    finished: Optional[Dict[str, object]] = None
    failed: Optional[Dict[str, object]] = None

    def observe(self, record: EventRecord) -> None:
        """Fold one entry in: the one per-kind dispatch over the journal.

        Replay folds a file through it; the flight recorder folds every
        entry its journal writes, so its live status is this replay.
        """
        data = dict(record.data)
        kind = record.kind
        if kind == "campaign.started":
            self.started += 1
            self.campaign = data
        elif kind == "campaign.resumed":
            self.resumed += 1
            self.resumed_from = data
        elif kind == "campaign.finished":
            self.finished = data
        elif kind == "campaign.failed":
            self.failed = data
        elif kind in ("chunk.committed", "chunk.restored"):
            self.chunks[int(data["chunk_index"])] = data  # type: ignore[arg-type]
        elif kind == "chunk.failed":
            self.failures.append(data)
            if data.get("kind") == "timeout":
                self.timeouts += 1
        elif kind == "chunk.retry":
            self.retries += 1
        elif kind == "chunk.quarantined":
            self.quarantined.append(int(data["chunk_index"]))  # type: ignore[arg-type]
        elif kind == "pool.rebuilt":
            self.pool_rebuilds += 1
        elif kind == "pool.degraded":
            self.pool_degraded = True
        elif kind == "checkpoint.committed":
            self.checkpoint_commits += 1
        elif kind == "budget.verdict":
            self.verdicts[str(data["budget_id"])] = str(data["verdict"])
        elif kind == "degeneracy.alarm":
            self.degeneracy_alarms.append(data)

    def _chunk_values(self, key: str) -> List[object]:
        return [self.chunks[index][key] for index in sorted(self.chunks)]

    @property
    def hours(self) -> float:
        """fsum-pooled exposure over all chunks, in index order."""
        return math.fsum(float(v)  # type: ignore[arg-type]
                         for v in self._chunk_values("hours"))

    @property
    def encounters_resolved(self) -> int:
        return sum(int(v) for v in self._chunk_values("encounters"))  # type: ignore[call-overload]

    @property
    def incidents_found(self) -> int:
        return sum(int(v) for v in self._chunk_values("records"))  # type: ignore[call-overload]

    @property
    def collisions(self) -> int:
        return sum(int(v) for v in self._chunk_values("collisions"))  # type: ignore[call-overload]

    @property
    def hard_braking_demands(self) -> int:
        return sum(int(v)  # type: ignore[call-overload]
                   for v in self._chunk_values("hard_braking_demands"))

    def type_counts(self) -> Dict[str, int]:
        """Classified incident counts summed over chunks (exact)."""
        counts: Dict[str, int] = {}
        for index in sorted(self.chunks):
            for type_id, count in dict(
                    self.chunks[index].get("type_counts", {})).items():  # type: ignore[call-overload]
                counts[type_id] = counts.get(type_id, 0) + int(count)  # type: ignore[arg-type]
        return counts

    def budget_report(self, goals):
        """The verdict table over every chunk the journal holds.

        :func:`~repro.core.verification.verify_against_counts` of the
        exactly summed type counts over the fsum-pooled hours: the call
        a manifest makes on the merged campaign, so the replayed table
        is *bit-for-bit* the manifest's (the replay ≡ manifest invariant
        the flight-recorder tests pin).
        """
        # Lazy: core.verification → stats → stats.parallel → repro.obs.
        from ..core.verification import verify_against_counts

        return verify_against_counts(goals, self.type_counts(), self.hours)


def replay_journal(events: Union[str, Path, Sequence[EventRecord]],
                   ) -> JournalReplay:
    """Fold a journal (path or pre-read records) into a :class:`JournalReplay`.

    A path is first verified end to end by :func:`read_journal` — a
    broken chain never replays.  Chunk events deduplicate by index with
    the latest occurrence winning, which is what makes a kill-and-resume
    journal (run 1's commits + run 2's restores + run 2's commits)
    replay to exactly one record per chunk.
    """
    if isinstance(events, (str, Path)):
        records, _ = read_journal(events)
    else:
        records = list(events)
    replay = JournalReplay()
    for record in records:
        replay.observe(record)
    return replay


# -- artifact schema registration ------------------------------------------

def _load_event(data: Mapping[str, object]) -> EventRecord:
    return EventRecord(
        seq=int(data["seq"]),  # type: ignore[arg-type]
        ts_utc=str(data["ts_utc"]),
        kind=str(data["kind"]),
        data=dict(data["data"]),  # type: ignore[call-overload]
        prev=(None if data["prev"] is None else str(data["prev"])),
    )


def _example_event() -> EventRecord:
    """A small deterministic entry for the fuzz tier."""
    return EventRecord(
        seq=3, ts_utc="2026-01-01T00:00:00+00:00", kind="chunk.committed",
        data={"chunk_index": 3, "hours": 125.0, "encounters": 1351,
              "records": 21, "collisions": 1, "hard_braking_demands": 1,
              "type_counts": {"I3": 1, "I7": 2}},
        prev="sha256:" + "ab" * 32)


_EVENT_SPEC = Record(required={
    "seq": Int(),
    "ts_utc": Str(),
    "kind": Str(),
    "data": MapOf(Json()),
    "prev": NullOr(Str()),
})

register_artifact(ArtifactSchema(
    name=EVENT_LOG_SCHEMA_NAME,
    version=1,
    spec=_EVENT_SPEC,
    load=_load_event,
    dump=EventRecord.to_dict,
    label="event-log entry",
    example=_example_event,
))
