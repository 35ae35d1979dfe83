"""Columnar incident-record blocks: the zero-copy record path.

Fleet-scale QRN campaigns (1e5–1e6+ simulated hours, cf. de Gelder &
Op den Camp; Putze et al.) produce incident streams whose dominant cost
is not the kinematics but the *bookkeeping*: materialising one
:class:`~repro.core.incident.IncidentRecord` Python object per incident,
pickling those objects across the process pool, and re-sorting them
row-by-row at every merge.  A :class:`RecordBlock` keeps the records in
a single structured-numpy array instead:

* **fixed dtype** (:data:`RECORD_DTYPE`) covering every
  ``IncidentRecord`` dataclass field — a reflection test pins the
  one-to-one field coverage, so adding a field without updating the
  columnar path fails loudly;
* **explicit string-enum encoding tables**: counterpart classes encode
  through the process-wide :data:`ACTOR_TABLE` (every
  :class:`~repro.core.taxonomy.ActorClass`, sorted by name so code
  order equals name order), contexts through a per-block sorted
  ``context_table`` — both directions are total and loss-free;
* **canonical form**: a block's context table is always sorted and
  pruned to the contexts actually present, so two blocks holding the
  same logical records are array-equal, and the canonical record sort
  (:meth:`RecordBlock.canonical_sort`) is one stable ``np.lexsort``
  over every field;
* **O(1)-per-block merge**: :meth:`RecordBlock.concat` concatenates
  arrays and remaps context codes — no per-row Python objects anywhere.

Two transports move blocks between processes (DESIGN §12):

* :func:`ship_block` / :func:`receive_block` pass the raw block bytes
  through ``multiprocessing.shared_memory`` — the worker copies once
  into a named segment and ships only a tiny :class:`ShippedBlock`
  handle; the coordinator attaches, copies out, closes and **unlinks**.
  The segment stays registered with the ``resource_tracker`` the pool
  shares with the coordinator until that unlink, so a segment whose
  handle never arrives (Ctrl-C, a chunk timeout) is reclaimed when the
  coordinator exits.
* the pickle fallback: a block-backed result pickles as one numpy
  array, still far cheaper than per-record objects.  Any shm failure
  (platform without ``/dev/shm``, exhausted segments) degrades to it
  per chunk, never aborting the campaign.

For bounded-memory campaigns a :class:`RecordSink` spills blocks to
disk behind the :mod:`repro.io` boundary: each part is an atomic,
digest-signed ``repro.record-block/v1`` artifact, so a spilled campaign
re-loads with the same corruption detection as checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.incident import IncidentRecord, IncidentType
from ..core.taxonomy import ActorClass
from ..io.artifact import ARTIFACTS, ArtifactSchema, register_artifact
from ..io.validate import Bool, Int, ListOf, Number, Record, Str

__all__ = [
    "RECORD_DTYPE", "ACTOR_TABLE", "RecordBlock", "ShippedBlock",
    "ship_block", "receive_block", "shm_available", "block_type_masks",
    "classify_block_counts", "RecordSink", "iter_record_blocks",
    "load_record_blocks", "RECORD_BLOCK_SCHEMA", "RECORD_BLOCK_SCHEMA_NAME",
    "SHM_NAME_PREFIX",
]

ACTOR_TABLE: Tuple[ActorClass, ...] = tuple(
    sorted(ActorClass, key=lambda cls: cls.name))
"""The fixed counterpart encoding table: every :class:`ActorClass`,
sorted by enum name.  Code order therefore equals name order, which is
what lets the canonical sort compare raw ``uint8`` codes where the
object path compares ``counterpart.name`` strings."""

_ACTOR_CODES: Dict[ActorClass, int] = {
    cls: code for code, cls in enumerate(ACTOR_TABLE)}
_ACTOR_CODES_BY_NAME: Dict[str, int] = {
    cls.name: code for code, cls in enumerate(ACTOR_TABLE)}

RECORD_DTYPE = np.dtype([
    ("counterpart", np.uint8),       # code into ACTOR_TABLE
    ("is_collision", np.bool_),
    ("delta_v_kmh", np.float64),
    ("min_distance_m", np.float64),
    ("approach_speed_kmh", np.float64),
    ("time_h", np.float64),
    ("context", np.uint16),          # code into the block's context_table
    ("induced", np.bool_),
])
"""One column per :class:`IncidentRecord` field, in declaration order.
``tests/traffic/test_records.py`` asserts the coverage reflectively."""

_FLOAT_COLUMNS = ("delta_v_kmh", "min_distance_m", "approach_speed_kmh",
                  "time_h")
_FLOAT_OFFSET = RECORD_DTYPE.fields[_FLOAT_COLUMNS[0]][1]
assert all(RECORD_DTYPE.fields[name] == (np.dtype(np.float64),
                                         _FLOAT_OFFSET + 8 * i)
           for i, name in enumerate(_FLOAT_COLUMNS)), (
    "record_floats needs the float columns back to back")

SHM_NAME_PREFIX = "repro-blk-"
"""Shared-memory segments are named ``repro-blk-<pid>-<seq>`` so an
operator can recognise (and, after a hard kill, clean) them in
``/dev/shm``."""

_shm_sequence = 0


def actor_code(counterpart: ActorClass) -> int:
    """The fixed ``uint8`` code of one counterpart class."""
    return _ACTOR_CODES[counterpart]


def record_floats(array: np.ndarray) -> np.ndarray:
    """The float columns of a record array as one ``(n, 4)`` view.

    Columns in ``RECORD_DTYPE`` order — Δv, minimum distance, approach
    speed, time — which the dtype lays out back to back, so one
    reduction covers every float of a block.
    """
    array = np.ascontiguousarray(array)
    if not len(array):
        return np.empty((0, len(_FLOAT_COLUMNS)))
    return np.ndarray((len(array), len(_FLOAT_COLUMNS)), np.float64, array,
                      _FLOAT_OFFSET, (array.itemsize, 8))


class RecordBlock:
    """An immutable-by-convention columnar batch of incident records.

    ``array`` is a structured array of :data:`RECORD_DTYPE`;
    ``context_table`` decodes the ``context`` column.  Construction
    canonicalises: the table is sorted and pruned to the codes actually
    present (re-coding the column as needed), so logical equality of
    record content implies array equality — the property both
    :meth:`__eq__` and the digest-signed spill format rely on.
    """

    __slots__ = ("array", "context_table")

    def __init__(self, array: np.ndarray,
                 context_table: Sequence[str]) -> None:
        if array.dtype != RECORD_DTYPE:
            raise ValueError(
                f"record block array must have RECORD_DTYPE, got "
                f"{array.dtype}")
        if array.ndim != 1:
            raise ValueError("record block array must be one-dimensional")
        table = tuple(str(context) for context in context_table)
        if len(set(table)) != len(table):
            raise ValueError(f"context table has duplicates: {table}")
        if len(array):
            codes = array["context"]
            max_code = int(codes.max())
            if max_code >= len(table):
                raise ValueError(
                    f"context code {max_code} outside table of "
                    f"{len(table)} entries")
            used = np.unique(codes)
            canonical = tuple(sorted(table[int(code)] for code in used))
            if canonical != table:
                remap = np.zeros(len(table), dtype=np.uint16)
                new_codes = {context: code
                             for code, context in enumerate(canonical)}
                for old_code in used:
                    remap[int(old_code)] = \
                        new_codes[table[int(old_code)]]
                array = array.copy()
                array["context"] = remap[codes]
                table = canonical
        else:
            table = ()
        self.array = array
        self.context_table = table

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "RecordBlock":
        return cls(np.empty(0, dtype=RECORD_DTYPE), ())

    @classmethod
    def from_columns(cls, *, counterpart: np.ndarray,
                     is_collision: np.ndarray, delta_v_kmh: np.ndarray,
                     min_distance_m: np.ndarray,
                     approach_speed_kmh: np.ndarray, time_h: np.ndarray,
                     context: np.ndarray,
                     context_table: Sequence[str],
                     induced: np.ndarray) -> "RecordBlock":
        """Assemble a block from ready-made column arrays (hot path)."""
        n = len(time_h)
        array = np.empty(n, dtype=RECORD_DTYPE)
        array["counterpart"] = counterpart
        array["is_collision"] = is_collision
        array["delta_v_kmh"] = delta_v_kmh
        array["min_distance_m"] = min_distance_m
        array["approach_speed_kmh"] = approach_speed_kmh
        array["time_h"] = time_h
        array["context"] = context
        array["induced"] = induced
        return cls(array, context_table)

    @classmethod
    def from_records(cls, records: Iterable[IncidentRecord]) -> "RecordBlock":
        """Encode materialised records: the boundary where the scalar
        engine's and a checkpoint load's record lists become columnar."""
        records = list(records)
        if not records:
            return cls.empty()
        table = tuple(sorted({record.context for record in records}))
        codes = {context: code for code, context in enumerate(table)}
        array = np.empty(len(records), dtype=RECORD_DTYPE)
        for i, record in enumerate(records):
            array[i] = (_ACTOR_CODES[record.counterpart],
                        record.is_collision, record.delta_v_kmh,
                        record.min_distance_m, record.approach_speed_kmh,
                        record.time_h, codes[record.context],
                        record.induced)
        return cls(array, table)

    @classmethod
    def concat(cls, blocks: Sequence["RecordBlock"]) -> "RecordBlock":
        """Concatenate blocks, remapping context codes into one table.

        O(total rows) array work, zero per-row Python objects — this is
        the merge primitive behind ``SimulationResult.merge_many``.
        """
        blocks = [block for block in blocks if len(block)]
        if not blocks:
            return cls.empty()
        if len(blocks) == 1:
            return blocks[0]
        table = tuple(sorted(
            {context for block in blocks for context in block.context_table}))
        codes = {context: code for code, context in enumerate(table)}
        parts: List[np.ndarray] = []
        for block in blocks:
            part = block.array
            if block.context_table != table:
                remap = np.array(
                    [codes[context] for context in block.context_table],
                    dtype=np.uint16)
                part = part.copy()
                part["context"] = remap[part["context"]]
            parts.append(part)
        return cls(np.concatenate(parts), table)

    # -- core protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.array.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBlock):
            return NotImplemented
        return (self.context_table == other.context_table
                and np.array_equal(self.array, other.array))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"RecordBlock(<{len(self)} records>, "
                f"contexts={list(self.context_table)})")

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def collision_count(self) -> int:
        return int(np.count_nonzero(self.array["is_collision"]))

    # -- canonical order --------------------------------------------------

    def canonical_order(self) -> np.ndarray:
        """The stable permutation that puts the rows in canonical order.

        Rows compare field by field in this precedence: time, context,
        counterpart, collision flag, induced flag, Δv, minimum distance,
        approach speed.  ``np.lexsort`` keys run least- to
        most-significant, so the list below is that precedence reversed.
        Context and counterpart compare by *code*, which equals comparing
        by string because both tables are sorted.  Every pass is stable,
        so rows that compare equal (bit-identical rows, or rows differing
        only in the sign of a zero) keep their input order.
        """
        return np.lexsort(self.canonical_keys())

    def canonical_keys(self) -> Tuple[np.ndarray, ...]:
        """The columns :meth:`canonical_order` sorts by, least
        significant first (``np.lexsort``'s convention)."""
        a = self.array
        return (a["approach_speed_kmh"], a["min_distance_m"],
                a["delta_v_kmh"], a["induced"], a["is_collision"],
                a["counterpart"], a["context"], a["time_h"])

    def canonical_sort(self) -> "RecordBlock":
        """The rows in :meth:`canonical_order`."""
        if len(self) <= 1:
            return self
        return RecordBlock(self.array[self.canonical_order()],
                           self.context_table)

    # -- decode -----------------------------------------------------------

    def to_records(self) -> List[IncidentRecord]:
        """Materialise the lazy object view (decode every row)."""
        if not len(self):
            return []
        table = self.context_table
        rows = self.array.tolist()  # list of plain-python tuples, fast
        return [
            IncidentRecord(
                counterpart=ACTOR_TABLE[counterpart_code],
                is_collision=is_collision,
                delta_v_kmh=delta_v_kmh,
                min_distance_m=min_distance_m,
                approach_speed_kmh=approach_speed_kmh,
                time_h=time_h,
                context=table[context_code],
                induced=induced,
            )
            for (counterpart_code, is_collision, delta_v_kmh,
                 min_distance_m, approach_speed_kmh, time_h, context_code,
                 induced) in rows
        ]

    # -- invariants -------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``ValueError`` unless every row is a valid record.

        The columnar mirror of ``IncidentRecord.__post_init__`` plus
        finiteness — the spill-format loader runs this so a corrupted
        (but re-signed) part cannot materialise invalid records later.
        """
        a = self.array
        for name in _FLOAT_COLUMNS:
            if not np.isfinite(a[name]).all():
                raise ValueError(f"record column {name} has non-finite "
                                 f"values")
        collision = a["is_collision"]
        if np.any(collision & (a["delta_v_kmh"] <= 0.0)):
            raise ValueError("a collision record needs a positive delta_v")
        if np.any(~collision & (a["min_distance_m"] <= 0.0)):
            raise ValueError(
                "a non-collision record needs a positive distance")


def _record_fields() -> Tuple[str, ...]:
    return tuple(field.name for field in dataclass_fields(IncidentRecord))


assert set(RECORD_DTYPE.names) == set(_record_fields()), (
    "RECORD_DTYPE must cover every IncidentRecord field; update "
    "repro.traffic.records alongside repro.core.incident")


# -- columnar classification ---------------------------------------------

def _type_mask(block: RecordBlock, itype: IncidentType) -> np.ndarray:
    """Vectorised :meth:`IncidentType.matches` over one block."""
    a = block.array
    mask = ((a["induced"] == itype.induced)
            & (a["counterpart"] == _ACTOR_CODES[itype.counterpart]))
    margin = itype.margin
    if itype.is_collision_type:
        dv = a["delta_v_kmh"]
        return (mask & a["is_collision"]
                & (margin.low_kmh < dv) & (dv <= margin.high_kmh))
    distance = a["min_distance_m"]
    return (mask & ~a["is_collision"]
            & (0.0 < distance) & (distance < margin.max_distance_m)
            & (a["approach_speed_kmh"] > margin.min_approach_speed_kmh))


def block_type_masks(block: RecordBlock,
                     types: Sequence[IncidentType],
                     ) -> Dict[str, np.ndarray]:
    """Per-type membership masks, plus ``"<unclassified>"``.

    The columnar :func:`~repro.core.incident.classify_records`: same
    buckets, same mutual-exclusivity failure (a record matching several
    types raises ``ValueError`` naming the owners), no per-record
    object construction.
    """
    types = list(types)
    masks = {itype.type_id: _type_mask(block, itype) for itype in types}
    if masks:
        owners = np.zeros(len(block), dtype=np.int64)
        for mask in masks.values():
            owners += mask
        if np.any(owners > 1):
            index = int(np.argmax(owners > 1))
            record = block.to_records()[index]
            owner_ids = [itype.type_id for itype in types
                         if masks[itype.type_id][index]]
            raise ValueError(
                f"record {record} matches multiple incident types "
                f"{owner_ids}; types must be mutually exclusive")
        masks["<unclassified>"] = owners == 0
    else:
        masks["<unclassified>"] = np.ones(len(block), dtype=bool)
    return masks


def classify_block_counts(block: RecordBlock,
                          types: Sequence[IncidentType],
                          ) -> Tuple[Dict[str, int], int]:
    """``(per-type counts, unclassified count)`` for one block."""
    masks = block_type_masks(block, types)
    unclassified = int(np.count_nonzero(masks.pop("<unclassified>")))
    return {type_id: int(np.count_nonzero(mask))
            for type_id, mask in masks.items()}, unclassified


# -- shared-memory transport ----------------------------------------------

def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is importable here."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - all POSIX builds have it
        return False
    return True


def _untrack_shm(shm: object) -> None:
    """Drop the ``resource_tracker`` registration of a vanished segment.

    ``unlink()`` unregisters only after a successful ``shm_unlink``; when
    someone else already removed the segment, the registration made at
    creation (and attachment) would make the tracker retry the unlink at
    exit and warn.  The tracker stores the *internal* name (``_name``,
    leading slash included on most platforms), so that is what must be
    unregistered — ``shm.name`` strips the slash.  Best-effort: a
    tracker refactor degrades to warnings, never to lost data.
    """
    try:  # pragma: no cover - interpreter-internals dependent
        from multiprocessing import resource_tracker
        name = getattr(shm, "_name", None) or shm.name  # type: ignore[attr-defined]
        resource_tracker.unregister(name, "shared_memory")
    except Exception:
        pass


@dataclass(frozen=True)
class ShippedBlock:
    """Handle to a record block parked in a shared-memory segment.

    What actually crosses the process boundary under shm transport: the
    segment name plus the metadata needed to reconstruct the block
    (row count and context table).  ``nbytes`` is the payload size, for
    the ``parallel.bytes_shipped`` telemetry counter.
    """

    shm_name: str
    length: int
    context_table: Tuple[str, ...]
    nbytes: int


def ship_block(block: RecordBlock) -> ShippedBlock:
    """Copy one block into a fresh shared-memory segment (worker side).

    The segment is closed but **not** unlinked here — ownership passes
    to the coordinator, whose :func:`receive_block` unlinks after
    copying out.  Creation registers it with the pool's shared
    ``resource_tracker``, which reclaims it at exit if the handle is
    never received.  Raises on any shm failure; callers fall back to
    pickle transport.
    """
    from multiprocessing import shared_memory
    import os

    global _shm_sequence
    _shm_sequence += 1
    name = f"{SHM_NAME_PREFIX}{os.getpid()}-{_shm_sequence}"
    shm = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(block.nbytes, 1))
    try:
        view = np.ndarray(len(block), dtype=RECORD_DTYPE, buffer=shm.buf)
        view[:] = block.array
        del view
    finally:
        shm.close()
    return ShippedBlock(shm_name=name, length=len(block),
                        context_table=block.context_table,
                        nbytes=block.nbytes)


def receive_block(shipped: ShippedBlock) -> RecordBlock:
    """Attach, copy out, close and unlink (coordinator side)."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shipped.shm_name)
    try:
        view = np.ndarray(shipped.length, dtype=RECORD_DTYPE,
                          buffer=shm.buf)
        array = np.array(view, dtype=RECORD_DTYPE)
        del view
    finally:
        shm.close()
        try:
            # unlink() also drops the segment's resource_tracker
            # registration (made at creation, repeated on attachment).
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            _untrack_shm(shm)
    return RecordBlock(array, shipped.context_table)


# -- spill-to-disk record sink --------------------------------------------

RECORD_BLOCK_SCHEMA_NAME = "repro.record-block"
RECORD_BLOCK_SCHEMA = f"{RECORD_BLOCK_SCHEMA_NAME}/v1"


class RecordSink:
    """Spill incident-record blocks to digest-signed part files.

    The bounded-resident-memory leg of ROADMAP item 5: a campaign feeds
    each committed chunk's block to :meth:`append`; the sink either
    writes it straight to its own part file (when ``key`` is given —
    the fleet passes the chunk index, making the file layout
    deterministic regardless of completion order) or buffers until
    ``max_resident_records`` and flushes one sequence-numbered part.
    Every part is one ``repro.record-block/v1`` artifact written
    atomically through :data:`~repro.io.ARTIFACTS`, so spilled records
    get the same corruption detection as checkpoints.

    The sink keeps O(chunk) resident memory and running totals
    (:meth:`summary`), so a caller that drops the in-memory records
    entirely still reports counts.
    """

    def __init__(self, directory: "Path | str", *,
                 max_resident_records: int = 65536,
                 prefix: str = "records") -> None:
        if max_resident_records < 1:
            raise ValueError(
                f"max_resident_records must be >= 1, got "
                f"{max_resident_records}")
        if not prefix or "/" in prefix:
            raise ValueError(f"invalid sink prefix {prefix!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_resident_records = int(max_resident_records)
        self.prefix = prefix
        self._buffer: List[RecordBlock] = []
        self._buffered = 0
        self._sequence = 0
        self._parts: List[Path] = []
        self.total_records = 0
        self.total_collisions = 0
        self.bytes_written = 0

    # -- writing ----------------------------------------------------------

    def _write_part(self, name: str, block: RecordBlock) -> None:
        path = self.directory / f"{name}.json"
        ARTIFACTS.save(path, RECORD_BLOCK_SCHEMA_NAME, block)
        self._parts.append(path)
        self.bytes_written += path.stat().st_size

    def append(self, block: RecordBlock,
               *, key: Optional[int] = None) -> None:
        """Accept one block; spill immediately (keyed) or via buffer."""
        if not isinstance(block, RecordBlock):
            raise TypeError(
                f"expected RecordBlock, got {type(block).__name__}")
        self.total_records += len(block)
        self.total_collisions += block.collision_count
        if key is not None:
            if key < 0:
                raise ValueError(f"sink key must be >= 0, got {key}")
            self._write_part(f"{self.prefix}-chunk-{int(key):06d}", block)
            return
        if not len(block):
            return
        self._buffer.append(block)
        self._buffered += len(block)
        if self._buffered >= self.max_resident_records:
            self.flush()

    def flush(self) -> None:
        """Spill any buffered (un-keyed) blocks as one part."""
        if not self._buffer:
            return
        block = RecordBlock.concat(self._buffer)
        self._buffer = []
        self._buffered = 0
        self._write_part(f"{self.prefix}-part-{self._sequence:06d}", block)
        self._sequence += 1

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "RecordSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- inspection -------------------------------------------------------

    @property
    def parts(self) -> Tuple[Path, ...]:
        return tuple(self._parts)

    def summary(self) -> Dict[str, object]:
        return {
            "directory": str(self.directory),
            "parts": len(self._parts),
            "records": self.total_records,
            "collisions": self.total_collisions,
            "bytes_written": self.bytes_written,
        }


def iter_record_blocks(directory: "Path | str",
                       prefix: str = "records",
                       ) -> Iterator[RecordBlock]:
    """Load every sink part under ``directory``, in filename order.

    Filename order is chunk-index order for keyed parts and flush order
    for buffered parts, so re-merging iterated blocks reproduces the
    campaign's canonical record stream after one
    :meth:`RecordBlock.concat` + :meth:`RecordBlock.canonical_sort`.
    """
    directory = Path(directory)
    for path in sorted(directory.glob(f"{prefix}-*.json")):
        block = ARTIFACTS.load(path, RECORD_BLOCK_SCHEMA_NAME)
        assert isinstance(block, RecordBlock)
        yield block


def load_record_blocks(directory: "Path | str",
                       prefix: str = "records") -> RecordBlock:
    """All spilled records as one canonically sorted block."""
    blocks = list(iter_record_blocks(directory, prefix))
    return RecordBlock.concat(blocks).canonical_sort()


# -- artifact schema registration ----------------------------------------

def _dump_block(block: RecordBlock) -> Dict[str, object]:
    a = block.array
    return {
        "length": len(block),
        "actor_table": [cls.name for cls in ACTOR_TABLE],
        "context_table": list(block.context_table),
        "columns": {
            "counterpart": a["counterpart"].tolist(),
            "is_collision": a["is_collision"].tolist(),
            "delta_v_kmh": a["delta_v_kmh"].tolist(),
            "min_distance_m": a["min_distance_m"].tolist(),
            "approach_speed_kmh": a["approach_speed_kmh"].tolist(),
            "time_h": a["time_h"].tolist(),
            "context": a["context"].tolist(),
            "induced": a["induced"].tolist(),
        },
    }


def _load_block(data: "Dict[str, object]") -> RecordBlock:
    length = int(data["length"])  # type: ignore[arg-type]
    actor_table = [str(name) for name in data["actor_table"]]  # type: ignore[union-attr]
    context_table = [str(ctx) for ctx in data["context_table"]]  # type: ignore[union-attr]
    columns: Dict[str, list] = dict(data["columns"])  # type: ignore[call-overload]
    for name, column in columns.items():
        if len(column) != length:
            raise ValueError(
                f"column {name} has {len(column)} entries, expected "
                f"{length}")
    # The stored actor table is authoritative for the stored codes:
    # remap through names so a table written by a different build (or a
    # fuzzer permutation) either decodes faithfully or fails loudly.
    try:
        actor_remap = np.array(
            [_ACTOR_CODES_BY_NAME[name] for name in actor_table],
            dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"unknown actor class {exc.args[0]!r} in "
                         f"actor_table") from None
    counterpart_codes = np.asarray(columns["counterpart"], dtype=np.int64)
    if length and (counterpart_codes.min() < 0
                   or counterpart_codes.max() >= len(actor_table)):
        raise ValueError("counterpart code outside actor_table")
    context_codes = np.asarray(columns["context"], dtype=np.int64)
    if length and (context_codes.min() < 0
                   or context_codes.max() >= len(context_table)):
        raise ValueError("context code outside context_table")
    for name in _FLOAT_COLUMNS:
        values = np.asarray(columns[name], dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError(f"column {name} has non-finite values")
    block = RecordBlock.from_columns(
        counterpart=actor_remap[counterpart_codes],
        is_collision=np.asarray(columns["is_collision"], dtype=bool),
        delta_v_kmh=np.asarray(columns["delta_v_kmh"], dtype=np.float64),
        min_distance_m=np.asarray(columns["min_distance_m"],
                                  dtype=np.float64),
        approach_speed_kmh=np.asarray(columns["approach_speed_kmh"],
                                      dtype=np.float64),
        time_h=np.asarray(columns["time_h"], dtype=np.float64),
        context=context_codes.astype(np.uint16),
        context_table=context_table,
        induced=np.asarray(columns["induced"], dtype=bool))
    block.check_invariants()
    return block


def _example_block() -> RecordBlock:
    """A small deterministic block for the fuzz tier."""
    return RecordBlock.from_records([
        IncidentRecord(counterpart=ActorClass.VRU, is_collision=False,
                       min_distance_m=0.75, approach_speed_kmh=14.5,
                       time_h=0.125, context="urban"),
        IncidentRecord(counterpart=ActorClass.CAR, is_collision=True,
                       delta_v_kmh=6.5, approach_speed_kmh=28.0,
                       time_h=1.5, context="highway"),
        IncidentRecord(counterpart=ActorClass.CAR, is_collision=False,
                       min_distance_m=2.25, approach_speed_kmh=33.0,
                       time_h=2.75, context="urban", induced=True),
    ])


_BLOCK_SPEC = Record(required={
    "length": Int(),
    "actor_table": ListOf(Str()),
    "context_table": ListOf(Str()),
    "columns": Record(required={
        "counterpart": ListOf(Int()),
        "is_collision": ListOf(Bool()),
        "delta_v_kmh": ListOf(Number()),
        "min_distance_m": ListOf(Number()),
        "approach_speed_kmh": ListOf(Number()),
        "time_h": ListOf(Number()),
        "context": ListOf(Int()),
        "induced": ListOf(Bool()),
    }),
})

register_artifact(ArtifactSchema(
    name=RECORD_BLOCK_SCHEMA_NAME,
    version=1,
    spec=_BLOCK_SPEC,
    load=_load_block,
    dump=_dump_block,
    label="record block",
    example=_example_block,
))
