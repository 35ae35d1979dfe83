"""Parallel fleet execution: chunked, seed-stable `simulate_mix` at scale.

The QRN's verification argument (Sec. III / Eq. 1) needs incident-type
frequencies demonstrated from large simulated fleet exposure; the rare
tails that dominate the validation burden (cf. de Gelder & Op den Camp;
Putze et al.) make the required exposures enormous.  :func:`run_fleet`
shards a fleet campaign into fixed-size hour chunks and resolves them on
a process pool, with a hard determinism contract:

    ``run_fleet(seed=s, hours=H, workers=k)`` is **bit-for-bit
    identical for every k** (including the serial ``k=1`` path).

Three mechanisms carry the contract (see :mod:`repro.stats.parallel`):
the chunk plan depends only on ``(hours, chunk_hours)``; every chunk
draws from its own ``SeedSequence.spawn`` child; and chunk results are
merged in chunk-index order through the associative/commutative
:meth:`SimulationResult.merge_many`.  Chunks are stamped onto the global
fleet timeline via ``time_offset_h``, so pooled records keep absolute
times without any post-hoc shifting.

Campaigns are fault tolerant (DESIGN §9): chunk execution runs under a
:class:`~repro.stats.fault_tolerance.RetryPolicy` (bounded retry,
per-chunk timeout, ``BrokenProcessPool`` recovery, quarantine →
:class:`~repro.stats.fault_tolerance.CampaignPartialFailure` instead of
total loss), every chunk output passes :func:`validate_chunk_output`
before it may enter the merge, and — because a retried chunk re-runs
from the same ``SeedSequence`` child — any mix of faults still yields
the bit-for-bit fault-free result.  ``checkpoint=``/``resume=`` add
kill-and-resume persistence through
:class:`~repro.traffic.checkpoint.CampaignCheckpoint`.

A :class:`FleetProgress` callback makes long campaigns observable
(chunks done, encounters resolved, incidents found) without perturbing
the result — progress arrives in completion order, the one surface the
determinism contract deliberately excludes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..obs.events import journal_event
from ..obs.profiling import profile_chunk
from ..obs.session import (TelemetrySnapshot, active_session, maybe_span,
                           telemetry_session)
from ..stats.fault_tolerance import (CampaignPartialFailure, ChunkFailure,
                                     RetryPolicy)
from ..stats.parallel import (Chunk, ChunkProgress, default_worker_count,
                              plan_chunks, run_chunked)
from .checkpoint import CampaignCheckpoint, CheckpointWriteError
from .encounters import EncounterGenerator
from .faults import BrakingSystem
from .perception import PerceptionModel
from .policy import TacticalPolicy
from .records import (RecordBlock, RecordSink, ShippedBlock, receive_block,
                      record_floats, ship_block, shm_available)
from .simulator import (SimulationConfig, SimulationResult, _check_engine,
                        simulate_mix)

__all__ = ["FleetProgress", "run_fleet", "DEFAULT_CHUNK_HOURS",
           "DEFAULT_RETRY_POLICY", "DEFAULT_MIX", "validate_chunk_output",
           "CHUNK_TRANSPORTS", "policy_by_name", "POLICY_NAMES"]

CHUNK_TRANSPORTS = ("inline", "shm", "pickle")
"""How a worker ships its chunk result back to the coordinator.

* ``"inline"`` — no process boundary (``workers=1``): the result object
  is handed over directly, untouched.
* ``"shm"`` — the record block's bytes are parked in a
  ``multiprocessing.shared_memory`` segment and only a tiny
  :class:`~repro.traffic.records.ShippedBlock` handle is pickled; the
  coordinator copies the block out and unlinks the segment.  Any shm
  failure degrades that chunk to ``"pickle"`` — never aborts.
* ``"pickle"`` — the block-backed result is pickled whole; still
  columnar (numpy arrays pickle compactly), just not zero-copy.

The coordinator counts what actually crossed the boundary:
``parallel.bytes_shipped`` accumulates payload bytes and
``parallel.transport.shm`` / ``parallel.transport.pickle`` count chunks
per transport, so the shipping cost long claimed in this module's
docstrings is measurable in every run manifest."""

DEFAULT_CHUNK_HOURS = 250.0
"""Default shard size: large enough to amortise process-pool overhead,
small enough that a typical campaign yields tens of chunks to balance."""

DEFAULT_RETRY_POLICY = RetryPolicy()
"""The fleet default: 3 attempts per chunk, exponential backoff with
jitter, no per-chunk timeout (opt in via ``retry=RetryPolicy(timeout_s=…)``
— a sensible deadline depends on the chunk size and hardware), at most
2 pool rebuilds before degrading to inline execution."""

DEFAULT_MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
"""The default context mix every campaign entry point (``repro fleet``,
``repro dossier``) shares.  Part of a campaign's RNG-layout identity, so
the one value must live in one place."""

POLICY_NAMES = ("cautious", "nominal", "aggressive")
"""The named tactical policies a campaign may reference."""


def policy_by_name(name: str) -> TacticalPolicy:
    """Resolve a policy name (``repro fleet --policy``) to its
    :class:`TacticalPolicy`, so a name means the same campaign
    everywhere."""
    from .policy import aggressive_policy, cautious_policy, nominal_policy

    factories = {"cautious": cautious_policy, "nominal": nominal_policy,
                 "aggressive": aggressive_policy}
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from "
                         f"{POLICY_NAMES}") from None
    return factory()

_VALIDATE_REL_TOL = 1e-6
"""Relative tolerance for the chunk validator's exposure cross-checks.
Loose enough for fsum rounding across contexts, tight enough that a
corrupted hour count (wrong chunk, truncated output) cannot pass."""


@dataclass(frozen=True)
class FleetProgress:
    """Running totals reported after every completed chunk.

    ``hours_done``/``encounters_resolved``/``incidents_found``/
    ``hard_braking_demands`` accumulate over *completed* chunks, which
    finish in scheduling order — treat these as observability, not as
    part of the deterministic result.

    On a checkpoint resume, ``chunks_resumed``/``hours_resumed`` report
    the restored baseline and the running totals cover the *whole*
    campaign (restored + this process), so completion fractions stay
    honest while rate/ETA displays can subtract the baseline (see
    ``repro fleet --progress``).

    ``transport``/``bytes_shipped`` surface the chunk-transport story
    live: which transport the campaign resolved to and the cumulative
    payload bytes that actually crossed the pool boundary so far
    (coordinator-side measurement, independent of the telemetry flag).
    ``result`` carries the just-committed chunk's own
    :class:`SimulationResult` so observers (the flight recorder) can
    classify it per chunk — all three are observability, never part of
    the deterministic result.
    """

    chunk_index: int
    chunks_done: int
    chunks_total: int
    hours_done: float
    hours_total: float
    encounters_resolved: int
    incidents_found: int
    hard_braking_demands: int
    chunks_resumed: int = 0
    hours_resumed: float = 0.0
    transport: Optional[str] = None
    bytes_shipped: int = 0
    result: Optional[SimulationResult] = None


@dataclass(frozen=True)
class _ChunkTask:
    """Everything a worker process needs to simulate one chunk.

    All fields are plain (frozen) dataclasses or mappings, so the task
    pickles once per chunk submission — and the return leg is measured,
    not claimed: ``parallel.bytes_shipped`` / ``parallel.transport.*``
    count what actually crosses back (see :data:`CHUNK_TRANSPORTS`).
    """

    policy: TacticalPolicy
    generator: EncounterGenerator
    perception: PerceptionModel
    braking: BrakingSystem
    mix: Dict[str, float]
    config: Optional[SimulationConfig]
    engine: str = "scalar"
    telemetry: bool = False
    transport: str = "inline"


@dataclass(frozen=True)
class _ChunkOutput:
    """What a worker ships back: the chunk result + optional telemetry.

    The telemetry snapshot rides alongside the simulation result instead
    of being smuggled through globals, so the pool path and the inline
    path use the identical per-chunk discipline: fresh session in, frozen
    snapshot out, merged once on the coordinator in chunk-index order.

    Under a non-inline transport the output is in *shipped* form until
    :func:`_receive_chunk_output` rehydrates it on the coordinator:
    ``transport`` names what crossed the boundary, and for ``"shm"``
    ``result`` carries an empty record block with the real one parked in
    the shared-memory segment ``shipped`` points at.  Rehydrated (and
    checkpoint-restored) outputs have ``transport=None``.
    """

    result: SimulationResult
    telemetry: Optional[TelemetrySnapshot] = None
    shipped: Optional[ShippedBlock] = None
    transport: Optional[str] = None


def _simulate_chunk(task: _ChunkTask, chunk: Chunk,
                    seed_seq: np.random.SeedSequence) -> _ChunkOutput:
    """Worker entry point: one chunk, one private generator.

    Module-level (hence picklable) and seeded exclusively from the
    chunk's own ``SeedSequence`` child — no state is shared with other
    chunks, so results cannot depend on which process ran what.  A
    *retried* chunk re-enters here with the same ``seed_seq`` and
    produces the identical output, which is what makes fault recovery
    invisible in the merged statistics.

    When the coordinator requested telemetry, the chunk runs under its
    own fresh :func:`telemetry_session` (nested re-entrantly when inline)
    and returns the frozen snapshot — telemetry never touches the RNG
    stream, so the simulation result is bitwise independent of the flag.
    """
    rng = np.random.default_rng(seed_seq)
    if not task.telemetry:
        result = simulate_mix(
            task.policy, task.generator, task.perception, task.braking,
            task.mix, chunk.size, rng, task.config,
            time_offset_h=chunk.start, engine=task.engine)
        return _pack_output(result, None, task.transport)
    with telemetry_session() as session:
        with profile_chunk():
            result = simulate_mix(task.policy, task.generator,
                                  task.perception, task.braking, task.mix,
                                  chunk.size, rng, task.config,
                                  time_offset_h=chunk.start,
                                  engine=task.engine)
    return _pack_output(result, session.snapshot(), task.transport)


def _pack_output(result: SimulationResult,
                 telemetry: Optional[TelemetrySnapshot],
                 transport: str) -> _ChunkOutput:
    """Worker side of the chunk transport: choose what crosses the pool.

    ``"inline"`` hands the result over untouched (no process boundary).
    Otherwise the record stream goes columnar: under ``"shm"`` the block
    bytes are parked in a shared-memory segment and the pickled output
    carries only the handle (plus a block-less result stub); any shm
    failure — platform without segments, exhausted ``/dev/shm`` —
    degrades this one chunk to ``"pickle"``, which ships the block-backed
    result whole.  Either way no per-record Python objects are pickled.
    """
    if transport == "inline":
        return _ChunkOutput(result=result, telemetry=telemetry)
    block = result.record_block
    if transport == "shm" and len(block):
        try:
            shipped = ship_block(block)
        except Exception:  # noqa: BLE001 - degrade to pickle, never abort
            shipped = None
        if shipped is not None:
            return _ChunkOutput(
                result=result.replaced(records=RecordBlock.empty()),
                telemetry=telemetry, shipped=shipped, transport="shm")
    return _ChunkOutput(result=result.replaced(records=block),
                        telemetry=telemetry, transport="pickle")


def _receive_chunk_output(output: object,
                          stats: Optional[Dict[str, int]] = None) -> object:
    """Coordinator side of the chunk transport (the ``unpack`` hook).

    Rehydrates a shipped :class:`_ChunkOutput` — for ``"shm"`` that
    means attaching, copying out and unlinking the segment — and records
    the transfer telemetry (``parallel.bytes_shipped``,
    ``parallel.transport.*``).  ``stats`` (coordinator-local, optional)
    accumulates the same measurements session-independently so progress
    displays can surface them without requiring ``--telemetry``.
    Anything that is not a shipped output (inline results, restored
    checkpoints, chaos-harness garbage) passes through untouched; the
    returned output has ``transport=None``, so a second unpack is a
    no-op.
    """
    if not isinstance(output, _ChunkOutput) or output.transport is None:
        return output
    result = output.result
    if output.shipped is not None:
        result = result.replaced(records=receive_block(output.shipped))
        nbytes = output.shipped.nbytes
    else:
        nbytes = result.record_block.nbytes
    if stats is not None:
        stats["bytes"] = stats.get("bytes", 0) + int(nbytes)
        stats[output.transport] = stats.get(output.transport, 0) + 1
    session = active_session()
    if session is not None:
        session.metrics.counter("parallel.bytes_shipped").inc(nbytes)
        session.metrics.counter(
            f"parallel.transport.{output.transport}").inc()
    return _ChunkOutput(result=result, telemetry=output.telemetry)


def validate_chunk_output(chunk: Chunk, output: object) -> Optional[str]:
    """The fleet's :class:`ChunkValidator`: accept or reject one chunk.

    Returns ``None`` to accept, or a human-readable rejection reason.
    Rejected outputs never reach the merge — the runner routes them
    through the retry path (failure kind ``invalid``).  Checks, in
    order of cheapness:

    * shape — the output is a ``_ChunkOutput`` holding a
      :class:`SimulationResult` (catches deserialisation garbage);
    * counters — encounter/demand counts are non-negative integers and
      incident counts cannot exceed resolved encounters by construction;
    * exposure — ``hours`` is finite, positive, matches the chunk plan
      (``chunk.size``) to relative tolerance, and the per-context hour
      split sums back to it (the "hour-sum mismatch" corruption);
    * placement — every record's absolute time stamp lies inside this
      chunk's window on the global timeline (catches results written for
      the *wrong* chunk index) and all record floats are finite.
    """
    if not isinstance(output, _ChunkOutput):
        return (f"chunk output has unexpected type "
                f"{type(output).__name__} (expected _ChunkOutput)")
    result = output.result
    if not isinstance(result, SimulationResult):
        return (f"chunk output carries {type(result).__name__} "
                f"(expected SimulationResult)")
    if output.telemetry is not None and \
            not isinstance(output.telemetry, TelemetrySnapshot):
        return (f"chunk telemetry has unexpected type "
                f"{type(output.telemetry).__name__}")
    if not isinstance(result.encounters_resolved, (int, np.integer)) or \
            result.encounters_resolved < 0:
        return (f"encounters_resolved must be a non-negative int, got "
                f"{result.encounters_resolved!r}")
    if not isinstance(result.hard_braking_demands, (int, np.integer)) or \
            result.hard_braking_demands < 0:
        return (f"hard_braking_demands must be a non-negative int, got "
                f"{result.hard_braking_demands!r}")
    if not math.isfinite(result.hours) or result.hours <= 0:
        return f"hours must be finite and positive, got {result.hours!r}"
    tol = _VALIDATE_REL_TOL * max(chunk.size, 1.0)
    if abs(result.hours - chunk.size) > tol:
        return (f"hour-sum mismatch: chunk planned {chunk.size!r} h but "
                f"result reports {result.hours!r} h")
    context_sum = math.fsum(result.context_hours.values())
    for context, hours in result.context_hours.items():
        if not math.isfinite(hours) or hours < 0:
            return (f"context_hours[{context!r}] must be finite and >= 0, "
                    f"got {hours!r}")
    if abs(context_sum - result.hours) > tol:
        return (f"hour-sum mismatch: context hours sum to {context_sum!r} "
                f"but hours is {result.hours!r}")
    window_lo = chunk.start - tol
    window_hi = chunk.start + chunk.size + tol
    array = result.record_block.array
    if not len(array):
        return None
    # A sound block passes with one finiteness pass over all its floats
    # and the min and max of its times; only a rejected block is
    # searched again for the reason.
    times = array["time_h"]
    if np.isfinite(record_floats(array)).all() and \
            window_lo <= times.min() and times.max() <= window_hi:
        return None
    for name in ("time_h", "delta_v_kmh", "min_distance_m",
                 "approach_speed_kmh"):
        finite = np.isfinite(array[name])
        if not finite.all():
            value = float(array[name][int(np.argmin(finite))])
            return f"record field {name} is not finite: {value!r}"
    inside = (window_lo <= times) & (times <= window_hi)
    if not inside.all():
        time_h = float(times[int(np.argmin(inside))])
        return (f"record at t={time_h!r} h falls outside this "
                f"chunk's window [{chunk.start!r}, "
                f"{chunk.start + chunk.size!r}] — result for the "
                f"wrong chunk index?")
    return None


def _campaign_identity(policy: TacticalPolicy, mix: Mapping[str, float],
                       hours: float, seed: int, chunk_hours: float,
                       engine: str) -> Dict[str, object]:
    """The checkpoint identity block: what *defines* the campaign's draws.

    Worker count is deliberately absent — it is outside the RNG layout,
    so resuming on a different pool size is sound.
    """
    return {
        "seed": seed,
        "hours": hours,
        "chunk_hours": chunk_hours,
        "engine": engine,
        "policy": policy.name,
        "mix": {str(k): float(v) for k, v in sorted(mix.items())},
        "n_chunks": len(plan_chunks(hours, chunk_hours)),
    }


def _open_checkpoint(checkpoint: Union[str, Path, CampaignCheckpoint],
                     identity: Mapping[str, object],
                     resume: bool) -> CampaignCheckpoint:
    if not isinstance(checkpoint, CampaignCheckpoint):
        path = Path(checkpoint)
        if path.exists() and not resume:
            raise FileExistsError(
                f"checkpoint {path} already exists; pass resume=True "
                f"(CLI: --resume) to continue it, or remove it to start "
                f"over")
        restored = CampaignCheckpoint.resume(path)[0] if resume else None
        if restored is None:
            # Nothing banked yet (or an empty resume): start the log with
            # its identity line, so every commit appends exactly one.
            fresh = CampaignCheckpoint.new(path, identity)
            fresh.save()
            return fresh
        checkpoint = restored
    checkpoint.ensure_matches(identity)
    return checkpoint


def _chunk_list(indices: Sequence[int]) -> str:
    return (f"chunk{'s' if len(indices) > 1 else ''} "
            f"{', '.join(map(str, indices))}")


def _log_lagging_chunks(checkpoint: CampaignCheckpoint,
                        quarantined: Sequence[int] = ()) -> None:
    """Append the chunks a failed append left out of the checkpoint.

    The next commit retries a failed append, so only the last commits'
    chunks can still be missing when the campaign ends, whether every
    chunk finished or some were ``quarantined``.  If this append fails
    too, the campaign must not end over a checkpoint that lags its
    committed chunks.
    """
    lagging = checkpoint.unlogged()
    if not lagging:
        return
    try:
        checkpoint.save()
    except CheckpointWriteError as exc:
        cause = exc.__cause__
        failed = (f"; {_chunk_list(quarantined)} failed and "
                  f"{'were' if len(quarantined) > 1 else 'was'} quarantined"
                  if quarantined else "")
        raise CheckpointWriteError(
            f"campaign ended, but {_chunk_list(lagging)} could not be "
            f"appended ({getattr(cause, 'strerror', None) or cause})"
            f"{failed}; rerun with --resume to simulate only the missing "
            f"chunks",
            source=checkpoint.path, schema=exc.schema) from exc


def run_fleet(policy: TacticalPolicy,
              generator: EncounterGenerator,
              perception: PerceptionModel,
              braking: BrakingSystem,
              mix: Mapping[str, float],
              hours: float,
              seed: int,
              *,
              workers: Optional[int] = None,
              chunk_hours: float = DEFAULT_CHUNK_HOURS,
              config: Optional[SimulationConfig] = None,
              progress: Optional[Callable[[FleetProgress], None]] = None,
              engine: str = "vectorized",
              retry: RetryPolicy = DEFAULT_RETRY_POLICY,
              checkpoint: Optional[Union[str, Path,
                                         CampaignCheckpoint]] = None,
              resume: bool = False,
              failure_sink: Optional[List[ChunkFailure]] = None,
              wrap_worker: Optional[Callable[[Callable], Callable]] = None,
              record_sink: Optional[RecordSink] = None,
              transport: Optional[str] = None,
              ) -> SimulationResult:
    """Run a fleet campaign of ``hours`` sharded across a worker pool.

    Parameters mirror :func:`~repro.traffic.simulator.simulate_mix`
    except that seeding is by integer ``seed`` (chunks spawn their own
    child streams — passing a live ``Generator`` would tie the draws to
    scheduling order) and ``workers``/``chunk_hours`` control the pool.

    ``workers=None`` uses every available core; ``workers=1`` runs
    serially through the identical chunk plan and seeding, so it is the
    bit-for-bit reference for any parallel run with the same ``seed``,
    ``hours`` and ``chunk_hours``.  Note the chunk size *is* part of the
    RNG layout: changing ``chunk_hours`` legitimately changes the draws
    (but never the statistics' distribution).

    ``engine`` selects the per-core resolution path and defaults to
    ``"vectorized"`` — the structure-of-arrays hot path, so the two
    optimisations (parallelism × vectorization) multiply.  The engine is
    part of the RNG layout (its per-(context × class) sub-streams differ
    from the scalar draw order), so switching engines changes the draws;
    the worker-count determinism contract holds identically for both.
    Pass ``engine="scalar"`` to reproduce pre-engine campaign pins.

    Fault tolerance (DESIGN §9):

    * ``retry`` (default :data:`DEFAULT_RETRY_POLICY`) bounds per-chunk
      retries, enables ``BrokenProcessPool``/timeout recovery and
      quarantines poison chunks — a campaign with quarantined chunks
      raises :class:`~repro.stats.fault_tolerance.CampaignPartialFailure`
      whose ``completed`` maps chunk index →
      :class:`SimulationResult` for everything that *did* finish.
      ``RetryPolicy(max_attempts=1)`` quarantines a chunk on its first
      failure.
    * :func:`validate_chunk_output` checks every chunk before it may be
      merged (validate-then-commit); a rejected chunk is retried.
    * ``checkpoint`` names a :class:`~repro.traffic.checkpoint.CampaignCheckpoint`
      log (or is one, already opened with
      :meth:`~repro.traffic.checkpoint.CampaignCheckpoint.resume`):
      every committed chunk appends one fsync'd line, and with
      ``resume=True`` an existing checkpoint's chunks are restored
      instead of re-simulated (a torn final append is cut first) — the
      merged result is bit-for-bit the uninterrupted run's, for any
      worker count on either side.  A failed append is retried by the
      next commit and once more when the campaign ends, also when it
      ends on quarantined chunks; if that fails too,
      :class:`~repro.traffic.checkpoint.CheckpointWriteError` names the
      chunks missing from the checkpoint.
    * ``failure_sink`` collects every recovered
      :class:`~repro.stats.fault_tolerance.ChunkFailure` for manifests.
    * ``wrap_worker`` is the chaos-harness seam
      (:mod:`repro.testing.chaos`): it wraps the per-chunk worker with
      fault injection in tests; production code leaves it ``None``.

    Columnar transport and bounded memory (DESIGN §12):

    * ``transport`` picks how chunk results cross the pool boundary
      (:data:`CHUNK_TRANSPORTS`).  The default (``None``) auto-selects:
      ``"inline"`` for single-worker runs, ``"shm"`` where
      ``multiprocessing.shared_memory`` is available, ``"pickle"``
      otherwise.  Transport never changes results — only how their
      bytes move — and the auto choice is therefore outside the
      determinism contract's identity (checkpoints resume across
      transports).
    * ``record_sink`` streams every committed chunk's record block into
      a :class:`~repro.traffic.records.RecordSink` (one digest-signed
      ``repro.record-block/v1`` part per chunk, atomic writes), keyed
      by chunk index so the on-disk layout is deterministic whatever
      the completion order.  On a checkpoint resume the restored chunks
      are fed to the sink up front, so the spill directory is complete
      even when no chunk re-runs.  The sink bounds what the *caller*
      must keep resident; the merged in-memory result is still
      returned.

    None of this touches the determinism contract — retried chunks
    re-run from the same ``SeedSequence`` child, and only validated
    results are committed, so faulted and fault-free campaigns merge
    identically.
    """
    _check_engine(engine)
    if resume and checkpoint is None:
        raise ValueError("resume=True needs the checkpoint to resume from")
    if transport is not None and transport not in CHUNK_TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; "
                         f"expected one of {CHUNK_TRANSPORTS}")
    session = active_session()
    chunks = plan_chunks(hours, chunk_hours)
    if transport is None:
        effective_workers = (workers if workers is not None
                             else default_worker_count(len(chunks)))
        if effective_workers <= 1:
            transport = "inline"
        elif shm_available():
            transport = "shm"
        else:
            transport = "pickle"
    task = _ChunkTask(policy=policy, generator=generator,
                      perception=perception, braking=braking,
                      mix=dict(mix), config=config, engine=engine,
                      telemetry=session is not None,
                      transport=transport)

    campaign_checkpoint: Optional[CampaignCheckpoint] = None
    completed: Optional[Dict[int, _ChunkOutput]] = None
    restored_results: List[SimulationResult] = []
    if checkpoint is not None:
        identity = _campaign_identity(policy, mix, hours, seed, chunk_hours,
                                      engine)
        campaign_checkpoint = _open_checkpoint(checkpoint, identity,
                                               resume)
        restored_telemetry = campaign_checkpoint.completed_telemetry()
        completed = {
            index: _ChunkOutput(result=result,
                                telemetry=restored_telemetry.get(index))
            for index, result
            in campaign_checkpoint.completed_results().items()
        }
        for index in completed:
            if not 0 <= index < len(chunks):
                raise ValueError(
                    f"checkpoint chunk index {index} outside the plan "
                    f"0..{len(chunks) - 1}")
        restored_results = [completed[i].result for i in sorted(completed)]

    if record_sink is not None and completed:
        # A resumed campaign never re-runs its restored chunks, so feed
        # them to the sink up front; keyed parts make the re-append of
        # an already-spilled chunk an idempotent overwrite.
        for index in sorted(completed):
            record_sink.append(completed[index].result.record_block,
                               key=index)

    on_commit: Optional[Callable[[Chunk, _ChunkOutput], None]] = None
    if campaign_checkpoint is not None or record_sink is not None:
        def on_commit(chunk: Chunk, output: _ChunkOutput) -> None:
            # A failed checkpoint append (retried by the next commit)
            # must not cost the sink this chunk's records.
            try:
                if campaign_checkpoint is not None:
                    campaign_checkpoint.record(chunk.index, output.result,
                                               output.telemetry)
            finally:
                if record_sink is not None:
                    record_sink.append(output.result.record_block,
                                       key=chunk.index)

    # Coordinator-local transfer measurements (bytes + chunks per
    # transport kind) — fed by the unpack hook, surfaced via progress.
    transfer: Dict[str, int] = {}

    adapter: Optional[Callable[[ChunkProgress], None]] = None
    if progress is not None:
        totals = {
            "encounters": sum(r.encounters_resolved
                              for r in restored_results),
            "incidents": sum(r.num_records for r in restored_results),
            "demands": sum(r.hard_braking_demands
                           for r in restored_results),
        }

        def adapter(update: ChunkProgress) -> None:
            result: SimulationResult = update.result.result
            totals["encounters"] += result.encounters_resolved
            totals["incidents"] += result.num_records
            totals["demands"] += result.hard_braking_demands
            progress(FleetProgress(
                chunk_index=update.chunk_index,
                chunks_done=update.chunks_done,
                chunks_total=update.chunks_total,
                hours_done=update.units_done,
                hours_total=update.units_total,
                encounters_resolved=totals["encounters"],
                incidents_found=totals["incidents"],
                hard_braking_demands=totals["demands"],
                chunks_resumed=update.chunks_resumed,
                hours_resumed=update.units_resumed,
                transport=transport,
                bytes_shipped=transfer.get("bytes", 0),
                result=result,
            ))

    worker = functools.partial(_simulate_chunk, task)
    if wrap_worker is not None:
        worker = wrap_worker(worker)

    journal_event("campaign.started", seed=int(seed), hours=float(hours),
                  chunk_hours=float(chunk_hours), engine=engine,
                  policy=policy.name,
                  mix={str(k): float(v) for k, v in sorted(mix.items())},
                  n_chunks=len(chunks),
                  workers=None if workers is None else int(workers),
                  transport=transport,
                  chunks_restored=len(restored_results))
    with maybe_span("run_fleet"):
        try:
            outputs = run_chunked(
                worker, chunks, seed, workers=workers, progress=adapter,
                retry=retry, validator=validate_chunk_output,
                completed=completed, on_commit=on_commit,
                failure_sink=failure_sink,
                unpack=functools.partial(_receive_chunk_output,
                                         stats=transfer))
        except CampaignPartialFailure as exc:
            journal_event("campaign.failed",
                          quarantined=[int(i) for i in exc.quarantined],
                          chunks_total=exc.chunks_total,
                          chunks_completed=len(exc.completed),
                          failure_count=len(exc.failures))
            if campaign_checkpoint is not None:
                _log_lagging_chunks(campaign_checkpoint, exc.quarantined)
            # Re-raise with domain results (not private _ChunkOutput
            # wrappers) so callers can merge/report what survived.
            raise CampaignPartialFailure(
                completed={index: output.result
                           for index, output in exc.completed.items()},
                failures=exc.failures,
                quarantined=exc.quarantined,
                chunks_total=exc.chunks_total) from None
        if campaign_checkpoint is not None:
            _log_lagging_chunks(campaign_checkpoint)
        merged = SimulationResult.merge_many([o.result for o in outputs])
        journal_event("campaign.finished", hours=float(merged.hours),
                      encounters=int(merged.encounters_resolved),
                      records=int(merged.num_records),
                      collisions=int(merged.collision_count()),
                      hard_braking_demands=int(merged.hard_braking_demands),
                      chunks=len(chunks),
                      bytes_shipped=transfer.get("bytes", 0))
        if session is not None:
            gauge = session.metrics.gauge("fleet.chunks_total")
            gauge.set(max(gauge.value, float(len(chunks))))
            chunk_snapshots = [o.telemetry for o in outputs
                               if o.telemetry is not None]
            if chunk_snapshots:
                # One flat merge over all chunk snapshots, in chunk-index
                # order — the same order for every worker count — then a
                # single absorb, nested under "fleet.chunks".
                session.absorb(TelemetrySnapshot.merge_many(chunk_snapshots),
                               under="fleet.chunks")
        return merged
