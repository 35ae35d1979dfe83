"""Seed-stable parallel chunk execution with a fault-tolerance layer.

The fleet-scale Monte-Carlo runs behind every QRN verification argument
(Sec. III / Eq. 1) spend almost all their time resolving independent
encounters — an embarrassingly parallel workload.  This module supplies
the generic machinery the traffic layer builds on:

* :func:`plan_chunks` shards a total exposure into fixed-size chunks.
  The plan depends only on ``(total, chunk_size)`` — *never* on the
  worker count — which is the first leg of the determinism contract.
* :func:`run_chunked` executes one picklable worker per chunk, either
  inline (``workers=1``) or on a :class:`~concurrent.futures.ProcessPoolExecutor`,
  seeding every chunk from its own ``SeedSequence.spawn`` child (second
  leg: no RNG stream is shared between chunks, so scheduling order
  cannot leak into the draws).
* Results are returned **in chunk-index order** regardless of completion
  order (third leg: the caller's merge folds a fixed sequence).

Together the three legs give the bit-for-bit guarantee the test suite
enforces: ``run_chunked(seed, workers=k)`` is identical for every ``k``.

Fault tolerance (DESIGN §9) rides on the same path without touching
the contract: a :class:`~repro.stats.fault_tolerance.RetryPolicy`
bounds per-chunk retry with backoff+jitter from a dedicated non-result
RNG, per-chunk timeouts, ``BrokenProcessPool`` recovery (rebuild the
pool, resubmit only unfinished chunks) and graceful degradation to
inline execution after repeated pool breakage; a caller-supplied
``validator`` gives validate-then-commit; and a quarantine list converts
"one poison chunk aborts everything" into
:class:`~repro.stats.fault_tolerance.CampaignPartialFailure` carrying
every completed result.  A retried chunk re-runs from the *same*
``SeedSequence`` child, so any mix of faults yields bit-for-bit
identical merged results.

A :class:`ChunkProgress` callback streams observability (chunks done,
units simulated, the chunk's own result) without perturbing the result —
progress is reported in *completion* order, which is the only
nondeterministic surface and is explicitly excluded from the contract.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..obs.events import journal_event
from ..obs.session import active_session, maybe_span
from .fault_tolerance import (CampaignPartialFailure, ChunkFailure,
                              RetryPolicy, journal_chunk_failure)

__all__ = ["Chunk", "ChunkProgress", "plan_chunks", "run_chunked",
           "default_worker_count"]

_SLIVER_REL_TOL = 1e-9
"""A planned final chunk smaller than ``chunk_size * _SLIVER_REL_TOL``
is a floating-point residue of ``index * chunk_size`` rounding (e.g.
``plan_chunks(2.1, 0.7)`` would otherwise emit a fourth chunk of
~4.4e-16 h), not exposure anyone asked for — the previous chunk absorbs
it instead."""

_MIN_POLL_S = 0.01
"""Lower bound on the pool wait() timeout so deadline polling cannot
busy-spin."""


@dataclass(frozen=True)
class Chunk:
    """One shard of the total exposure.

    ``start`` is the chunk's offset on the global timeline (so workers
    can stamp absolute event times) and ``size`` its extent, both in the
    caller's exposure units (hours, for the traffic layer).
    """

    index: int
    start: float
    size: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("chunk index must be >= 0")
        if self.start < 0 or not math.isfinite(self.start):
            raise ValueError("chunk start must be finite and >= 0")
        if self.size <= 0 or not math.isfinite(self.size):
            raise ValueError("chunk size must be positive and finite")


@dataclass(frozen=True)
class ChunkProgress:
    """Snapshot handed to the progress callback after each chunk.

    ``units_done``/``units_total`` are in the caller's exposure units.
    ``result`` is the completed chunk's own result so the caller can
    accumulate domain metrics (encounters, incidents, ...) without this
    module knowing about them.

    On a checkpoint resume, ``chunks_resumed``/``units_resumed`` carry
    the work restored from the checkpoint, and ``chunks_done``/
    ``units_done`` count the *whole campaign* (restored + this process)
    — so rate/ETA displays can subtract the baseline while completion
    fractions stay honest.
    """

    chunk_index: int
    chunks_done: int
    chunks_total: int
    units_done: float
    units_total: float
    result: Any
    chunks_resumed: int = 0
    units_resumed: float = 0.0


def plan_chunks(total: float, chunk_size: float) -> List[Chunk]:
    """Shard ``total`` exposure into chunks of at most ``chunk_size``.

    The plan is a pure function of its arguments — crucially independent
    of worker count — and the final chunk absorbs any remainder, so no
    exposure is dropped or double-counted.  Chunk starts are computed as
    ``index * chunk_size`` (not accumulated) so they carry no summation
    drift.

    Float edge case: when ``total`` is an exact multiple of
    ``chunk_size`` *in real arithmetic* but not representable exactly
    (``total = 2.1``, ``chunk_size = 0.7``), ``index * chunk_size`` for
    the last index can land one ulp below ``total`` and a sliver chunk of
    ~1e-16 would appear.  Any residue below ``chunk_size * 1e-9`` is
    absorbed into the preceding chunk instead — such a chunk is pure
    rounding noise, never planned exposure.
    """
    if total <= 0 or not math.isfinite(total):
        raise ValueError(f"total exposure must be positive and finite, got {total}")
    if chunk_size <= 0 or not math.isfinite(chunk_size):
        raise ValueError(f"chunk size must be positive and finite, got {chunk_size}")
    sliver = chunk_size * _SLIVER_REL_TOL
    chunks: List[Chunk] = []
    index = 0
    while True:
        start = index * chunk_size
        remaining = total - start
        if remaining <= sliver:  # done, or the residue is rounding noise
            break
        size = min(chunk_size, remaining)
        residue_after = total - (index + 1) * chunk_size
        if 0.0 < residue_after <= sliver:
            size = remaining  # absorb the float sliver into this chunk
        chunks.append(Chunk(index=index, start=start, size=size))
        index += 1
    return chunks


def default_worker_count(n_chunks: int) -> int:
    """All available cores, capped by the number of chunks."""
    cpus = os.cpu_count() or 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass
    return max(1, min(cpus, n_chunks))


def _chunk_seeds(seed: int, n_chunks: int) -> List[np.random.SeedSequence]:
    """One independent child ``SeedSequence`` per chunk.

    ``SeedSequence.spawn`` is numpy's sanctioned way to mint
    non-overlapping streams; because the spawn count equals the chunk
    count (never the worker count), the streams are identical whatever
    the pool size.  On a resume the spawn still covers *every* chunk —
    restored chunks simply skip execution — so the missing chunks draw
    from exactly the streams an uninterrupted run would have used.
    """
    return list(np.random.SeedSequence(seed).spawn(n_chunks))


def _new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers share this process's resource tracker.

    A worker that creates its first shared-memory segment after the fork
    would otherwise start a ``resource_tracker`` interpreter of its own,
    and segments registered there are invisible to the coordinator.
    Starting the tracker here, before any worker forks, makes the whole
    pool use one tracker, so a segment a worker ships stays registered
    until the coordinator unlinks it (DESIGN §12).
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    return ProcessPoolExecutor(max_workers=max_workers)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly tear down a pool whose workers may be hung.

    ``shutdown(cancel_futures=True)`` alone never preempts a *running*
    worker, so a hung chunk would wedge the campaign forever; SIGTERM to
    the worker processes is the only reclamation path.  Reaching for the
    private ``_processes`` map is deliberate and guarded — if the
    attribute moves, we degrade to a plain shutdown (and the per-chunk
    deadline still fires on the rebuilt pool's chunks).
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - best-effort teardown
        pass


class _ResilientRun:
    """State machine for chunk execution under a retry policy.

    One instance per :func:`run_chunked` call.  The determinism story is
    carried entirely by what this class does *not* do: it never touches
    the per-chunk seed list, commits each chunk exactly once (first
    validated result wins; a result harvested after its chunk was
    already failed-and-requeued is discarded), and merges nothing itself
    — the ordered ``results`` list is the only output.
    """

    def __init__(self, *, worker: Callable[[Chunk, np.random.SeedSequence], Any],
                 chunks: Sequence[Chunk],
                 seeds: Sequence[np.random.SeedSequence],
                 seed: int,
                 workers: int,
                 retry: RetryPolicy,
                 validator: Optional[Callable[[Chunk, Any], Optional[str]]],
                 on_commit: Optional[Callable[[Chunk, Any], None]],
                 report: Callable[[Chunk, Any], None],
                 completed: Mapping[int, Any],
                 failure_sink: Optional[List[ChunkFailure]],
                 unpack: Optional[Callable[[Any], Any]] = None):
        self.worker = worker
        self.chunks = list(chunks)
        self.seeds = list(seeds)
        self.workers = workers
        self.retry = retry
        self.validator = validator
        self.on_commit = on_commit
        self.report = report
        self.failure_sink = failure_sink
        self.unpack = unpack
        self.seed = seed
        self._backoff_rng: Optional[np.random.Generator] = None

        self.results: List[Any] = [None] * len(self.chunks)
        self.committed: Dict[int, bool] = {}
        for index, value in completed.items():
            self.results[index] = value
            self.committed[index] = True
        self.todo: List[Chunk] = [c for c in self.chunks
                                  if c.index not in self.committed]
        self.delayed: List[Tuple[float, Chunk]] = []
        self.failures: List[ChunkFailure] = []
        self.failure_counts: Dict[int, int] = {}
        self.quarantined: List[int] = []
        self.pool_rebuilds = 0
        self.degraded = False

    # -- bookkeeping ------------------------------------------------------

    def _metrics(self):
        session = active_session()
        return None if session is None else session.metrics

    def _commit(self, chunk: Chunk, result: Any) -> None:
        self.results[chunk.index] = result
        self.committed[chunk.index] = True
        # Persist before reporting: a KeyboardInterrupt raised from the
        # progress callback (or a kill landing between the two) must
        # leave this chunk banked in the checkpoint.
        if self.on_commit is not None:
            try:
                self.on_commit(chunk, result)
            except Exception as exc:  # noqa: BLE001 - persistence is best-effort
                warnings.warn(
                    f"on_commit callback raised {type(exc).__name__}: {exc}; "
                    f"continuing (results are unaffected, but the "
                    f"checkpoint may be stale)",
                    RuntimeWarning, stacklevel=4)
        self.report(chunk, result)

    def _record_failure(self, chunk: Chunk, kind: str, message: str,
                        ) -> Optional[float]:
        """Log one failure; return the retry backoff delay, or ``None``
        if the chunk just exhausted its attempts and was quarantined."""
        count = self.failure_counts.get(chunk.index, 0) + 1
        self.failure_counts[chunk.index] = count
        failure = ChunkFailure(chunk_index=chunk.index, attempt=count,
                               kind=kind, message=message)
        self.failures.append(failure)
        if self.failure_sink is not None:
            self.failure_sink.append(failure)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("parallel.failures").inc()
            if kind == "timeout":
                metrics.counter("parallel.timeouts").inc()
            elif kind == "invalid":
                metrics.counter("parallel.validation_failures").inc()
        warnings.warn(
            f"chunk {chunk.index} failed (attempt {count}/"
            f"{self.retry.max_attempts}, kind={kind}): {message}",
            RuntimeWarning, stacklevel=5)
        if count >= self.retry.max_attempts:
            self.quarantined.append(chunk.index)
            if metrics is not None:
                metrics.counter("parallel.quarantined").inc()
            journal_chunk_failure(failure, quarantined=True)
            return None
        if metrics is not None:
            metrics.counter("parallel.retries").inc()
        if self._backoff_rng is None:
            # Built on the first retry: a fault-free campaign never
            # draws a jitter, so it need not pay for the generator.
            self._backoff_rng = self.retry.rng(self.seed)
        backoff = self.retry.backoff_s(count, self._backoff_rng)
        journal_chunk_failure(failure, quarantined=False, backoff_s=backoff)
        return backoff

    def _schedule_retry(self, chunk: Chunk, delay: float) -> None:
        self.delayed.append((time.monotonic() + delay, chunk))

    def _unpack(self, result: Any) -> Any:
        """Rehydrate one raw worker output on the coordinator.

        The transport seam: a caller-supplied ``unpack`` converts what
        actually crossed the process boundary (e.g. a shared-memory
        block handle) back into the domain result *before* validation
        and commit.  It runs inside the same try as the worker call, so
        a failing unpack is an ordinary chunk failure (retried), never
        a crash.
        """
        if self.unpack is None:
            return result
        return self.unpack(result)

    def _drain_discarded(self, future: Any) -> None:
        """Release transport resources of a result we will not use.

        A future that completed after its chunk was already timed out
        still holds the worker's transport payload (e.g. a shm segment
        nobody will ever attach).  Unpacking and dropping the result
        frees those OS resources; the chunk re-runs from its own seed,
        so discarding is free for determinism.
        """
        if self.unpack is None or not future.done():
            return
        try:
            self.unpack(future.result())
        except Exception:  # noqa: BLE001 - best-effort resource release
            pass

    def _validate(self, chunk: Chunk, result: Any) -> Optional[str]:
        if self.validator is None:
            return None
        try:
            return self.validator(chunk, result)
        except Exception as exc:  # noqa: BLE001 - a raising validator rejects
            return (f"validator raised {type(exc).__name__}: {exc}")

    def _handle_outcome(self, chunk: Chunk, result: Any) -> None:
        """Validate-then-commit; a rejected result goes to the retry path."""
        error = self._validate(chunk, result)
        if error is None:
            self._commit(chunk, result)
            return
        delay = self._record_failure(chunk, "invalid", error)
        if delay is not None:
            self._schedule_retry(chunk, delay)

    # -- inline execution -------------------------------------------------

    def _pristine_seed(self, chunk: Chunk) -> np.random.SeedSequence:
        """The chunk's seed as :func:`_chunk_seeds` minted it.

        ``SeedSequence.spawn`` is stateful (``n_children_spawned``
        advances), and workers legitimately spawn sub-streams from their
        chunk seed.  Pool executions are immune because pickling hands
        the worker process a copy; an in-process execution advances the
        stored seed itself, and a re-execution after a fault would see
        the advanced state and draw *differently*.  Seeds are minted
        with no children spawned, so the stored seed is handed out while
        that still holds, and once an inline run has spawned from it,
        each later execution gets a rebuild from its entropy and spawn
        key: a retried chunk reproduces the fault-free draws exactly,
        and a fault-free campaign copies nothing.
        """
        seed = self.seeds[chunk.index]
        if seed.n_children_spawned == 0:
            return seed
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)

    def _run_inline(self, chunk: Chunk) -> None:
        """Execute one chunk to commitment or quarantine, inline.

        Used by the ``workers=1`` path and by degraded mode.  Timeouts
        are not enforceable here (there is no second process to preempt
        a hung call from) — documented in DESIGN §9.
        """
        while True:
            try:
                result = self._unpack(
                    self.worker(chunk, self._pristine_seed(chunk)))
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - retried/quarantined
                delay = self._record_failure(
                    chunk, "exception", f"{type(exc).__name__}: {exc}")
            else:
                error = self._validate(chunk, result)
                if error is None:
                    self._commit(chunk, result)
                    return
                delay = self._record_failure(chunk, "invalid", error)
            if delay is None:
                return  # quarantined
            if delay > 0:
                time.sleep(delay)

    def _execute_inline(self) -> None:
        for chunk in self.todo:
            self._run_inline(chunk)
        self.todo = []

    # -- pool execution ---------------------------------------------------

    def _degrade(self) -> None:
        self.degraded = True
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("parallel.degraded_inline").inc()
        journal_event("pool.degraded", rebuilds=self.pool_rebuilds,
                      max_pool_rebuilds=self.retry.max_pool_rebuilds)
        warnings.warn(
            f"process pool broke {self.pool_rebuilds} time(s), exceeding "
            f"max_pool_rebuilds={self.retry.max_pool_rebuilds}; degrading "
            f"to inline execution for the remaining chunks (results are "
            f"unaffected — same chunk seeds)",
            RuntimeWarning, stacklevel=4)

    def _rebuild_or_degrade(self, pool: ProcessPoolExecutor,
                            max_workers: int) -> Optional[ProcessPoolExecutor]:
        _kill_pool(pool)
        self.pool_rebuilds += 1
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("parallel.pool_rebuilds").inc()
        if self.pool_rebuilds > self.retry.max_pool_rebuilds:
            self._degrade()
            return None
        journal_event("pool.rebuilt", rebuilds=self.pool_rebuilds,
                      max_workers=max_workers)
        return _new_pool(max_workers)

    def _execute_pool(self) -> None:
        max_workers = min(self.workers, max(len(self.todo), 1))
        pool: Optional[ProcessPoolExecutor] = _new_pool(max_workers)
        # future -> (chunk, deadline | None).  Submission is windowed to
        # at most max_workers in flight so a submitted chunk starts
        # (approximately) immediately and the per-chunk deadline measures
        # execution, not queueing.
        in_flight: Dict[Any, Tuple[Chunk, Optional[float]]] = {}
        try:
            while True:
                if self.degraded:
                    # Remaining work (todo + backoff queue) runs inline.
                    self.todo.extend(chunk for _, chunk in self.delayed)
                    self.delayed = []
                    self.todo.sort(key=lambda c: c.index)
                    self._execute_inline()
                    return
                now = time.monotonic()
                ready = [item for item in self.delayed if item[0] <= now]
                if ready:
                    self.delayed = [item for item in self.delayed
                                    if item[0] > now]
                    self.todo.extend(chunk for _, chunk in ready)
                    self.todo.sort(key=lambda c: c.index)
                while self.todo and len(in_flight) < max_workers:
                    chunk = self.todo.pop(0)
                    deadline = (None if self.retry.timeout_s is None
                                else time.monotonic() + self.retry.timeout_s)
                    try:
                        future = pool.submit(self.worker, chunk,
                                             self._pristine_seed(chunk))
                    except BrokenProcessPool:
                        self.todo.insert(0, chunk)
                        pool = self._handle_pool_breakage(
                            pool, in_flight, max_workers, charge=[])
                        break
                    in_flight[future] = (chunk, deadline)
                if not in_flight:
                    if self.todo:
                        continue  # a submit failed and the pool was rebuilt
                    if self.delayed:
                        next_ready = min(item[0] for item in self.delayed)
                        time.sleep(max(next_ready - time.monotonic(), 0.0))
                        continue
                    return  # everything committed or quarantined
                timeout = None
                deadlines = [dl for _, dl in in_flight.values()
                             if dl is not None]
                if deadlines:
                    timeout = min(deadlines) - time.monotonic()
                if self.delayed:
                    next_ready = min(item[0] for item in self.delayed)
                    until_ready = next_ready - time.monotonic()
                    timeout = (until_ready if timeout is None
                               else min(timeout, until_ready))
                if timeout is not None:
                    timeout = max(timeout, _MIN_POLL_S)
                finished, _ = wait(set(in_flight), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                broken: List[Chunk] = []
                for future in finished:
                    chunk, _deadline = in_flight.pop(future)
                    try:
                        result = self._unpack(future.result())
                    except KeyboardInterrupt:  # pragma: no cover - defensive
                        raise
                    except BrokenProcessPool:
                        broken.append(chunk)
                    except Exception as exc:  # noqa: BLE001 - retried
                        delay = self._record_failure(
                            chunk, "exception",
                            f"{type(exc).__name__}: {exc}")
                        if delay is not None:
                            self._schedule_retry(chunk, delay)
                    else:
                        self._handle_outcome(chunk, result)
                if broken:
                    pool = self._handle_pool_breakage(
                        pool, in_flight, max_workers, charge=broken)
                    if pool is None and not self.degraded:
                        return
                    continue
                if self.retry.timeout_s is not None and in_flight:
                    now = time.monotonic()
                    overdue = [(future, chunk)
                               for future, (chunk, deadline)
                               in in_flight.items()
                               if deadline is not None and now >= deadline]
                    if overdue:
                        pool = self._handle_timeouts(
                            pool, in_flight, max_workers, overdue)
        except KeyboardInterrupt:
            # Cancel what never started, kill what is running, and let
            # the caller (CLI) report the checkpoint state — committed
            # chunks were already persisted via on_commit.
            if pool is not None:
                _kill_pool(pool)
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _handle_pool_breakage(self, pool: ProcessPoolExecutor,
                              in_flight: Dict[Any, Tuple[Chunk, Optional[float]]],
                              max_workers: int,
                              charge: Sequence[Chunk],
                              ) -> Optional[ProcessPoolExecutor]:
        """A worker process died.  Charge the chunks whose futures raised
        ``BrokenProcessPool`` one failure each (the dead process cannot be
        attributed more precisely), requeue every other in-flight chunk
        for free, and rebuild the pool — or degrade to inline."""
        for chunk in charge:
            delay = self._record_failure(
                chunk, "pool_broken",
                "process pool broke while this chunk was in flight")
            if delay is not None:
                self._schedule_retry(chunk, delay)
        survivors = [chunk for chunk, _ in in_flight.values()]
        in_flight.clear()
        self.todo.extend(survivors)
        self.todo.sort(key=lambda c: c.index)
        return self._rebuild_or_degrade(pool, max_workers)

    def _handle_timeouts(self, pool: ProcessPoolExecutor,
                         in_flight: Dict[Any, Tuple[Chunk, Optional[float]]],
                         max_workers: int,
                         overdue: Sequence[Tuple[Any, Chunk]],
                         ) -> Optional[ProcessPoolExecutor]:
        """Chunks blew their deadline: the pool is presumed hung.

        Overdue chunks are charged a ``timeout`` failure; other in-flight
        chunks are collateral of the pool teardown and requeue for free
        (no attempt consumed).  A result that raced past the deadline is
        discarded — its chunk re-runs from the same seed, so the merged
        result is unchanged either way."""
        overdue_futures = {future for future, _ in overdue}
        for future, chunk in overdue:
            in_flight.pop(future, None)
            self._drain_discarded(future)
            delay = self._record_failure(
                chunk, "timeout",
                f"chunk exceeded timeout_s={self.retry.timeout_s:g}s; "
                f"its pool was torn down")
            if delay is not None:
                self._schedule_retry(chunk, delay)
        survivors = [chunk for future, (chunk, _) in list(in_flight.items())
                     if future not in overdue_futures]
        in_flight.clear()
        self.todo.extend(survivors)
        self.todo.sort(key=lambda c: c.index)
        return self._rebuild_or_degrade(pool, max_workers)

    # -- entry point ------------------------------------------------------

    def execute(self) -> List[Any]:
        if self.workers == 1:
            self._execute_inline()
        else:
            self._execute_pool()
        if self.quarantined:
            raise CampaignPartialFailure(
                completed={index: self.results[index]
                           for index in sorted(self.committed)},
                failures=self.failures,
                quarantined=tuple(self.quarantined),
                chunks_total=len(self.chunks))
        return self.results


def run_chunked(worker: Callable[[Chunk, np.random.SeedSequence], Any],
                chunks: Sequence[Chunk],
                seed: int,
                *,
                workers: Optional[int] = None,
                progress: Optional[Callable[[ChunkProgress], None]] = None,
                retry: RetryPolicy = RetryPolicy(),
                validator: Optional[Callable[[Chunk, Any],
                                             Optional[str]]] = None,
                completed: Optional[Mapping[int, Any]] = None,
                on_commit: Optional[Callable[[Chunk, Any], None]] = None,
                failure_sink: Optional[List[ChunkFailure]] = None,
                unpack: Optional[Callable[[Any], Any]] = None,
                ) -> List[Any]:
    """Run ``worker(chunk, seed_sequence)`` for every chunk; results in chunk order.

    ``workers=None`` uses every available core (capped at the chunk
    count); ``workers=1`` runs inline with no executor, but through the
    *same* chunk plan and per-chunk seeding, which is what makes the
    serial and parallel paths bit-for-bit comparable.  ``worker`` must be
    picklable for ``workers > 1`` (a module-level function, optionally
    wrapped in :func:`functools.partial` with picklable arguments).

    The returned list is ordered by ``chunk.index`` no matter which
    worker finished first, so a deterministic merge is simply a fold over
    the return value.

    Fault tolerance:

    * ``retry`` — a :class:`~repro.stats.fault_tolerance.RetryPolicy`
      (``max_attempts=1`` quarantines a chunk on its first failure):
      bounded per-chunk retries with backoff+jitter from a dedicated
      non-result RNG, per-chunk ``timeout_s`` (pool path only),
      ``BrokenProcessPool`` recovery and degradation to inline execution
      after ``max_pool_rebuilds`` pool breakages.  Chunks that exhaust
      their attempts are quarantined and the run raises
      :class:`~repro.stats.fault_tolerance.CampaignPartialFailure`
      carrying every completed result and the failure log.
    * ``validator`` — ``validator(chunk, result)`` returns an error
      string to *reject* the result (``None`` accepts).  Rejected
      results are failures of kind ``invalid`` and go through the retry
      path; only validated results are committed (merged, reported,
      checkpointed).
    * ``completed`` — ``{chunk_index: result}`` restored from a
      checkpoint: those chunks are not re-executed, but still occupy
      their slot in the ordered return value, and progress totals start
      from them.
    * ``on_commit`` — called ``(chunk, result)`` once per *committed*
      chunk (checkpoint persistence hook); exceptions are downgraded to
      :class:`RuntimeWarning`.
    * ``failure_sink`` — a caller-owned list every
      :class:`~repro.stats.fault_tolerance.ChunkFailure` is appended to,
      so recovered (non-fatal) faults remain auditable in manifests.

    ``unpack(raw)`` runs on the coordinator for every harvested worker
    output, before validation and commit, converting the transport form
    (e.g. a shared-memory block handle) into the domain result.  A
    failing ``unpack`` is an ordinary retried chunk failure, and
    transport payloads of discarded (timed-out) results are drained so
    their OS resources are released.

    The determinism contract holds throughout — a retried chunk re-runs
    from the same ``SeedSequence`` child, and results commit exactly
    once.

    A raising ``progress`` callback **cannot** corrupt the result: the
    exception is downgraded to a :class:`RuntimeWarning` and execution
    continues — observability failures must never abort a campaign
    (DESIGN §8).  (``KeyboardInterrupt`` is deliberately *not* swallowed
    anywhere: it cancels pending work, tears down the pool and
    propagates, leaving any checkpoint with every committed chunk.)
    """
    chunks = list(chunks)
    if not chunks:
        raise ValueError("run_chunked needs at least one chunk")
    indices = [c.index for c in chunks]
    if sorted(indices) != list(range(len(chunks))):
        raise ValueError(f"chunk indices must be 0..n-1, got {sorted(indices)}")
    completed_map: Dict[int, Any] = dict(completed) if completed else {}
    for index in completed_map:
        if not (0 <= index < len(chunks)):
            raise ValueError(
                f"completed chunk index {index} outside plan 0..{len(chunks) - 1}")
    seeds = _chunk_seeds(seed, len(chunks))
    units_total = math.fsum(c.size for c in chunks)
    if workers is None:
        workers = default_worker_count(len(chunks))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    session = active_session()
    if session is not None:
        metrics = session.metrics
        gauge = metrics.gauge("parallel.workers")
        gauge.set(max(gauge.value, float(min(workers, len(chunks)))))
        for chunk in chunks:
            metrics.histogram("parallel.chunk_size").observe(chunk.size)
        if completed_map:
            metrics.counter("parallel.chunks_resumed").inc(len(completed_map))

    by_index = {c.index: c for c in chunks}
    chunks_resumed = len(completed_map)
    units_resumed = math.fsum(by_index[i].size for i in completed_map)
    done = chunks_resumed
    units_done = units_resumed

    def _report(chunk: Chunk, result: Any) -> None:
        nonlocal done, units_done
        done += 1
        units_done += chunk.size
        if session is not None:
            session.metrics.counter("parallel.chunks").inc()
        if progress is not None:
            try:
                progress(ChunkProgress(
                    chunk_index=chunk.index, chunks_done=done,
                    chunks_total=len(chunks), units_done=units_done,
                    units_total=units_total, result=result,
                    chunks_resumed=chunks_resumed,
                    units_resumed=units_resumed))
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - observability only
                warnings.warn(
                    f"progress callback raised {type(exc).__name__}: {exc}; "
                    f"continuing (results are unaffected)",
                    RuntimeWarning, stacklevel=3)

    with maybe_span("run_chunked"):
        return _ResilientRun(
            worker=worker, chunks=chunks, seeds=seeds, seed=seed,
            workers=workers, retry=retry, validator=validator,
            on_commit=on_commit, report=_report, completed=completed_map,
            failure_sink=failure_sink, unpack=unpack).execute()
