"""Fault-tolerance policy types for resilient campaign execution.

The QRN's verification argument (Sec. III / Eq. 1) is only as good as
the fleet exposure actually accumulated; at production scale the
campaign engine has to survive worker crashes, hangs and corrupted
chunk outputs the way the paper's ADS is supposed to survive run-time
risk — degrade gracefully, never corrupt the result.  This module holds
the *policy* side of that story; the execution machinery lives in
:func:`repro.stats.parallel.run_chunked`.

Three guarantees frame everything here:

* **Determinism is untouched.**  A retried chunk re-runs from the same
  ``SeedSequence`` child, so any mix of faults and recoveries yields the
  bit-for-bit identical merged result.  The backoff jitter draws from a
  *dedicated* RNG root (:meth:`RetryPolicy.rng`) that shares no entropy
  path with the chunk streams.
* **Validate-then-commit.**  A chunk result only enters the merge after
  the caller's validator accepts it; rejected outputs are failures and
  go through the retry path, never silently into the statistics.
* **No silent data loss.**  When a chunk exhausts its attempts it is
  *quarantined* and the campaign raises
  :class:`CampaignPartialFailure` carrying every completed result plus
  the full failure log — the caller decides whether partial evidence is
  usable, instead of losing everything to ``future.result()`` re-raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "FAILURE_KINDS",
    "ChunkFailure",
    "RetryPolicy",
    "CampaignPartialFailure",
    "RETRY_STREAM_TAG",
    "journal_chunk_failure",
]


def journal_chunk_failure(failure: "ChunkFailure", *, quarantined: bool,
                          backoff_s: Optional[float] = None) -> None:
    """Journal one recorded fault into the campaign flight recorder.

    Emits ``chunk.failed`` for the fault itself, then either
    ``chunk.quarantined`` (attempts exhausted) or ``chunk.retry`` (with
    the scheduled backoff).  A no-op without an active journal — the
    same one-global-read guard as the telemetry counters next to it —
    and, like them, pure observation: journaling a fault can never
    change what gets retried.
    """
    from ..obs.events import journal_event  # lazy: keep the policy
    # module import-light (obs pulls in the artifact boundary)
    journal_event("chunk.failed", **failure.to_dict())
    if quarantined:
        journal_event("chunk.quarantined", chunk_index=failure.chunk_index,
                      attempts=failure.attempt, kind=failure.kind)
    elif backoff_s is not None:
        journal_event("chunk.retry", chunk_index=failure.chunk_index,
                      attempt=failure.attempt, backoff_s=float(backoff_s))

FAILURE_KINDS = ("exception", "timeout", "pool_broken", "invalid")
"""The fault taxonomy (DESIGN §9):

* ``exception`` — the worker raised (deterministic bug or transient
  environment error);
* ``timeout`` — the worker exceeded the per-chunk deadline and its pool
  was torn down;
* ``pool_broken`` — the process pool died while the chunk was in
  flight (worker process crash / OOM-kill);
* ``invalid`` — the worker returned, but the chunk validator rejected
  the output (corruption detected before commit).
"""

RETRY_STREAM_TAG = 0x52455452  # ASCII "RETR"
"""Entropy tag mixed into the backoff RNG root so it can never collide
with the per-chunk ``SeedSequence(seed).spawn(...)`` children."""


@dataclass(frozen=True)
class ChunkFailure:
    """One recorded fault: which chunk, which attempt, what went wrong.

    ``attempt`` is 1-based (the first execution is attempt 1), so a
    chunk quarantined under ``max_attempts=3`` logs failures with
    attempts 1, 2 and 3.
    """

    chunk_index: int
    attempt: int
    kind: str
    message: str

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; "
                f"choose from {FAILURE_KINDS}")
        if self.chunk_index < 0:
            raise ValueError("chunk_index must be >= 0")
        if self.attempt < 1:
            raise ValueError("attempt is 1-based")

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form for manifests' failure logs."""
        return {"chunk_index": self.chunk_index, "attempt": self.attempt,
                "kind": self.kind, "message": self.message}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter, plus pool limits.

    ``max_attempts`` counts *executions* of one chunk (first try
    included); a chunk whose ``max_attempts``-th execution fails is
    quarantined.  ``timeout_s`` is the per-chunk wall-clock deadline
    enforced on the pool path (the inline path cannot preempt a hung
    worker and documents that).  ``max_pool_rebuilds`` bounds how often a
    broken/hung pool is rebuilt before the runner degrades to inline
    execution for the remaining chunks.

    Backoff for attempt *n* (1-based failure count) is
    ``base * factor**(n-1)`` capped at ``max_backoff_s``, plus uniform
    jitter in ``[0, jitter_s)`` drawn from :meth:`rng` — a dedicated
    non-result stream, so fault handling can never perturb the simulated
    draws.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    jitter_s: float = 0.05
    timeout_s: Optional[float] = None
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or not math.isfinite(self.backoff_base_s):
            raise ValueError("backoff_base_s must be finite and >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff_s < 0:
            raise ValueError("max_backoff_s must be >= 0")
        if self.jitter_s < 0 or not math.isfinite(self.jitter_s):
            raise ValueError("jitter_s must be finite and >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def rng(self, seed: int) -> np.random.Generator:
        """The dedicated backoff/jitter stream for one campaign.

        Rooted at ``SeedSequence([seed, RETRY_STREAM_TAG])`` — a
        different entropy tuple from the chunk-seeding root
        ``SeedSequence(seed)``, hence provably disjoint from every chunk
        child stream.  Jitter timing is pure scheduling; it can never
        reach the results, but keeping it seeded makes chaos tests
        reproducible end to end.
        """
        return np.random.default_rng(
            np.random.SeedSequence([seed, RETRY_STREAM_TAG]))

    def backoff_s(self, failure_count: int,
                  rng: Optional[np.random.Generator] = None) -> float:
        """Delay before the retry following the ``failure_count``-th failure."""
        if failure_count < 1:
            raise ValueError("failure_count is 1-based")
        delay = min(self.backoff_base_s
                    * self.backoff_factor ** (failure_count - 1),
                    self.max_backoff_s)
        if rng is not None and self.jitter_s > 0:
            delay += float(rng.uniform(0.0, self.jitter_s))
        return delay


class CampaignPartialFailure(RuntimeError):
    """Raised when some chunks were quarantined: partial results survive.

    Unlike the pre-fault-tolerance behaviour (one worker exception threw
    away every completed chunk), this exception *carries* the evidence:

    * ``completed`` — ``{chunk_index: result}`` for every committed
      (validated) chunk;
    * ``failures`` — the full :class:`ChunkFailure` log, every attempt;
    * ``quarantined`` — the indices that exhausted their attempts;
    * ``chunks_total`` — the campaign's chunk count.

    Completed results are exactly what an uninterrupted run would have
    produced for those chunks (same seeds), so they can be merged,
    checkpointed, or combined with a later re-run of the quarantined
    indices.
    """

    def __init__(self, *, completed: Dict[int, Any],
                 failures: List[ChunkFailure],
                 quarantined: Tuple[int, ...],
                 chunks_total: int):
        self.completed = dict(completed)
        self.failures = list(failures)
        self.quarantined = tuple(sorted(quarantined))
        self.chunks_total = chunks_total
        kinds = sorted({f.kind for f in failures})
        super().__init__(
            f"campaign partially failed: {len(self.quarantined)} of "
            f"{chunks_total} chunks quarantined "
            f"(indices {list(self.quarantined)}) after "
            f"{len(self.failures)} recorded failure(s) of kind(s) "
            f"{kinds}; {len(self.completed)} completed chunk result(s) "
            f"are attached")

    def failure_log(self) -> List[Dict[str, object]]:
        """The failure log in plain-JSON form (manifest-ready)."""
        return [f.to_dict() for f in self.failures]
