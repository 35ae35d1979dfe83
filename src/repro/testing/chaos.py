"""Deterministic fault injection for the campaign engine's chaos tier.

The fault-tolerance layer of :func:`repro.stats.parallel.run_chunked`
claims that *any* mix of worker crashes, hangs, pool breakage and
corrupted outputs yields a merged result bit-for-bit identical to a
fault-free run.  That claim is only testable if the faults themselves
are reproducible — so this harness scripts them:

* a :class:`ChaosScript` maps ``chunk_index -> (fault, fault, ...)``:
  the chunk's first execution suffers the first fault, its second the
  second, and once the script runs out the chunk succeeds.  Scripts can
  be written literally (to pin one recovery path per test) or generated
  from a seeded RNG via :meth:`ChaosScript.from_seed` (property tests).
* a :class:`ChaosWorker` wraps the real (picklable) chunk worker and
  applies the script.  Which execution this is ("attempt") is claimed
  crash-safely through ``O_CREAT | O_EXCL`` marker files in a shared
  ``state_dir`` (:func:`repro.io.faults.claim_hit`, the same claim the
  filesystem fault hook counts its hits with) — worker processes share
  no memory, and the victim of an ``exit`` fault never gets to report
  back, so in-process counters cannot work.  The coordinator serialises
  a chunk's executions, so the claim is race-free.

Fault kinds (:data:`CHAOS_FAULT_KINDS`):

``raise``
    the worker raises :class:`ChaosError` — exercises the per-chunk
    retry path (``kind="exception"``).
``exit``
    the worker process dies with ``os._exit`` — exercises
    ``BrokenProcessPool`` recovery (pool rebuild / degradation).  Never
    script this for an inline (``workers=1``) run: it would kill the
    coordinator process itself.
``hang``
    the worker sleeps ``hang_s`` — exercises the per-chunk timeout and
    pool teardown.  Pool runs only, and only with a ``timeout_s`` well
    below ``hang_s``.
``garbage``
    the worker runs the real chunk, then returns
    ``corruptor(result)`` instead — exercises validate-then-commit
    (``kind="invalid"``).

The injection decision depends only on ``(chunk_index, execution
number)`` — never on the chunk's RNG stream — so the simulated draws
are untouched and a recovered campaign must reproduce the fault-free
result exactly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

import numpy as np

from ..io.faults import claim_hit

__all__ = ["CHAOS_FAULT_KINDS", "ChaosError", "ChaosScript", "ChaosWorker",
           "replace_with_garbage"]

CHAOS_FAULT_KINDS = ("raise", "exit", "hang", "garbage")


class ChaosError(RuntimeError):
    """The injected worker exception (fault kind ``raise``)."""


class ChaosGarbage:
    """Default corrupted output: not a chunk result of any valid shape.

    Any honest validator must reject it, which is exactly the point —
    it stands in for "the worker returned bytes that deserialised into
    nonsense".
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<ChaosGarbage>"


def replace_with_garbage(result: Any) -> Any:
    """The default corruptor: discard the real result entirely."""
    return ChaosGarbage()


@dataclass(frozen=True)
class ChaosScript:
    """A deterministic per-chunk fault plan.

    ``faults[i]`` is the tuple of fault kinds chunk ``i``'s successive
    executions suffer; executions beyond the tuple succeed.  ``hang_s``
    is the sleep used by ``hang`` faults and ``exit_code`` the status of
    ``exit`` faults.  ``corruptor`` transforms the genuine result for
    ``garbage`` faults and must be picklable (a module-level function).
    """

    faults: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)
    hang_s: float = 30.0
    exit_code: int = 23
    corruptor: Callable[[Any], Any] = replace_with_garbage

    def __post_init__(self) -> None:
        for index, kinds in self.faults.items():
            if index < 0:
                raise ValueError("chunk indices must be >= 0")
            for kind in kinds:
                if kind not in CHAOS_FAULT_KINDS:
                    raise ValueError(
                        f"unknown chaos fault {kind!r} for chunk {index}; "
                        f"choose from {CHAOS_FAULT_KINDS}")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")

    def fault_for(self, chunk_index: int, execution: int) -> str:
        """The fault for a chunk's ``execution``-th run (1-based), or ``"ok"``."""
        kinds = self.faults.get(chunk_index, ())
        if 1 <= execution <= len(kinds):
            return kinds[execution - 1]
        return "ok"

    @classmethod
    def from_seed(cls, seed: int, n_chunks: int, *,
                  fault_rate: float = 0.3,
                  max_faults_per_chunk: int = 2,
                  kinds: Tuple[str, ...] = ("raise", "garbage"),
                  **kwargs: Any) -> "ChaosScript":
        """Generate a random (but fully reproducible) script.

        Draws from its own ``SeedSequence([seed, 0xC4A05])`` root — a
        chaos plan must never share entropy with the campaign's result
        streams.  Defaults to recoverable kinds only (``raise`` /
        ``garbage``), so generated scripts are safe for inline runs too.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        for kind in kinds:
            if kind not in CHAOS_FAULT_KINDS:
                raise ValueError(f"unknown chaos fault {kind!r}")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4A05]))
        faults: Dict[int, Tuple[str, ...]] = {}
        for index in range(n_chunks):
            if rng.uniform() >= fault_rate:
                continue
            count = int(rng.integers(1, max_faults_per_chunk + 1))
            faults[index] = tuple(
                kinds[int(rng.integers(0, len(kinds)))]
                for _ in range(count))
        return cls(faults=faults, **kwargs)


@dataclass(frozen=True)
class ChaosWorker:
    """Picklable wrapper injecting scripted faults around a real worker.

    ``state_dir`` must be an existing directory shared by every worker
    process (a pytest ``tmp_path`` is ideal); it accumulates one empty
    marker file per execution, which is how attempt numbers survive
    process death.  Plug into the fleet runner via
    ``run_fleet(..., wrap_worker=lambda w: ChaosWorker(w, script, dir))``
    or hand ``ChaosWorker(worker, script, dir)`` straight to
    :func:`repro.stats.parallel.run_chunked`.
    """

    inner: Callable[..., Any]
    script: ChaosScript
    state_dir: str

    def executions(self, chunk_index: int) -> int:
        """How many executions of a chunk have been claimed so far."""
        count = 0
        while os.path.exists(os.path.join(
                self.state_dir, f"chunk{chunk_index}.exec{count + 1}")):
            count += 1
        return count

    def __call__(self, chunk: Any, seed_seq: Any) -> Any:
        execution = claim_hit(self.state_dir, f"chunk{chunk.index}.exec")
        fault = self.script.fault_for(chunk.index, execution)
        if fault == "raise":
            raise ChaosError(
                f"injected crash: chunk {chunk.index} execution {execution}")
        if fault == "exit":
            os._exit(self.script.exit_code)
        if fault == "hang":
            time.sleep(self.script.hang_s)
            # If the timeout machinery failed to reclaim us, fall through
            # and behave: the test then fails on the timeout metric, not
            # by wedging the suite.
        result = self.inner(chunk, seed_seq)
        if fault == "garbage":
            return self.script.corruptor(result)
        return result
