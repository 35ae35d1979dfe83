"""The process-local telemetry session and its no-op disabled path.

One :class:`TelemetrySession` bundles a :class:`~.metrics.MetricsRegistry`
and a :class:`~.tracing.Tracer`.  Hot paths never hold a session; they
ask :func:`active_session` (a single module-global read) and skip all
instrumentation when it returns ``None``.  That makes the disabled path
a true no-op — one attribute load and a ``None`` check per instrumented
*call site*, where call sites are at batch/chunk granularity, never per
encounter (benchmarked ≤ 2 % in
``benchmarks/bench_telemetry_overhead.py``).

Usage::

    from repro.obs import telemetry_session

    with telemetry_session() as session:
        result = run_fleet(...)          # instrumented transparently
    snap = session.snapshot()            # frozen metrics + span tree

Fleet semantics: the coordinator's session is active around
``run_fleet``; every chunk (worker process *or* inline) runs under its
own fresh session, ships a frozen :class:`TelemetrySnapshot` back
alongside its :class:`~repro.traffic.simulator.SimulationResult`, and
the coordinator merges all chunk snapshots **once, in chunk-index
order** via :meth:`TelemetrySnapshot.merge_many` — so the merged
telemetry counters are identical for any worker count, mirroring the
result-determinism contract of :mod:`repro.stats.parallel`.

Hard invariant (DESIGN §8): nothing in this package reads or advances an
RNG stream.  The golden pins in ``tests/traffic/test_golden_stats.py``
run with telemetry enabled *and* disabled to enforce it bit-for-bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional

from .metrics import MetricsRegistry, MetricsSnapshot
from .tracing import SpanNode, Tracer

__all__ = ["TelemetrySession", "TelemetrySnapshot", "telemetry_session",
           "active_session", "maybe_span", "NO_OP_SPAN"]


class _NoOpSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NO_OP_SPAN = _NoOpSpan()
"""The singleton no-op span: ``maybe_span`` returns it whenever no
session is active, so the disabled path allocates nothing."""


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Frozen (picklable) state of one session: metrics + span tree.

    This is what a fleet worker returns alongside its chunk result and
    what a :class:`~repro.obs.manifest.RunManifest` embeds.
    """

    metrics: MetricsSnapshot
    spans: SpanNode

    def to_dict(self) -> Dict[str, object]:
        return {"metrics": self.metrics.to_dict(),
                "spans": self.spans.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TelemetrySnapshot":
        return cls(
            metrics=MetricsSnapshot.from_dict(dict(data["metrics"])),  # type: ignore[arg-type]
            spans=SpanNode.from_dict("", dict(data["spans"])),  # type: ignore[arg-type]
        )

    @classmethod
    def merge_many(cls, snapshots: Iterable["TelemetrySnapshot"],
                   ) -> "TelemetrySnapshot":
        """Merge snapshots; metric values are order-independent.

        Metrics use :meth:`MetricsSnapshot.merge_many` (fsum / exact int
        sums / bucket addition); span trees fold by name with float
        accumulation — span *timings* are observability, outside the
        determinism contract, but counts and structure merge exactly.
        """
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("merge_many needs at least one snapshot")
        spans = SpanNode("")
        for snapshot in snapshots:
            spans.merge(snapshot.spans)
        return cls(metrics=MetricsSnapshot.merge_many(
            [s.metrics for s in snapshots]), spans=spans)


class TelemetrySession:
    """Mutable per-process telemetry state: registry + tracer."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(metrics=self.metrics.snapshot(),
                                 spans=self.tracer.snapshot())

    def absorb(self, snapshot: TelemetrySnapshot,
               under: Optional[str] = None) -> None:
        """Fold a frozen snapshot into this live session.

        ``under`` optionally nests the absorbed span tree below a named
        child of the root (e.g. ``"fleet.chunks"``), keeping worker-side
        spans visually separate from the coordinator's own.
        """
        self.metrics.absorb(snapshot.metrics)
        target = self.tracer.root
        if under is not None:
            target = target.child(under)
        target.merge(snapshot.spans)


_ACTIVE: Optional[TelemetrySession] = None


def active_session() -> Optional[TelemetrySession]:
    """The process-current session, or ``None`` when telemetry is off.

    This is THE hot-path guard: instrumented code does
    ``obs = active_session()`` and skips everything on ``None``.
    """
    return _ACTIVE


def maybe_span(name: str):
    """A live span under the active session, or the shared no-op."""
    session = _ACTIVE
    if session is None:
        return NO_OP_SPAN
    return session.tracer.span(name)


@contextmanager
def telemetry_session() -> Iterator[TelemetrySession]:
    """Install a fresh session as the process-current one.

    Re-entrant: nesting replaces the active session for the inner block
    and restores the outer one afterwards — exactly how the fleet runner
    gives inline (``workers=1``) chunks their own session so the serial
    path uses the same per-chunk telemetry discipline as the pool.
    """
    global _ACTIVE
    previous = _ACTIVE
    session = TelemetrySession()
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous
