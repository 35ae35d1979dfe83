"""Observability: metrics, spans, manifests, flight recorder.

This package is the runtime telemetry layer the QRN stack reports
through (ROADMAP: "production-scale stack needs visibility").  All of it
is deliberately RNG-free (DESIGN §8):

* :mod:`~repro.obs.metrics` — Counter / Gauge / Histogram instruments
  in a process-local :class:`MetricsRegistry`; frozen snapshots merge
  associatively across fleet workers.
* :mod:`~repro.obs.tracing` — aggregated wall-clock span trees
  (``with maybe_span("resolve_batch"): ...``), no-op when disabled.
* :mod:`~repro.obs.manifest` — the :class:`RunManifest` JSON artifact
  a ``--telemetry PATH`` campaign writes, its budget table included.
* :mod:`~repro.obs.events` — the flight recorder's digest-chained
  event journal (``repro.event-log/v1``) and its exact replay.
* :mod:`~repro.obs.status` — the recorder itself plus the atomically
  rewritten live status file ``repro watch`` renders.
* :mod:`~repro.obs.export` — Chrome trace-event and Prometheus text
  exporters for external viewers/scrapers.
* :mod:`~repro.obs.profiling` — per-chunk wall/CPU/RSS gauges folded
  into the ordinary mergeable metrics.

No module here decides a budget verdict: every budget table (manifest,
status file, ``budget.verdict`` events) is the row form of
:func:`repro.core.verification.verify_against_counts`.

Enable telemetry with :func:`telemetry_session`; hot paths guard on
:func:`active_session` returning ``None`` so the disabled path costs one
module-global read per instrumented call site.  The journal follows the
same discipline via :func:`journal_event` / :func:`active_journal`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".metrics": ("SIZE_BUCKETS", "Counter", "CounterSnapshot", "Gauge",
                 "GaugeSnapshot", "Histogram", "HistogramSnapshot",
                 "MetricsRegistry", "MetricsSnapshot", "ThroughputMeter"),
    ".tracing": ("SpanNode", "Tracer"),
    ".session": ("NO_OP_SPAN", "TelemetrySession", "TelemetrySnapshot",
                 "active_session", "maybe_span", "telemetry_session"),
    ".manifest": ("MANIFEST_SCHEMA", "RunManifest", "build_manifest",
                  "collect_versions", "git_sha"),
    ".events": ("EVENT_KINDS", "EVENT_LOG_SCHEMA", "EventJournal",
                "EventRecord", "JournalReplay", "active_journal",
                "journal_event", "read_journal", "recording_journal",
                "replay_journal"),
    ".status": ("STATUS_SCHEMA", "FlightRecorder", "format_bytes",
                "format_duration", "read_status", "render_status"),
    ".export": ("chrome_trace_events", "chrome_trace_json", "prometheus_text",
                "write_chrome_trace", "write_prometheus"),
    ".profiling": ("TIME_BUCKETS", "profile_chunk", "rss_peak_mb"),
})
