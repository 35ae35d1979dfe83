"""What the traced run wraps, and how spans and counts become metrics.

:data:`TARGETS` lists the public functions and class methods wrapped in
a traced run, each as ``(module, attribute, span, hook)``: the span name
names the layer (see :data:`tracer.SPAN_LAYER`); the hook, when given,
is either a count name (the call is counted, not spanned — used for the
≈10⁵ per-op severity-channel calls of splitting) or a callable that
records counts around the call.

Counters the program keeps itself (``engine.*``, ``parallel.*``) are
read from the public :func:`repro.obs.telemetry_session` snapshot around
each campaign or estimator call; when no session is active the hook
opens one, which is part of the measured tracing overhead.

:func:`op_metrics` turns one op's spans and counts into the per-layer
metrics of ``BENCHMARK.json``; the workload supplies the few numbers
only it can know (final file sizes, import and CLI timings, process
usage).  This module imports only the standard library.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import (import_breakdown, importtime_rows, layer_of, self_times,
                    wchar)

MB = 1e6

#: Counts that combine across processes by maximum, not by sum.
HIGH_COUNTS = ("session.parallel.workers", "accel.is_ess_fraction")


def _session_deltas(tracer, run, args, kwargs):
    session_module = sys.modules["repro.obs.session"]
    session = session_module.active_session()
    if session is None:
        with session_module.telemetry_session() as session:
            return _counted_in(session, tracer, run, args, kwargs)
    return _counted_in(session, tracer, run, args, kwargs)


def _instrument_values(snapshot) -> dict:
    values = {}
    for name, instrument in snapshot.instruments.items():
        kind = type(instrument).__name__
        if kind == "HistogramSnapshot":
            values[name + ".count"] = instrument.count
            values[name + ".sum"] = instrument.sum
        elif kind == "GaugeSnapshot":
            values[name + ".gauge"] = instrument.value
        else:
            values[name] = instrument.value
    return values


def _counted_in(session, tracer, run, args, kwargs):
    before = _instrument_values(session.metrics.snapshot())
    try:
        return run(*args, **kwargs)
    finally:
        after = _instrument_values(session.metrics.snapshot())
        for name, value in after.items():
            if name.endswith(".gauge"):
                tracer.high("session." + name[:-len(".gauge")], value)
            else:
                tracer.add("session." + name, value - before.get(name, 0))


def _simulate_mix(tracer, run, args, kwargs):
    tracer.add("simulator.calls")
    return run(*args, **kwargs)


def _sample_batch(tracer, run, args, kwargs):
    batch = run(*args, **kwargs)
    tracer.add("encounters.batches")
    tracer.add("encounters.sampled", len(batch))
    return batch


def _checkpoint_save(tracer, run, args, kwargs):
    before = wchar()
    try:
        return run(*args, **kwargs)
    finally:
        tracer.add("checkpoint.saves")
        tracer.add("checkpoint.written_bytes", wchar() - before)


def _manifest(tracer, run, args, kwargs):
    snapshot = args[0] if args else kwargs["snapshot"]
    pending = [snapshot.spans]
    while pending:
        node = pending.pop()
        tracer.add("telemetry.spans", node.count)
        pending.extend(node.children.values())
    return run(*args, **kwargs)


def _importance(tracer, run, args, kwargs):
    rate = _session_deltas(tracer, run, args, kwargs)
    tracer.counts[tracer.op]["accel.is_ess_fraction"] = \
        rate.diagnostics.ess_fraction
    return rate


def _levels(tracer, run, args, kwargs):
    levels = run(*args, **kwargs)
    tracer.add("splitting.levels", len(levels))
    return levels


def _passage(tracer, run, args, kwargs):
    result = run(*args, **kwargs)
    tracer.add("splitting.passed", args[0].passed)
    tracer.add("splitting.total", args[0].total)
    return result


TARGETS = (
    ("repro.cli", "main", "cli.main", None),
    ("repro.core", "example_norm", "core.norm", None),
    ("repro.core", "figure4_taxonomy", "core.norm", None),
    ("repro.core", "figure5_incident_types", "core.norm", None),
    ("repro.core", "allocate_lp", "core.allocate_lp", None),
    ("repro.core", "derive_safety_goals", "core.goals", None),
    ("repro.core.verification", "verify_against_counts", "core.verify",
     None),
    ("repro.core.review", "confirmation_review", "core.review", None),
    ("repro.reporting", "build_dossier", "reporting.dossier", None),
    ("repro.traffic", "run_fleet", "fleet.run_fleet", _session_deltas),
    ("repro.traffic.fleet", "validate_chunk_output", "fleet.validate", None),
    ("repro.traffic.fleet", "run_chunked", "parallel.run_chunked", None),
    ("repro.traffic.fleet", "simulate_mix", "simulator.simulate_mix",
     _simulate_mix),
    ("repro.traffic.simulator", "SimulationResult.merge_many",
     "simulator.merge", None),
    ("repro.traffic.encounters", "EncounterGenerator.sample_class_batch",
     "encounters.sample", _sample_batch),
    ("repro.traffic.engine", "resolve_block_traced", "engine.resolve", None),
    ("repro.traffic.acceleration", "simulate_importance",
     "engine.importance", None),
    ("repro.traffic.records", "RecordBlock.concat", "records.concat_sort",
     None),
    ("repro.traffic.records", "RecordBlock.canonical_sort",
     "records.concat_sort", None),
    ("repro.traffic.records", "RecordSink.append", "records.sink_append",
     None),
    ("repro.traffic.checkpoint", "CampaignCheckpoint.record",
     "checkpoint.record", None),
    ("repro.traffic.checkpoint", "CampaignCheckpoint.save", None,
     _checkpoint_save),
    ("repro.traffic.checkpoint", "CampaignCheckpoint.load",
     "checkpoint.load", None),
    ("repro.io.artifact", "ArtifactStore.save", "io.save", None),
    ("repro.io.artifact", "ArtifactStore.load", "io.load", None),
    ("os", "fsync", None, "io.fsyncs"),
    ("repro.obs.events", "EventJournal.emit", "events.append", None),
    ("repro.obs.status", "FlightRecorder.on_progress", "status.progress",
     None),
    ("repro.obs.status", "FlightRecorder.observe_restored_checkpoint",
     "status.progress", None),
    ("repro.obs.status", "atomic_write_text", "status.write", None),
    ("repro.obs.status", "classified_counts", "budget.classify", None),
    ("repro.traffic", "type_counts", "budget.classify", None),
    ("repro.obs.budget_monitor", "BudgetMonitor.observe_result",
     "budget.monitor", None),
    ("repro.obs.budget_monitor", "BudgetMonitor.observe_counts",
     "budget.monitor", None),
    ("repro.obs.budget_monitor", "BudgetMonitor.utilisation",
     "budget.monitor", None),
    ("repro.obs", "build_manifest", "telemetry.manifest", _manifest),
    ("repro.obs.manifest", "RunManifest.write", "telemetry.manifest", None),
    ("repro.traffic.acceleration", "importance_collision_rate", "accel.is",
     _importance),
    ("repro.traffic.acceleration", "splitting_collision_rate",
     "accel.splitting", _session_deltas),
    ("repro.traffic.acceleration", "adaptive_levels", None, _levels),
    ("repro.traffic.acceleration", "SeverityChannel.mutate", None,
     "splitting.mutations"),
    ("repro.traffic.acceleration", "SeverityChannel.score", None,
     "splitting.scores"),
    ("repro.stats.splitting", "LevelPassage.__post_init__", None, _passage),
)

#: Per-layer metric -> span names whose self times it sums.
SELF_TIME = {
    "core.norm_s": ("core.norm",),
    "core.allocate_lp_s": ("core.allocate_lp",),
    "core.goals_s": ("core.goals",),
    "core.verify_s": ("core.verify",),
    "core.review_s": ("core.review",),
    "reporting.dossier_s": ("reporting.dossier",),
    "parallel.self_s": ("parallel.run_chunked",),
    "fleet.self_s": ("fleet.run_fleet",),
    "fleet.validate_s": ("fleet.validate",),
    "simulator.self_s": ("simulator.simulate_mix",),
    "simulator.merge_s": ("simulator.merge",),
    "encounters.sample_s": ("encounters.sample",),
    "engine.resolve_s": ("engine.resolve",),
    "engine.importance_s": ("engine.importance",),
    "records.concat_sort_s": ("records.concat_sort",),
    "records.sink_append_s": ("records.sink_append",),
    "checkpoint.record_s": ("checkpoint.record",),
    "checkpoint.load_s": ("checkpoint.load",),
    "io.save_s": ("io.save",),
    "io.load_s": ("io.load",),
    "events.append_s": ("events.append",),
    "status.progress_s": ("status.progress", "status.write"),
    "telemetry.manifest_s": ("telemetry.manifest",),
    "budget.classify_s": ("budget.classify",),
    "budget.monitor_s": ("budget.monitor",),
    "accel.is_s": ("accel.is",),
    "accel.splitting_s": ("accel.splitting",),
}

#: Per-layer metric -> count recorded at a wrapped boundary.
COUNTS = {
    "parallel.chunks": "session.parallel.chunks",
    "parallel.workers": "session.parallel.workers",
    "parallel.bytes_shipped": "session.parallel.bytes_shipped",
    "parallel.retries": "session.parallel.retries",
    "simulator.calls": "simulator.calls",
    "encounters.batches": "encounters.batches",
    "encounters.sampled": "encounters.sampled",
    "engine.batches": "session.engine.batches",
    "checkpoint.saves": "checkpoint.saves",
    "io.fsyncs": "io.fsyncs",
    "telemetry.spans": "telemetry.spans",
    "accel.is_ess_fraction": "accel.is_ess_fraction",
    "splitting.mutations": "splitting.mutations",
    "splitting.scores": "splitting.scores",
    "splitting.levels": "splitting.levels",
}

#: Per-layer metric -> span whose calls it counts.
SPAN_COUNTS = {
    "events.appends": "events.append",
    "status.writes": "status.write",
}

#: Per-layer metrics the workload measures itself (0 where not applicable).
SUPPLIED = (
    "import.total_s", "import.scipy_s", "import.numpy_s", "import.repro_s",
    "cli.goals_s", "cli.verify_s", "cli.review_s", "cli.fleet_s",
    "cli.fleet_is_s", "cli.dossier_s",
    "records.sink_mb", "events.mb", "events.replay_s",
    "proc.cpu_s", "proc.cpu_util", "proc.rss_mb",
)

#: Per-layer metric -> (unit, better), in BENCHMARK.json order.
PER_LAYER = {}
for _name in ("import.total_s", "import.scipy_s", "import.numpy_s",
              "import.repro_s", "cli.goals_s", "cli.verify_s",
              "cli.review_s", "cli.fleet_s", "cli.fleet_is_s",
              "cli.dossier_s", *SELF_TIME, "events.replay_s"):
    PER_LAYER[_name] = ("s", "lower")
for _name in ("parallel.chunks", "parallel.bytes_shipped", "parallel.retries",
              "simulator.calls", "encounters.batches", "engine.batches",
              "checkpoint.saves", "io.fsyncs", "events.appends",
              "status.writes", "telemetry.spans", "splitting.mutations",
              "splitting.scores", "splitting.levels"):
    PER_LAYER[_name] = ("count", "lower")
for _name in ("parallel.workers", "encounters.sampled"):
    PER_LAYER[_name] = ("count", "higher")
for _name in ("records.sink_mb", "checkpoint.written_mb", "events.mb",
              "proc.rss_mb"):
    PER_LAYER[_name] = ("MB", "lower")
PER_LAYER["engine.mean_batch"] = ("count", "higher")
PER_LAYER["checkpoint.write_amplification"] = ("ratio", "lower")
PER_LAYER["accel.is_ess_fraction"] = ("ratio", "higher")
PER_LAYER["splitting.pass_fraction"] = ("ratio", "higher")
PER_LAYER["proc.cpu_s"] = ("s", "lower")
PER_LAYER["proc.cpu_util"] = ("ratio", "higher")


def op_metrics(spans, op, counts, supplied, kept_checkpoint_bytes=0,
               imported=None) -> dict:
    """Every per-layer metric of one op.

    ``spans`` are a tracer's spans, of which those with op id ``op``
    count; ``imported`` maps span indices to import time inside them
    (see :func:`tracer.self_times`); ``counts`` are the op's counts and
    ``supplied`` holds the workload-measured metrics of
    :data:`SUPPLIED`.
    """
    own = self_times(spans, op, imported)
    metrics = {name: sum(own.get(span, 0.0) for span in names)
               for name, names in SELF_TIME.items()}
    metrics.update({name: float(counts.get(key, 0.0))
                    for name, key in COUNTS.items()})
    for name, span in SPAN_COUNTS.items():
        metrics[name] = float(sum(1 for s in spans
                                  if s[0] == span and s[4] == op))
    batches = counts.get("session.engine.batch_size.count", 0.0)
    metrics["engine.mean_batch"] = (
        counts.get("session.engine.batch_size.sum", 0.0) / batches
        if batches else 0.0)
    written = counts.get("checkpoint.written_bytes", 0.0)
    metrics["checkpoint.written_mb"] = written / MB
    metrics["checkpoint.write_amplification"] = (
        written / kept_checkpoint_bytes if kept_checkpoint_bytes else 0.0)
    total = counts.get("splitting.total", 0.0)
    metrics["splitting.pass_fraction"] = (
        counts.get("splitting.passed", 0.0) / total if total else 0.0)
    for name in SUPPLIED:
        metrics[name] = float(supplied.get(name, 0.0))
    return metrics


def layer_self_times(spans, op, imported=None) -> dict:
    """Layer -> self time of the op's spans (the traced report's table)."""
    totals: dict = {}
    for name, value in self_times(spans, op, imported).items():
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + value
    return totals


def child_trace(trace_path: Path, stderr_path: Path) -> dict:
    """Spans, counts and import time of one traced CLI process.

    Each ``-X importtime`` row is charged to the span that was open when
    its module was first imported (-1: before any span).
    """
    with open(trace_path, encoding="utf-8") as handle:
        dump = json.load(handle)
    rows = importtime_rows(stderr_path.read_text(errors="replace"))
    imported: dict = {}
    for module, seconds in rows:
        index = dump["imports"].get(module, -1)
        imported[index] = imported.get(index, 0.0) + seconds
    counts: dict = {}
    for values in dump["counts"].values():
        for name, value in values.items():
            counts[name] = counts.get(name, 0.0) + value
    return {"spans": [[*span[:4], None] for span in dump["spans"]],
            "counts": counts, "imported": imported,
            "imports": import_breakdown(rows)}


def merge_traces(traces):
    """One span list, count table and import map from several processes."""
    spans, counts, imported = [], {}, {}
    for trace in traces:
        offset = len(spans)
        for name, start, end, parent, op in trace["spans"]:
            spans.append([name, start, end,
                          parent + offset if parent >= 0 else -1, op])
        for index, seconds in trace["imported"].items():
            if index >= 0:
                imported[index + offset] = seconds
        for name, value in trace["counts"].items():
            if name in HIGH_COUNTS:
                counts[name] = max(counts.get(name, 0.0), value)
            else:
                counts[name] = counts.get(name, 0.0) + value
    return spans, counts, imported
