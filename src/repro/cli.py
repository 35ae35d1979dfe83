"""Command-line interface.

Five subcommands cover the workflows a user reaches for before writing
Python:

* ``repro figures [--out DIR]`` — regenerate every paper figure as text;
* ``repro goals [--improvement X] [--json PATH]`` — derive the example
  safety-goal set (optionally calibrated against the human baseline) and
  print/serialise it;
* ``repro verify GOALS.json --counts '{"I1": 3}' --exposure 2e5`` —
  statistical verdicts for a stored goal set against observed counts;
* ``repro review GOALS.json [--counts ... --exposure ...]`` — the
  automated confirmation review (exit 1 on blockers);
* ``repro dossier [--hours H] [--seed S] [--out PATH]`` — run a simulated
  campaign and emit the full safety-case dossier;
* ``repro fleet [--hours H] [--seed S] [--workers N] [--chunk-hours C]
  [--engine E]`` — run a parallel fleet campaign and report the incident
  statistics backing Eq. 1.  Results are bit-for-bit identical for any
  worker count (see DESIGN.md, "Parallel fleet execution"); ``--engine``
  picks the per-core path (vectorized structure-of-arrays by default,
  scalar as the reference oracle).  ``--accelerator is|splitting``
  switches to a variance-reduced collision-rate estimate (DESIGN §11):
  importance sampling under a ``--tilt-*`` proposal with exact
  likelihood-ratio reweighting and ESS diagnostics (exit 5 on a
  degenerate proposal), or multilevel splitting on the near-miss
  severity ladder.

Fault tolerance (DESIGN.md §9): ``--checkpoint PATH`` persists every
committed chunk atomically; ``--resume`` restarts a killed campaign from
that file, re-running only the missing chunks (the merged result is
bit-for-bit the uninterrupted one).  ``--max-attempts`` and
``--chunk-timeout`` tune the per-chunk retry policy.  A campaign that
still cannot finish exits with code 3 and prints its failure log; a
``Ctrl-C`` exits with the conventional 130 after the checkpoint (if any)
has been flushed.

The campaign service (DESIGN §14): ``repro serve --spool DIR`` runs the
crash-safe local job daemon; ``repro submit`` posts a campaign spec to
it (idempotent — the job id is the spec digest, a completed spec is a
cache hit); ``repro jobs`` lists/inspects job records; ``repro cancel``
cancels one.  All client commands discover the daemon through the
spool's ``endpoint.json``, and every refusal is a typed one-line
``error:`` diagnostic (exit 4), including 429 backpressure with its
retry-after hint.

Artifact I/O (DESIGN §10): every JSON artifact the CLI reads — stored
goal sets, campaign checkpoints, inline ``--counts`` payloads — goes
through the :mod:`repro.io` boundary.  A corrupt, truncated, or
mis-typed artifact produces a single ``error: <path>: …`` line on
stderr and exit code **4** (never a traceback); malformed *usage* (a
well-formed ``--counts`` that is not an object, ``--counts`` without
``--exposure``) keeps the conventional exit code 2.  Out-of-range
numeric flags of the paper workflows (``--exposure 0``, ``--confidence
1.5``, a negative count, ``--hours nan``, ``--workers 0``) are typed
errors too — exit 4, never the exit 1 of a violated goal.

The module is import-safe (no work at import time) and `main` takes an
argv list, so tests drive it directly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Optional, Sequence

from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Quantitative Risk Norm (Warg et al., DSN-W 2020) "
                    "— reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figures as text")
    figures.add_argument("--out", type=Path, default=None,
                         help="directory to write one file per figure "
                              "(default: print to stdout)")

    goals = sub.add_parser(
        "goals", help="derive the example safety-goal set")
    goals.add_argument("--improvement", type=float, default=None,
                       help="calibrate the norm as this many times safer "
                            "than the human-driver baseline (default: use "
                            "the Fig. 3 example norm)")
    goals.add_argument("--objective", choices=["max-total", "max-min"],
                       default="max-min", help="LP allocation objective")
    goals.add_argument("--json", type=Path, default=None,
                       help="also write the goal set as JSON here")

    verify = sub.add_parser(
        "verify", help="verify a stored goal set against observed counts")
    verify.add_argument("goals_json", type=Path,
                        help="goal set JSON produced by 'repro goals --json'")
    verify.add_argument("--counts", required=True,
                        help="JSON object of observed counts per incident "
                             "type, e.g. '{\"I1\": 3}'")
    verify.add_argument("--exposure", type=float, required=True,
                        help="exposure over which the counts were observed "
                             "(norm units, typically hours)")
    verify.add_argument("--confidence", type=float, default=0.95)

    review = sub.add_parser(
        "review", help="run the automated confirmation review on a stored "
                       "goal set")
    review.add_argument("goals_json", type=Path)
    review.add_argument("--counts", default=None,
                        help="optional JSON object of observed counts")
    review.add_argument("--exposure", type=float, default=None,
                        help="exposure for the counts (required with "
                             "--counts)")

    dossier = sub.add_parser(
        "dossier", help="simulate a campaign and emit the full dossier")
    dossier.add_argument("--hours", type=float, default=5000.0)
    dossier.add_argument("--seed", type=int, default=2020)
    dossier.add_argument("--scale", type=float, default=1e4,
                         help="norm relaxation factor so the simulated "
                              "campaign can reach verdicts (default 1e4)")
    dossier.add_argument("--out", type=Path, default=None,
                         help="write the dossier here (default: stdout)")
    _add_parallel_flags(dossier)

    fleet = sub.add_parser(
        "fleet", help="run a parallel fleet campaign and report incident "
                      "statistics")
    fleet.add_argument("--hours", type=float, default=2000.0)
    fleet.add_argument("--seed", type=int, default=2020)
    fleet.add_argument("--policy",
                       choices=["cautious", "nominal", "aggressive"],
                       default="nominal")
    fleet.add_argument("--progress", action="store_true",
                       help="stream per-chunk progress to stderr")
    fleet.add_argument("--json", type=Path, default=None,
                       help="also write the campaign summary as JSON here")
    fleet.add_argument("--scale", type=float, default=1e4,
                       help="norm relaxation factor for the telemetry "
                            "budget-utilisation table (default 1e4, as "
                            "for 'repro dossier')")
    fleet.add_argument("--accelerator",
                       choices=["none", "is", "splitting"], default="none",
                       help="rare-event accelerator for the collision-rate "
                            "estimate: 'is' (importance sampling under a "
                            "proposal tilt, exact reweighting), 'splitting' "
                            "(multilevel splitting on the near-miss "
                            "severity ladder), or 'none' (default: the "
                            "standard fleet campaign)")
    fleet.add_argument("--accel-replications", type=int, default=64,
                       help="replications per context stratum for the "
                            "accelerated estimators (default 64)")
    fleet.add_argument("--accel-hours", type=float, default=10.0,
                       help="simulated hours per replication for the "
                            "accelerated estimators (default 10)")
    fleet.add_argument("--tilt-rate", type=float, default=1.0,
                       help="IS proposal: encounter-rate multiplier")
    fleet.add_argument("--tilt-sight", type=float, default=1.0,
                       help="IS proposal: sight-distance scale (<1 makes "
                            "occluded conflicts common)")
    fleet.add_argument("--tilt-speed", type=float, default=0.0,
                       help="IS proposal: counterpart-speed shift in km/h")
    fleet.add_argument("--tilt-degradation", type=float, default=1.0,
                       help="IS proposal: braking-fault occupancy "
                            "multiplier")
    _add_parallel_flags(fleet)

    serve = sub.add_parser(
        "serve", help="run the crash-safe campaign service daemon")
    serve.add_argument("--spool", type=Path, required=True,
                       help="the durable spool directory (job records, "
                            "results, checkpoints, service journal)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: pick a free port; the "
                            "bound address is published to the spool's "
                            "endpoint.json)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="bounded admission queue size; beyond it "
                            "submissions get a typed 429 with Retry-After "
                            "(default 16)")
    serve.add_argument("--max-runners", type=int, default=2,
                       help="concurrent campaign runner processes "
                            "(default 2)")
    serve.add_argument("--lease-ttl", type=float, default=30.0,
                       help="seconds without heartbeat progress before a "
                            "runner is declared hung and its job requeued "
                            "(default 30)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="runner attempts per job before it is marked "
                            "failed (default 3)")
    serve.add_argument("--min-free-mb", type=float, default=128.0,
                       help="free-space low watermark in MiB; below it "
                            "the daemon degrades to cautious mode and "
                            "refuses new work with a typed 507 "
                            "(default 128)")
    serve.add_argument("--critical-free-mb", type=float, default=32.0,
                       help="free-space critical watermark in MiB; below "
                            "it in-flight runners are drained to their "
                            "checkpoints (default 32)")

    submit = sub.add_parser(
        "submit", help="submit a campaign spec to a running service")
    submit.add_argument("--spool", type=Path, required=True,
                        help="the daemon's spool (its endpoint.json names "
                             "the live address)")
    submit.add_argument("--policy",
                        choices=["cautious", "nominal", "aggressive"],
                        default="nominal")
    submit.add_argument("--hours", type=float, default=2000.0)
    submit.add_argument("--seed", type=int, default=2020)
    submit.add_argument("--chunk-hours", type=float, default=None)
    submit.add_argument("--workers", type=int, default=None)
    submit.add_argument("--engine", choices=["vectorized", "scalar"],
                        default="vectorized")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", choices=["high", "normal", "low"],
                        default="normal")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job reaches a terminal state "
                             "(exit 0 done, 1 failed/cancelled)")
    submit.add_argument("--poll-interval", type=float, default=0.2,
                        help="seconds between --wait polls (default 0.2)")
    submit.add_argument("--retries", type=int, default=5,
                        help="honor typed 429/503/507 retry hints with "
                             "capped exponential backoff this many times "
                             "before giving up (default 5; 0 disables)")

    jobs = sub.add_parser(
        "jobs", help="list a service's job records (or inspect one)")
    jobs.add_argument("--spool", type=Path, required=True)
    jobs.add_argument("job_id", nargs="?", default=None,
                      help="inspect this job (record + checkpoint "
                           "progress) instead of listing")
    jobs.add_argument("--json", action="store_true",
                      help="print raw JSON instead of the table")

    cancel = sub.add_parser(
        "cancel", help="cancel one service job")
    cancel.add_argument("--spool", type=Path, required=True)
    cancel.add_argument("job_id")

    fsck = sub.add_parser(
        "fsck", help="audit (and optionally repair) a service spool")
    fsck.add_argument("--spool", type=Path, required=True,
                      help="the spool directory to audit (daemon must "
                           "be stopped for --repair)")
    fsck.add_argument("--repair", action="store_true",
                      help="apply the provably-safe repairs (sweep "
                           "orphans, truncate torn journal tails, requeue "
                           "dangling work) and quarantine the rest")
    fsck.add_argument("--json", action="store_true",
                      help="print the full report as JSON")

    gc = sub.add_parser(
        "gc", help="reclaim spool space under a retention policy")
    gc.add_argument("--spool", type=Path, required=True,
                    help="the spool directory to collect (daemon must "
                         "be stopped)")
    gc.add_argument("--keep-last", type=int, default=8,
                    help="terminal jobs kept per tenant, newest first "
                         "(default 8)")
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="also collect terminal jobs and unreferenced "
                         "results older than this (default: no age "
                         "bound)")
    gc.add_argument("--compact-journal", action="store_true",
                    help="archive the journal chain and start a fresh "
                         "one whose genesis entry names the archive")
    gc.add_argument("--dry-run", action="store_true",
                    help="compute and print the sweep without deleting "
                         "anything")
    gc.add_argument("--json", action="store_true",
                    help="print the report as JSON")

    watch = sub.add_parser(
        "watch", help="render a campaign's live flight-recorder status")
    watch.add_argument("path", type=Path,
                       help="a --flight-recorder directory or its "
                            "status.json")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes (default 2)")
    watch.add_argument("--once", action="store_true",
                       help="render the current status once and exit")

    return parser


def _add_parallel_flags(sub_parser: argparse.ArgumentParser) -> None:
    """The fleet-execution knobs shared by simulation subcommands."""
    sub_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the fleet runner (default: all cores; "
             "the result is identical for any value)")
    sub_parser.add_argument(
        "--chunk-hours", type=float, default=None,
        help="hours per shard handed to one worker (default: 250; part "
             "of the RNG layout, so changing it changes the draws)")
    sub_parser.add_argument(
        "--engine", choices=["vectorized", "scalar"], default="vectorized",
        help="encounter engine: 'vectorized' (structure-of-arrays hot "
             "path, default) or 'scalar' (the reference oracle; also part "
             "of the RNG layout, so the engines' draws differ)")
    sub_parser.add_argument(
        "--telemetry", type=Path, default=None,
        help="enable runtime telemetry and write the RunManifest JSON "
             "(seed, versions, span tree, metrics, budget utilisation) "
             "here; the simulated draws are bitwise unaffected")
    sub_parser.add_argument(
        "--checkpoint", type=Path, default=None,
        help="persist every committed chunk to this campaign checkpoint "
             "(atomic writes; the simulated draws are bitwise unaffected)")
    sub_parser.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint: restore its committed chunks and "
             "re-run only the missing ones (bit-for-bit identical to an "
             "uninterrupted run)")
    sub_parser.add_argument(
        "--max-attempts", type=int, default=None,
        help="per-chunk execution attempts before the chunk is "
             "quarantined and the campaign fails partially (default 3)")
    sub_parser.add_argument(
        "--chunk-timeout", type=float, default=None,
        help="seconds before one chunk execution is declared hung and "
             "retried on a rebuilt pool (default: no timeout)")
    sub_parser.add_argument(
        "--record-sink", type=Path, default=None,
        help="spill every committed chunk's incident records to this "
             "directory as digest-signed repro.record-block/v1 parts "
             "(atomic writes, O(chunk) resident memory; the simulated "
             "draws are bitwise unaffected)")
    sub_parser.add_argument(
        "--flight-recorder", type=Path, default=None,
        help="record the campaign's flight data into this directory: a "
             "digest-chained repro.event-log/v1 journal plus an "
             "atomically updated status.json that 'repro watch DIR' "
             "renders live (the simulated draws are bitwise unaffected); "
             "with --resume an existing journal's chain is continued")
    sub_parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="export the run's span tree and journal events as Chrome "
             "trace-event JSON (chrome://tracing, Perfetto)")
    sub_parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="export the run's merged metrics as Prometheus text "
             "exposition")


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                            figure4_taxonomy, figure5_incident_types)
    from repro.core.severity import IsoSeverity
    from repro.hara.asil import risk_reduction_waterfall
    from repro.hara.controllability import ControllabilityClass
    from repro.hara.exposure import ExposureClass
    from repro.reporting import (figure1_waterfall, figure2_unified_axis,
                                 figure3_risk_norm, figure4_tree,
                                 figure5_assignment)

    norm = example_norm()
    allocation = allocate_lp(norm, list(figure5_incident_types()),
                             objective="max-min")
    goals = derive_safety_goals(allocation)
    waterfalls = [risk_reduction_waterfall(severity, ExposureClass.E4,
                                           ControllabilityClass.C3)
                  for severity in IsoSeverity]
    rendered = {
        "fig1": figure1_waterfall(waterfalls),
        "fig2": figure2_unified_axis(norm),
        "fig3": figure3_risk_norm(allocation),
        "fig4": figure4_tree(figure4_taxonomy()),
        "fig5": figure5_assignment(goals),
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, text in rendered.items():
            (args.out / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {len(rendered)} figures to {args.out}")
    else:
        for name, text in rendered.items():
            print(text)
            print()
    return 0


def _build_goals(improvement: Optional[float], objective: str):
    from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                            figure4_taxonomy, figure5_incident_types,
                            norm_from_human_baseline)

    if improvement is not None:
        norm = norm_from_human_baseline(
            f"{improvement:g}x-human QRN", improvement)
    else:
        norm = example_norm()
    allocation = allocate_lp(norm, list(figure5_incident_types()),
                             objective=objective)
    return derive_safety_goals(allocation, taxonomy=figure4_taxonomy())


def _cmd_goals(args: argparse.Namespace) -> int:
    from repro.core import save_goal_set

    goals = _build_goals(args.improvement, args.objective)
    print(goals.render_all())
    print()
    print(goals.completeness_argument())
    if args.json is not None:
        # Tagged, digest-signed, atomically written (DESIGN §10); older
        # tagless files written before the boundary existed still load.
        save_goal_set(args.json, goals)
        print(f"\ngoal set written to {args.json}")
    return 0


def _parse_counts(text: str) -> Optional[Dict[str, int]]:
    """Parse an inline ``--counts`` payload through the I/O boundary.

    Malformed JSON (or NaN/Infinity tokens, nesting bombs, non-integer
    counts) raises a typed :class:`~repro.errors.ArtifactError` that
    ``main`` turns into a one-line diagnostic and exit code 4.  A
    *well-formed* payload of the wrong top-level shape returns ``None``
    so callers keep the conventional usage-error exit (2).
    """
    from repro.io import ArtifactValidationError, parse_artifact_text

    payload = parse_artifact_text(text, source="--counts")
    if not isinstance(payload, dict):
        return None
    counts: Dict[str, int] = {}
    for key, value in payload.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ArtifactValidationError(
                f"count for {key!r} must be an integer, got {value!r}",
                source="--counts", field=str(key))
        if value < 0:
            raise ArtifactValidationError(
                f"count for {key!r} must be >= 0, got {value}",
                source="--counts", field=str(key))
        counts[str(key)] = int(value)
    return counts


def _positive_finite(value: float) -> bool:
    return value > 0 and math.isfinite(value)


#: attribute -> (flag, requirement, test) for numeric flags, checked
#: before any command runs: a nonsense value is a typed error (exit 4),
#: not a traceback with exit 1, the code ``verify`` and ``review``
#: reserve for a violated goal.
_NUMERIC_FLAGS = {
    "exposure": ("--exposure", "positive and finite", _positive_finite),
    "confidence": ("--confidence", "in (0, 1)", lambda v: 0 < v < 1),
    "hours": ("--hours", "positive and finite", _positive_finite),
    "chunk_hours": ("--chunk-hours", "positive and finite",
                    _positive_finite),
    "workers": ("--workers", ">= 1", lambda v: v >= 1),
    "improvement": ("--improvement", ">= 1 and finite",
                    lambda v: 1 <= v < math.inf),
    "scale": ("--scale", "positive and finite", _positive_finite),
}


def _check_numeric_flags(args: argparse.Namespace) -> None:
    for attribute, (flag, requirement, valid) in _NUMERIC_FLAGS.items():
        value = getattr(args, attribute, None)
        if value is not None and not valid(value):
            raise ReproError(f"{flag} must be {requirement}, got {value:g}")


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core import load_goal_set
    from repro.core.verification import verify_against_counts

    goals = load_goal_set(args.goals_json)
    counts = _parse_counts(args.counts)
    if counts is None:
        print("--counts must be a JSON object", file=sys.stderr)
        return 2
    report = verify_against_counts(goals, counts, args.exposure,
                                   confidence=args.confidence)
    print(report.summary())
    return 0 if not report.any_violated else 1


def _default_mix() -> Dict[str, float]:
    """The canonical context mix (one definition, in :mod:`repro.traffic`)."""
    from repro.traffic import DEFAULT_MIX
    return dict(DEFAULT_MIX)


def _retry_policy(args: argparse.Namespace):
    """The :class:`~repro.stats.RetryPolicy` the CLI flags describe.

    Out-of-range values (``--chunk-timeout 0``, a negative
    ``--max-attempts``) are caught at this boundary and surface as a
    one-line typed diagnostic (exit 4), never a constructor traceback.
    """
    from repro.stats import RetryPolicy

    overrides = {}
    if getattr(args, "max_attempts", None) is not None:
        overrides["max_attempts"] = args.max_attempts
    if getattr(args, "chunk_timeout", None) is not None:
        overrides["timeout_s"] = args.chunk_timeout
    try:
        return RetryPolicy(**overrides)
    except ValueError as exc:
        raise ReproError(f"invalid retry policy: {exc}") from exc


def _run_campaign(policy, hours: float, seed: int,
                  workers: Optional[int], chunk_hours: Optional[float],
                  engine: str = "vectorized", progress=None,
                  retry=None, checkpoint=None, resume: bool = False,
                  failure_sink=None, record_sink=None):
    """One fleet campaign over the default world and context mix."""
    from repro.traffic import (DEFAULT_CHUNK_HOURS, DEFAULT_RETRY_POLICY,
                               BrakingSystem, EncounterGenerator,
                               default_context_profiles, default_perception,
                               run_fleet)

    world = EncounterGenerator(default_context_profiles())
    return run_fleet(
        policy, world, default_perception(), BrakingSystem(), _default_mix(),
        hours, seed, workers=workers,
        chunk_hours=DEFAULT_CHUNK_HOURS if chunk_hours is None
        else chunk_hours,
        engine=engine, progress=progress,
        retry=DEFAULT_RETRY_POLICY if retry is None else retry,
        checkpoint=checkpoint, resume=resume, failure_sink=failure_sink,
        record_sink=record_sink)


def _open_record_sink(args: argparse.Namespace):
    """The --record-sink spill directory as a context, or a no-op."""
    if getattr(args, "record_sink", None) is None:
        return nullcontext(None)
    from repro.traffic import RecordSink
    return RecordSink(args.record_sink)


def _open_recorder(args: argparse.Namespace, goals=None, types=None):
    """The --flight-recorder directory as a context, or a no-op.

    A pre-existing journal without ``--resume`` raises
    ``FileExistsError`` — the same same-path discipline (and exit code
    2) as ``--checkpoint``.
    """
    if getattr(args, "flight_recorder", None) is None:
        return nullcontext(None)
    from repro.obs import FlightRecorder
    return FlightRecorder(args.flight_recorder, goals=goals, types=types,
                          resume=bool(getattr(args, "resume", False)))


def _campaign_session(args: argparse.Namespace):
    """A telemetry session when any consumer of one was requested."""
    if args.telemetry is None and args.trace_out is None \
            and args.metrics_out is None:
        return nullcontext()
    from repro.obs import telemetry_session
    return telemetry_session()


def _write_exports(args: argparse.Namespace, session, recorder) -> None:
    """The --trace-out / --metrics-out leg, after the campaign ended."""
    if session is None or (args.trace_out is None
                           and args.metrics_out is None):
        return
    from repro.obs import (read_journal, write_chrome_trace,
                           write_prometheus)

    snapshot = session.snapshot()
    if args.trace_out is not None:
        events = ()
        if recorder is not None:
            events, _ = read_journal(recorder.journal_path)
        write_chrome_trace(args.trace_out, snapshot.spans, events)
        print(f"trace exported to {args.trace_out}")
    if args.metrics_out is not None:
        write_prometheus(args.metrics_out, snapshot.metrics)
        print(f"metrics exported to {args.metrics_out}")


def _scaled_goals(scale: float):
    """The sim-scale goal set both simulation subcommands verify against."""
    from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                            figure4_taxonomy, figure5_incident_types)

    norm = example_norm().tightened(scale, name="sim-scale QRN")
    types = list(figure5_incident_types())
    allocation = allocate_lp(norm, types, objective="max-min")
    return derive_safety_goals(allocation, taxonomy=figure4_taxonomy()), types


def _campaign_telemetry(args: argparse.Namespace, session, campaign,
                        goals, types, *, command: str, summary=None,
                        failure_log=None, event_log=None):
    """Budget utilisation + manifest for one telemetry-enabled campaign.

    Returns ``(snapshot, budget_report)`` and writes the
    :class:`~repro.obs.manifest.RunManifest` to ``args.telemetry``.
    ``failure_log`` is the campaign's recovered-fault audit trail (a
    sequence of :class:`~repro.stats.ChunkFailure` entries), embedded in
    the manifest when non-empty.
    """
    from repro.obs import BudgetMonitor, build_manifest
    from repro.stats import plan_chunks
    from repro.traffic import DEFAULT_CHUNK_HOURS

    snapshot = session.snapshot()
    monitor = BudgetMonitor(goals)
    monitor.observe_result(campaign, types)
    budget_report = monitor.utilisation()
    chunk_hours = (DEFAULT_CHUNK_HOURS if args.chunk_hours is None
                   else args.chunk_hours)
    manifest = build_manifest(
        snapshot, command=command, seed=args.seed, engine=args.engine,
        policy=campaign.policy_name, hours=args.hours, mix=_default_mix(),
        workers=args.workers, chunk_hours=chunk_hours,
        n_chunks=len(plan_chunks(args.hours, chunk_hours)),
        budget_report=budget_report, summary=summary,
        failure_log=(None if not failure_log
                     else [entry.to_dict() for entry in failure_log]),
        event_log=event_log)
    manifest.write(args.telemetry)
    print(f"telemetry manifest written to {args.telemetry}")
    return snapshot, budget_report


def _cmd_dossier(args: argparse.Namespace) -> int:
    from repro.core.verification import verify_against_counts
    from repro.reporting import build_dossier
    from repro.stats import CampaignPartialFailure
    from repro.traffic import (CheckpointMismatchError, cautious_policy,
                               type_counts)

    goals, types = _scaled_goals(args.scale)

    context = _campaign_session(args)
    failure_sink: list = []
    try:
        with context as session, _open_record_sink(args) as record_sink, \
                _open_recorder(args, goals, types) as recorder:
            if recorder is not None and args.resume \
                    and args.checkpoint is not None \
                    and Path(args.checkpoint).exists():
                recorder.observe_restored_checkpoint(args.checkpoint)
            progress = None
            if recorder is not None:
                progress = recorder.on_progress
            campaign = _run_campaign(
                cautious_policy(), args.hours, args.seed, args.workers,
                args.chunk_hours, args.engine, progress=progress,
                retry=_retry_policy(args),
                checkpoint=args.checkpoint, resume=args.resume,
                failure_sink=failure_sink, record_sink=record_sink)
    except (FileExistsError, CheckpointMismatchError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except CampaignPartialFailure as exc:
        print(f"dossier campaign failed partially: {exc}", file=sys.stderr)
        return 3
    if record_sink is not None:
        spilled = record_sink.summary()
        print(f"record sink: {spilled['parts']} parts, "
              f"{spilled['records']} records → {spilled['directory']}")
    counts, _ = type_counts(campaign, types)
    report = verify_against_counts(goals, counts, campaign.hours)
    snapshot = budget_report = None
    if args.telemetry is not None and session is not None:
        snapshot, budget_report = _campaign_telemetry(
            args, session, campaign, goals, types, command="repro dossier",
            failure_log=failure_sink,
            event_log=(None if recorder is None
                       else str(recorder.journal_path)))
    _write_exports(args, session, recorder)
    text = build_dossier(goals, report, telemetry=snapshot,
                         budget_utilisation=budget_report)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"dossier written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_accelerated(args: argparse.Namespace, policy) -> int:
    """The ``repro fleet --accelerator is|splitting`` branch.

    Runs a variance-reduced collision-rate estimate over the default
    world and context mix instead of the standard campaign, and reports
    the estimate with its error bar (plus weight diagnostics for IS).
    Exit 5 on a degenerate IS proposal (weight alarm tripped) — the
    estimate cannot be trusted and the tilt needs re-choosing.
    """
    from repro.stats import WeightDegeneracyError
    from repro.traffic import (BrakingSystem, EncounterGenerator,
                               ProposalTilt, accelerated_collision_rate,
                               default_context_profiles, default_perception)

    try:
        tilt = ProposalTilt(rate_scale=args.tilt_rate,
                            sight_scale=args.tilt_sight,
                            speed_shift_kmh=args.tilt_speed,
                            degradation_scale=args.tilt_degradation)
    except ValueError as exc:
        print(f"error: invalid proposal tilt: {exc}", file=sys.stderr)
        return 2
    world = EncounterGenerator(default_context_profiles())
    try:
        rate = accelerated_collision_rate(
            policy, world, default_perception(), BrakingSystem(),
            _default_mix(), accelerator=args.accelerator, seed=args.seed,
            tilt=tilt, replications_per_stratum=args.accel_replications,
            hours_per_replication=args.accel_hours)
    except WeightDegeneracyError as exc:
        print(f"importance weights degenerate: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = rate.as_result()
    print(f"ACCELERATED ESTIMATE — method {rate.method!r}, "
          f"policy {policy.name!r}, seed {args.seed}")
    print(f"  collision rate:  {result.mean:.4e} /h "
          f"(se {result.std_error:.2e}, {result.replications} replications)")
    lo, hi = result.ci()
    print(f"  95% CI:          [{lo:.4e}, {hi:.4e}]")
    for stratum in rate.estimate.strata:
        print(f"  {stratum.context}: {stratum.result.mean:.4e} /h "
              f"(se {stratum.result.std_error:.2e}, "
              f"weight {stratum.weight:g})")
    if rate.diagnostics is not None:
        diag = rate.diagnostics
        print(f"  weights:         ESS {diag.ess:.0f}/{diag.count} "
              f"({diag.ess_fraction:.1%}), max share "
              f"{diag.max_weight_fraction:.1%}")
    if args.json is not None:
        args.json.write_text(json.dumps(rate.to_dict(), indent=2))
        print(f"summary written to {args.json}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core import figure5_incident_types
    from repro.obs import ThroughputMeter
    from repro.stats import CampaignPartialFailure
    from repro.traffic import (CheckpointMismatchError, policy_by_name,
                               type_counts)

    policy = policy_by_name(args.policy)

    if args.accelerator != "none":
        return _cmd_accelerated(args, policy)

    meter = ThroughputMeter()

    def show_progress(update) -> None:
        # Rates and ETA come from the ThroughputMeter over the metrics
        # the fleet runner streams — not ad-hoc arithmetic per call site.
        # Chunks restored from a checkpoint are excluded via the baseline
        # so a resumed campaign's rate/ETA reflect work actually done
        # *this* run, not the banked exposure.
        from repro.obs import format_bytes
        eta = meter.eta_s(update.hours_done, update.hours_total,
                          baseline=update.hours_resumed)
        eta_text = f"{eta:.0f} s" if math.isfinite(eta) else "--"
        resumed = (f" ({update.chunks_resumed} restored)"
                   if update.chunks_resumed else "")
        print(f"chunk {update.chunks_done}/{update.chunks_total}{resumed}: "
              f"{update.hours_done:.0f}/{update.hours_total:.0f} h, "
              f"{update.encounters_resolved} encounters, "
              f"{update.incidents_found} incidents, "
              f"{update.hard_braking_demands} hard-braking demands | "
              f"{meter.rate_per_s(update.chunks_done, baseline=update.chunks_resumed):.2f} chunks/s, "
              f"{meter.rate_per_s(update.encounters_resolved):.0f} "
              f"encounters/s, ETA {eta_text} | "
              f"{update.transport or '?'}, "
              f"{format_bytes(update.bytes_shipped)} shipped",
              file=sys.stderr)

    context = _campaign_session(args)
    recorder_goals = recorder_types = None
    if args.flight_recorder is not None:
        recorder_goals, recorder_types = _scaled_goals(args.scale)
    failure_sink: list = []
    try:
        with context as session, _open_record_sink(args) as record_sink, \
                _open_recorder(args, recorder_goals,
                               recorder_types) as recorder:
            if recorder is not None and args.resume \
                    and args.checkpoint is not None \
                    and Path(args.checkpoint).exists():
                recorder.observe_restored_checkpoint(args.checkpoint)
            progress = None
            if recorder is not None or args.progress:
                def progress(update) -> None:
                    if recorder is not None:
                        recorder.on_progress(update)
                    if args.progress:
                        show_progress(update)
            campaign = _run_campaign(
                policy, args.hours, args.seed, args.workers,
                args.chunk_hours, args.engine,
                progress=progress,
                retry=_retry_policy(args), checkpoint=args.checkpoint,
                resume=args.resume, failure_sink=failure_sink,
                record_sink=record_sink)
    except (FileExistsError, CheckpointMismatchError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except CampaignPartialFailure as exc:
        print(f"fleet campaign failed partially: {exc}", file=sys.stderr)
        # Deterministic diagnostics: the append order of the failure log
        # depends on thread timing, so sort by (chunk, attempt) before
        # printing — identical campaigns print identical reports.
        for failure in sorted(exc.failures,
                              key=lambda f: (f.chunk_index, f.attempt)):
            print(f"  chunk {failure.chunk_index} attempt "
                  f"{failure.attempt} [{failure.kind}]: {failure.message}",
                  file=sys.stderr)
        print(f"  quarantined chunks: "
              f"{', '.join(map(str, exc.quarantined))}", file=sys.stderr)
        if args.checkpoint is not None:
            print(f"  completed chunks persisted to {args.checkpoint}; "
                  f"rerun with --resume after fixing the fault",
                  file=sys.stderr)
        return 3
    types = list(figure5_incident_types())
    counts, unclassified = type_counts(campaign, types)
    # Cheap columnar counters — no record materialisation for the summary.
    collisions = campaign.collision_count()
    near_misses = campaign.num_records - collisions
    summary = {
        "policy": campaign.policy_name,
        "hours": campaign.hours,
        "seed": args.seed,
        "engine": args.engine,
        "context_hours": dict(campaign.context_hours),
        "encounters_resolved": campaign.encounters_resolved,
        "incidents": campaign.num_records,
        "collisions": collisions,
        "near_misses": near_misses,
        "collision_rate_per_hour": campaign.collision_rate_per_hour(),
        "hard_braking_demands": campaign.hard_braking_demands,
        "hard_braking_rate_per_hour": campaign.hard_braking_rate_per_hour(),
        "type_counts": counts,
        "unclassified": unclassified,
    }
    print(f"FLEET CAMPAIGN — policy {campaign.policy_name!r}, "
          f"{campaign.hours:g} h, seed {args.seed}, engine {args.engine}")
    print(f"  encounters resolved:   {campaign.encounters_resolved}")
    print(f"  incidents recorded:    {campaign.num_records} "
          f"({collisions} collisions, {near_misses} near-misses)")
    print(f"  collision rate:        "
          f"{campaign.collision_rate_per_hour():.3e} /h")
    print(f"  hard-braking demands:  {campaign.hard_braking_demands} "
          f"({campaign.hard_braking_rate_per_hour():.3e} /h "
          f"> {campaign.hard_braking_threshold_ms2:g} m/s²)")
    for type_id, count in sorted(counts.items()):
        print(f"  {type_id}: {count}")
    if record_sink is not None:
        spilled = record_sink.summary()
        summary["record_sink"] = spilled
        print(f"  record sink:           {spilled['parts']} parts, "
              f"{spilled['records']} records "
              f"({spilled['bytes_written']} bytes) → "
              f"{spilled['directory']}")
    if failure_sink:
        print(f"  recovered faults:      {len(failure_sink)} "
              f"(campaign result unaffected; see telemetry failure log)")
    if args.telemetry is not None and session is not None:
        goals, goal_types = _scaled_goals(args.scale)
        _, budget_report = _campaign_telemetry(
            args, session, campaign, goals, goal_types,
            command="repro fleet", summary=summary,
            failure_log=failure_sink,
            event_log=(None if recorder is None
                       else str(recorder.journal_path)))
        print()
        print(budget_report.render())
    _write_exports(args, session, recorder)
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=2))
        print(f"summary written to {args.json}")
    return 0


def _cmd_review(args: argparse.Namespace) -> int:
    from repro.core import load_goal_set
    from repro.core.review import Severity, confirmation_review
    from repro.core.verification import verify_against_counts

    goals = load_goal_set(args.goals_json)
    report = None
    if args.counts is not None:
        if args.exposure is None:
            print("--exposure is required with --counts", file=sys.stderr)
            return 2
        counts = _parse_counts(args.counts)
        if counts is None:
            print("--counts must be a JSON object", file=sys.stderr)
            return 2
        report = verify_against_counts(goals, counts, args.exposure)
    findings = confirmation_review(goals, report)
    if not findings:
        print("confirmation review: no mechanical findings")
        return 0
    for finding in findings:
        print(finding.render())
    blockers = sum(1 for f in findings if f.severity is Severity.BLOCKER)
    print(f"\n{len(findings)} finding(s), {blockers} blocker(s)")
    return 1 if blockers else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    try:
        return serve(args.spool, host=args.host, port=args.port,
                     queue_limit=args.queue_limit,
                     max_runners=args.max_runners,
                     lease_ttl_s=args.lease_ttl,
                     max_attempts=args.max_attempts,
                     low_free_bytes=int(args.min_free_mb * 1024 * 1024),
                     critical_free_bytes=int(
                         args.critical_free_mb * 1024 * 1024))
    except ValueError as exc:
        # Bad knobs (e.g. --queue-limit 0) fail the CLI contract way:
        # one `error:` line, exit 4, no traceback.
        raise ReproError(f"invalid service configuration: {exc}") from exc


def _cmd_submit(args: argparse.Namespace) -> int:
    import time

    from repro.service import TERMINAL_STATES, ServiceClient

    spec: Dict[str, object] = {"policy": args.policy,
                               "hours": args.hours, "seed": args.seed,
                               "engine": args.engine}
    if args.chunk_hours is not None:
        spec["chunk_hours"] = args.chunk_hours
    if args.workers is not None:
        spec["workers"] = args.workers
    client = ServiceClient.from_spool(args.spool, retries=args.retries)
    reply = client.submit(spec, tenant=args.tenant,
                          priority=args.priority)
    job = reply["job"]
    verb = ("cached" if reply["cached"]
            else "accepted" if reply["created"] else "already submitted")
    print(f"job {job['job_id']} {verb} "
          f"(state {job['state']}, tenant {job['tenant']}, "
          f"priority {job['priority']})")
    if not args.wait:
        return 0
    while job["state"] not in TERMINAL_STATES:
        time.sleep(args.poll_interval)
        job = client.job(str(job["job_id"]))["job"]
    print(f"job {job['job_id']} finished: {job['state']}"
          + (f" ({job['error']})" if job.get("error") else ""))
    return 0 if job["state"] == "done" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient.from_spool(args.spool)
    if args.job_id is not None:
        status = client.job(args.job_id)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        job = status["job"]
        print(f"job {job['job_id']}: {job['state']} "
              f"(tenant {job['tenant']}, priority {job['priority']}, "
              f"attempts {job['attempts']})")
        checkpoint = status.get("checkpoint")
        if checkpoint:
            print(f"  checkpoint: {checkpoint['chunks_banked']} chunks "
                  f"banked, {checkpoint['hours_banked']:g} h "
                  f"(indices {checkpoint['chunk_indices']})")
        if job.get("chunks_resumed") is not None:
            print(f"  chunks resumed on final attempt: "
                  f"{job['chunks_resumed']}")
        if job.get("error"):
            print(f"  error: {job['error']}")
        return 0
    jobs = client.jobs()
    if args.json:
        print(json.dumps({"jobs": jobs}, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs in the spool")
        return 0
    for job in jobs:
        print(f"{job['job_id']}  {job['state']:<9}  "
              f"tenant={job['tenant']}  priority={job['priority']}  "
              f"attempts={job['attempts']}  "
              f"hours={job['spec']['hours']:g}  "
              f"seed={job['spec']['seed']}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient.from_spool(args.spool)
    reply = client.cancel(args.job_id)
    job = reply["job"]
    print(f"job {job['job_id']} cancelled (was tenant {job['tenant']})")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.service import fsck_spool

    report = fsck_spool(args.spool, repair=args.repair)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.clean else 1
    for finding in report.findings:
        action = f"  [{finding.repair}]" if finding.repair else ""
        print(f"{finding.kind}: {finding.path}{action}")
        print(f"  {finding.detail}")
    summary = ", ".join(f"{kind} x{count}" for kind, count
                        in sorted(report.counts().items())) or "clean"
    print(f"fsck {report.root}: {report.jobs_checked} jobs, "
          f"{report.results_checked} results, "
          f"{report.checkpoints_checked} checkpoints, "
          f"{report.journal_entries} journal entries — {summary}"
          + (" (repaired)" if args.repair and report.findings else ""))
    return 0 if report.clean else 1


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.service import RetentionPolicy, run_gc

    try:
        policy = RetentionPolicy(
            keep_last=args.keep_last,
            max_age_s=(None if args.max_age_days is None
                       else args.max_age_days * 86400.0))
    except ValueError as exc:
        raise ReproError(f"invalid retention policy: {exc}") from exc
    report = run_gc(args.spool, policy,
                    compact=args.compact_journal, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    verb = "would collect" if report.dry_run else "collected"
    print(f"gc {report.root}: {verb} {report.jobs_collected} jobs, "
          f"{report.results_collected} results, "
          f"{report.checkpoints_collected} checkpoints, "
          f"{report.scratch_collected} scratch files "
          f"({report.bytes_reclaimed} bytes); retained "
          f"{report.jobs_retained} terminal + {report.live_jobs} live")
    if report.journal_compacted:
        print(f"journal compacted (archive: {report.journal_archive})")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from repro.obs import read_status, render_status
    from repro.obs.status import STATUS_FILENAME

    path = Path(args.path)
    if path.is_dir():
        path = path / STATUS_FILENAME
    terminal = {"finished", "failed", "interrupted"}
    while True:
        if not path.exists():
            if args.once:
                print(f"no status artifact at {path}", file=sys.stderr)
                return 2
            print(f"waiting for {path} ...", file=sys.stderr)
            time.sleep(args.interval)
            continue
        doc = read_status(path)
        print(render_status(doc))
        state = doc.get("state")
        if args.once or state in terminal:
            return 1 if state == "failed" else 0
        time.sleep(args.interval)
        print()


_COMMANDS = {
    "figures": _cmd_figures,
    "goals": _cmd_goals,
    "verify": _cmd_verify,
    "review": _cmd_review,
    "dossier": _cmd_dossier,
    "fleet": _cmd_fleet,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "cancel": _cmd_cancel,
    "fsck": _cmd_fsck,
    "gc": _cmd_gc,
    "watch": _cmd_watch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numeric_flags(args)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # The typed artifact-error taxonomy (DESIGN §10): corrupt,
        # truncated, mis-typed, or wrong-schema artifacts surface as a
        # single diagnostic line — the message already names the file
        # (or inline flag) that failed — never as a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        # The fleet runner has already cancelled pending futures and torn
        # the pool down; every committed chunk is in the checkpoint (if
        # one was requested), so a later --resume picks up cleanly.  130
        # is the conventional 128 + SIGINT exit status.
        checkpoint = getattr(args, "checkpoint", None)
        hint = (f"; committed chunks are in {checkpoint} — rerun with "
                f"--resume" if checkpoint is not None else "")
        print(f"interrupted{hint}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
