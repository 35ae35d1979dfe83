"""Command-line interface.

Seven subcommands cover the workflows a user reaches for before writing
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
  severity ladder;
* ``repro watch DIR`` — render a ``--flight-recorder`` campaign's live
  status.

Fault tolerance (DESIGN.md §9): ``--checkpoint PATH`` appends every
committed chunk to a signed log; ``--resume`` restarts a killed campaign
from that file (cutting a torn last append first), re-running only the
missing chunks (the merged result is bit-for-bit the uninterrupted
one).  ``--max-attempts`` and ``--chunk-timeout`` tune the per-chunk
retry policy.  A campaign that still cannot finish exits with code 3
and prints its failure log; one that finished while its checkpoint
still lacks a chunk (the append kept failing) exits 4 naming the
unlogged chunks; a ``Ctrl-C`` exits with the conventional 130 after the
checkpoint (if any) has been flushed.

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
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
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
    # The six importance-sampling flags default to None so a flag given
    # without --accelerator is can be refused; _IS_FLAGS holds defaults.
    fleet.add_argument("--accel-replications", type=int, default=None,
                       help="replications per context stratum for the "
                            "accelerated estimators (default 64)")
    fleet.add_argument("--accel-hours", type=float, default=None,
                       help="simulated hours per replication for the "
                            "accelerated estimators (default 10)")
    fleet.add_argument("--tilt-rate", type=float, default=None,
                       help="IS proposal: encounter-rate multiplier")
    fleet.add_argument("--tilt-sight", type=float, default=None,
                       help="IS proposal: sight-distance scale (<1 makes "
                            "occluded conflicts common)")
    fleet.add_argument("--tilt-speed", type=float, default=None,
                       help="IS proposal: counterpart-speed shift in km/h")
    fleet.add_argument("--tilt-degradation", type=float, default=None,
                       help="IS proposal: braking-fault occupancy "
                            "multiplier")
    _add_parallel_flags(fleet)

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
        help="worker processes for the fleet runner, never more than "
             "the chunks left to run (default: 1 when the campaign's "
             "expected encounters are too few to pay for starting a "
             "pool, else all cores; the result is identical for any "
             "value)")
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
             "(one appended, fsync'd line per chunk; the simulated draws "
             "are bitwise unaffected)")
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
    print()
    allocation = goals.allocation
    for goal in goals:
        rows = [f"{row} at {100 * allocation.utilisation(row):.0f} %"
                if row in allocation.norm.class_ids else row
                for row in allocation.binding()[goal.type_id]]
        print(f"{goal.goal_id} is set by {' and '.join(rows)}")
    if args.json is not None:
        # Tagged, digest-signed, atomically written (DESIGN §10): the one
        # form `verify` and `review` read back.
        save_goal_set(args.json, goals)
        print(f"\ngoal set written to {args.json}")
    return 0


def _parse_counts(text: str, goals) -> Optional[Dict[str, int]]:
    """Parse an inline ``--counts`` payload through the I/O boundary.

    Malformed JSON (or NaN/Infinity tokens, nesting bombs, non-integer
    counts) and a count for an incident type the loaded goal set does
    not have raise a typed :class:`~repro.errors.ArtifactError` that
    ``main`` turns into a one-line diagnostic and exit code 4.  A
    *well-formed* payload of the wrong top-level shape returns ``None``
    so callers keep the conventional usage-error exit (2).
    """
    from repro.io import ArtifactValidationError, parse_artifact_text

    payload = parse_artifact_text(text, source="--counts")
    if not isinstance(payload, dict):
        return None
    known = goals.allocation.type_ids
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
        if key not in known:
            raise ArtifactValidationError(
                f"incident type {key!r} is not in the goal set "
                f"(its types: {', '.join(known)})",
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
    counts = _parse_counts(args.counts, goals)
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


@dataclass
class _Campaign:
    """A finished campaign and the durable legs that watched it: the
    telemetry session, record sink and flight recorder (``None`` where
    no flag asked for one) and the recovered-fault log."""

    result: object = None
    session: object = None
    record_sink: object = None
    recorder: object = None
    failures: list = field(default_factory=list)


def _campaign(args: argparse.Namespace, policy, goals=None, types=None,
              show=None):
    """The one campaign runner of ``fleet`` and ``dossier``.

    Opens the telemetry session, record sink and flight recorder the
    flags ask for, restores the ``--resume`` checkpoint once for the
    recorder and the run, and feeds every committed chunk to the
    recorder and then to ``show``.  Returns the :class:`_Campaign`, or
    the exit code of one that did not finish: 2 when a checkpoint or
    journal clashes with the flags (an existing one without
    ``--resume``, a mismatched identity), 3 after the per-chunk report
    of a campaign that quarantined chunks.
    """
    from repro.obs import telemetry_session
    from repro.stats import CampaignPartialFailure
    from repro.traffic import (CampaignCheckpoint, CheckpointMismatchError,
                               RecordSink)

    restored = None
    if args.resume and args.checkpoint is not None:
        # A provably torn tail (the append in flight when the last run
        # died) is cut and reported; interior damage raises (exit 4).
        restored, cut = CampaignCheckpoint.resume(args.checkpoint)
        if cut:
            print(f"checkpoint {args.checkpoint}: cut a torn tail of {cut} "
                  f"bytes (an append the last run did not finish); "
                  f"resuming from {len(restored.chunks)} banked chunks",
                  file=sys.stderr)
    run = _Campaign()
    try:
        with ExitStack() as stack:
            if any(path is not None for path in (
                    args.telemetry, args.trace_out, args.metrics_out)):
                run.session = stack.enter_context(telemetry_session())
            if args.record_sink is not None:
                run.record_sink = stack.enter_context(
                    RecordSink(args.record_sink))
            if args.flight_recorder is not None:
                from repro.obs import FlightRecorder

                run.recorder = stack.enter_context(FlightRecorder(
                    args.flight_recorder, goals=goals, types=types,
                    resume=args.resume))
                if restored is not None:
                    run.recorder.observe_restored_checkpoint(restored)
            progress = None
            if run.recorder is not None or show is not None:
                def progress(update) -> None:
                    if run.recorder is not None:
                        run.recorder.on_progress(update)
                    if show is not None:
                        show(update)
            run.result = _run_campaign(
                policy, args.hours, args.seed, args.workers,
                args.chunk_hours, args.engine, progress=progress,
                retry=_retry_policy(args),
                checkpoint=args.checkpoint if restored is None else restored,
                resume=args.resume, failure_sink=run.failures,
                record_sink=run.record_sink)
    except (FileExistsError, CheckpointMismatchError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except CampaignPartialFailure as exc:
        print(f"{args.command} campaign failed partially: {exc}",
              file=sys.stderr)
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
    return run


def _write_exports(args: argparse.Namespace, run: _Campaign) -> None:
    """The --trace-out / --metrics-out leg, after the campaign ended."""
    if args.trace_out is None and args.metrics_out is None:
        return
    from repro.obs import (read_journal, write_chrome_trace,
                           write_prometheus)

    snapshot = run.session.snapshot()
    if args.trace_out is not None:
        events = ()
        if run.recorder is not None:
            events, _ = read_journal(run.recorder.journal_path)
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


def _campaign_telemetry(args: argparse.Namespace, run: _Campaign, report,
                        *, summary=None):
    """The manifest of one telemetry-enabled campaign.

    ``report`` is the campaign's
    :class:`~repro.core.verification.VerificationReport`, whose rows
    are the manifest's budget table.  Writes the
    :class:`~repro.obs.manifest.RunManifest` to ``args.telemetry``, with
    the campaign's recovered-fault log when it is non-empty, and
    returns the telemetry snapshot.
    """
    from repro.obs import build_manifest
    from repro.stats import plan_chunks
    from repro.traffic import DEFAULT_CHUNK_HOURS

    campaign = run.result
    snapshot = run.session.snapshot()
    chunk_hours = (DEFAULT_CHUNK_HOURS if args.chunk_hours is None
                   else args.chunk_hours)
    # The pool size the campaign started with (stats.parallel.pool_size),
    # also when --workers was not given.
    workers = int(snapshot.metrics.instruments["parallel.workers"].value)
    manifest = build_manifest(
        snapshot, command=f"repro {args.command}", seed=args.seed,
        engine=args.engine, policy=campaign.policy_name, hours=args.hours,
        mix=_default_mix(), workers=workers, chunk_hours=chunk_hours,
        n_chunks=len(plan_chunks(args.hours, chunk_hours)),
        budget_report=report, summary=summary,
        failure_log=(None if not run.failures
                     else [entry.to_dict() for entry in run.failures]),
        event_log=(None if run.recorder is None
                   else str(run.recorder.journal_path)))
    manifest.write(args.telemetry)
    print(f"telemetry manifest written to {args.telemetry}")
    return snapshot


def _cmd_dossier(args: argparse.Namespace) -> int:
    from repro.core.verification import verify_against_counts
    from repro.reporting import build_dossier
    from repro.traffic import cautious_policy, type_counts

    goals, types = _scaled_goals(args.scale)
    run = _campaign(args, cautious_policy(), goals, types)
    if isinstance(run, int):
        return run
    if run.record_sink is not None:
        spilled = run.record_sink.summary()
        print(f"record sink: {spilled['parts']} parts, "
              f"{spilled['records']} records → {spilled['directory']}")
    counts, _ = type_counts(run.result, types)
    report = verify_against_counts(goals, counts, run.result.hours)
    snapshot = None
    if args.telemetry is not None:
        snapshot = _campaign_telemetry(args, run, report)
    _write_exports(args, run)
    text = build_dossier(goals, report, telemetry=snapshot)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"dossier written to {args.out}")
    else:
        print(text)
    return 0


#: ``fleet`` flags only importance sampling reads: attribute -> (flag,
#: default).  Any of them without ``--accelerator is`` is a usage error.
_IS_FLAGS = {
    "accel_replications": ("--accel-replications", 64),
    "accel_hours": ("--accel-hours", 10.0),
    "tilt_rate": ("--tilt-rate", 1.0),
    "tilt_sight": ("--tilt-sight", 1.0),
    "tilt_speed": ("--tilt-speed", 0.0),
    "tilt_degradation": ("--tilt-degradation", 1.0),
}


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

    for attribute, (_, default) in _IS_FLAGS.items():
        if getattr(args, attribute) is None:
            setattr(args, attribute, default)
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
    # A rate is >= 0, so clipping the normal interval there loses no
    # coverage.
    lo, hi = result.ci()
    print(f"  95% CI:          [{max(0.0, lo):.4e}, {hi:.4e}]")
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
    from repro.traffic import policy_by_name, type_counts

    policy = policy_by_name(args.policy)

    ignored = [flag for attribute, (flag, _) in _IS_FLAGS.items()
               if getattr(args, attribute) is not None]
    if ignored and args.accelerator != "is":
        print(f"error: only --accelerator is reads {', '.join(ignored)}",
              file=sys.stderr)
        return 2
    if args.accelerator != "none":
        return _cmd_accelerated(args, policy)

    meter = ThroughputMeter()
    encounters_run = 0

    def show_progress(update) -> None:
        # Rates and ETA come from the ThroughputMeter over the metrics
        # the fleet runner streams — not ad-hoc arithmetic per call site.
        # A resumed campaign's rates count only the work done *this* run:
        # chunks and hours above the restored baseline, and the
        # encounters of the chunks it resolved (restored chunks send no
        # update), never the banked exposure.
        nonlocal encounters_run
        from repro.obs import format_bytes
        encounters_run += update.result.encounters_resolved
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
              f"{meter.rate_per_s(encounters_run):.0f} "
              f"encounters/s, ETA {eta_text} | "
              f"{update.transport or '?'}, "
              f"{format_bytes(update.bytes_shipped)} shipped",
              file=sys.stderr)

    if args.flight_recorder is not None or args.telemetry is not None:
        # One solve serves the recorder and the manifest: the goal set is
        # deterministic (the MECE certificate decides a fixed set of cells).
        goals, types = _scaled_goals(args.scale)
    else:
        goals, types = None, list(figure5_incident_types())
    run = _campaign(args, policy, goals, types,
                    show_progress if args.progress else None)
    if isinstance(run, int):
        return run
    campaign = run.result
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
    if run.record_sink is not None:
        spilled = run.record_sink.summary()
        summary["record_sink"] = spilled
        print(f"  record sink:           {spilled['parts']} parts, "
              f"{spilled['records']} records "
              f"({spilled['bytes_written']} bytes) → "
              f"{spilled['directory']}")
    if run.failures:
        print(f"  recovered faults:      {len(run.failures)} "
              f"(campaign result unaffected; see telemetry failure log)")
    if args.telemetry is not None:
        from repro.core.verification import verify_against_counts

        report = verify_against_counts(goals, counts, campaign.hours)
        _campaign_telemetry(args, run, report, summary=summary)
        print()
        print(report.summary())
    _write_exports(args, run)
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
        counts = _parse_counts(args.counts, goals)
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
    "watch": _cmd_watch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and args.checkpoint is None:
        # Without a checkpoint nothing is restored: the run would start
        # afresh and append a second campaign to a continued journal.
        print("error: --resume needs --checkpoint, the campaign log it "
              "restores", file=sys.stderr)
        return 2
    try:
        _check_numeric_flags(args)
        code = _COMMANDS[args.command](args)
        # Flush here, so a reader that left early surfaces below rather
        # than in the interpreter's exit flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro goals | head -1``).  Point stdout
        # at devnull so the exit flush cannot raise again; 141 is
        # 128 + SIGPIPE, what a shell reports for a writer the signal
        # killed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
