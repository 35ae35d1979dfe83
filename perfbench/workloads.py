"""The benchmark's four workloads: set-up, one op, and the op's check.

Each workload runs as a closed loop with one client: ``run.py`` starts
the next op only after the previous one returned and was checked.  An op
returns whatever its check needs; :meth:`Workload.check` raises
:class:`CheckFailed` when the program's output is wrong, which the
runner counts as a failed op.

Why these four (every one is a delay a QRN user waits on):

* ``cli-session`` — one pass of fresh ``python -m repro`` processes
  (goals, verify, review, default fleet, IS fleet, dossier).  Import and
  worker-pool start-up dominate small default campaigns; engine and
  checkpoint changes should not move it.
* ``campaign`` — a warm 100 kh ``repro fleet --workers 1`` campaign
  (≈1.08 M encounters, 400 chunks): sampling, resolution and per-chunk
  simulator overhead, import outside the op.
* ``campaign-durable`` — a 10 kh campaign with checkpoint, record sink,
  flight recorder and telemetry on, then a resume of the finished
  checkpoint: the checkpoint/io/events/status/sink/telemetry layers that
  do no work in ``campaign``.
* ``rare-event`` — an importance-sampling estimate on the calibrated
  1e-7/h fault-channel stack plus a multilevel-splitting estimate on the
  default stack (urban, ladder capped at 6 levels): tilted proposals,
  short replications with log-weights and the splitting ladder, none of
  which ``campaign`` exercises.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

from coldstart import prepare

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
"""Tiny sizes for the benchmark's self-test (the repo's smoke switch)."""

CHILD_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """The program's output for one op is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def cli_main(argv):
    """``(exit code, stdout)`` of an in-process ``repro.cli.main(argv)``.

    ``main`` is looked up at call time, so a traced run's wrapper on it
    applies.
    """
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = sys.modules["repro.cli"].main([str(arg) for arg in argv])
    return code, buffer.getvalue()


def run_child(argv, env, stdout_path: Path, stderr_path: Path):
    """Run one child process to completion.

    Returns ``(exit code, wall seconds, resource usage)``; the usage is
    the child's own (``wait4``), so its peak RSS is that one process's.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage


class Workload:
    """One workload: ``setup`` once, then ``op`` + ``check`` per op."""

    name = ""

    def __init__(self, seed: int, root: Path, workdir: Path, env: dict):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = env
        self.inputs: dict = {}

    def setup(self) -> None:
        self.inputs = prepare(self.name)

    def op(self, op_dir: Path, tracer=None):
        raise NotImplementedError

    def check(self, op_dir: Path, out) -> None:
        raise NotImplementedError

    def supplied(self, op_dir: Path, out) -> dict:
        """Per-layer metrics only the workload can measure (traced ops)."""
        return {}

    def kept_checkpoint_bytes(self, op_dir: Path) -> int:
        return 0


class CliSession(Workload):
    name = "cli-session"

    #: (label, argv after ``python -m repro``); ``{G}``/``{F}`` are files
    #: of the op, ``{seed}``/``{counts}``/``{exposure}`` come from the seed.
    COMMANDS = (
        ("goals", ("goals", "--json", "{G}")),
        ("verify", ("verify", "{G}", "--counts", "{counts}",
                    "--exposure", "{exposure}")),
        ("review", ("review", "{G}")),
        ("fleet", ("fleet", "--seed", "{seed}", "--json", "{F}")),
        ("fleet_is", ("fleet", "--accelerator", "is", "--tilt-rate", "3",
                      "--seed", "{seed}")),
        ("dossier", ("dossier", "--seed", "{seed}")),
    )
    SMOKE_ARGS = {"fleet": ("--hours", "200"),
                  "fleet_is": ("--accel-replications", "4",
                               "--accel-hours", "2"),
                  "dossier": ("--hours", "200")}

    def setup(self) -> None:
        super().setup()
        from repro.core import (allocate_lp, derive_safety_goals,
                                example_norm, figure4_taxonomy,
                                figure5_incident_types)
        from repro.core.review import Severity, confirmation_review
        from repro.core.verification import verify_against_counts

        goals = derive_safety_goals(
            allocate_lp(example_norm(), list(figure5_incident_types()),
                        objective="max-min"),
            taxonomy=figure4_taxonomy())
        draw = random.Random(self.seed)
        self.counts = {"I1": draw.randrange(5), "I2": draw.randrange(3),
                       "I3": draw.randrange(3)}
        self.exposure = draw.choice((1e5, 1e6, 1e7, 1e8))
        verdicts = verify_against_counts(goals, self.counts, self.exposure)
        blockers = [f for f in confirmation_review(goals, None)
                    if f.severity is Severity.BLOCKER]
        self.goals_text = goals.render_all()
        self.expected_codes = {
            "goals": 0, "verify": 1 if verdicts.any_violated else 0,
            "review": 1 if blockers else 0, "fleet": 0, "fleet_is": 0,
            "dossier": 0}
        # References for the parallel commands: the in-process serial
        # path, which the worker-count determinism contract says the
        # default (all cores) run must reproduce exactly.
        reference = self.workdir / "reference-fleet.json"
        code, _ = cli_main([*self.argv("fleet", F=reference), "--workers",
                            "1"])
        expect(code == 0, f"reference fleet exited {code}")
        self.fleet_reference = read_json(reference)
        self.stdout_reference = {}
        for label in ("fleet_is", "dossier"):
            code, text = cli_main([*self.argv(label), "--workers", "1"])
            expect(code == 0, f"reference {label} exited {code}")
            self.stdout_reference[label] = text

    def argv(self, label: str, **files) -> list:
        template = dict(self.COMMANDS)[label]
        values = {"seed": self.seed, "counts": json.dumps(self.counts),
                  "exposure": repr(self.exposure), **files}
        argv = [part.format(**values) for part in template]
        if SMOKE:
            argv += self.SMOKE_ARGS.get(label, ())
        return argv

    def op(self, op_dir: Path, tracer=None):
        files = {"G": op_dir / "goals.json", "F": op_dir / "fleet.json"}
        results = {}
        for label, _ in self.COMMANDS:
            argv = [sys.executable, "-m", "repro",
                    *self.argv(label, **files)]
            if tracer is not None:
                argv = [sys.executable, "-X", "importtime",
                        str(self.root / "perfbench" / "clichild.py"),
                        str(op_dir / f"{label}.trace.json"), *argv[3:]]
            results[label] = run_child(argv, self.env,
                                       op_dir / f"{label}.out",
                                       op_dir / f"{label}.err")
        return results

    def check(self, op_dir: Path, out) -> None:
        from repro.core import load_goal_set

        for label, (code, _, _) in out.items():
            expect(code == self.expected_codes[label],
                   f"{label} exited {code}, expected "
                   f"{self.expected_codes[label]}")
        stdout = {label: (op_dir / f"{label}.out").read_text()
                  for label in out}
        expect(stdout["goals"].startswith(self.goals_text),
               "goals printed a different goal set")
        load_goal_set(op_dir / "goals.json")  # digest verified on load
        expect(read_json(op_dir / "fleet.json") == self.fleet_reference,
               "default-workers fleet summary differs from the --workers 1 "
               "reference")
        for label, text in self.stdout_reference.items():
            expect(stdout[label] == text,
                   f"{label} output differs from the --workers 1 reference")

    def usage(self, out) -> tuple:
        """(CPU seconds, peak RSS in MB of the largest child) of a pass."""
        cpu = sum(u.ru_utime + u.ru_stime for _, _, u in out.values())
        rss = max(u.ru_maxrss for _, _, u in out.values()) * 1024 / 1e6
        return cpu, rss


class Campaign(Workload):
    name = "campaign"
    HOURS = 2000.0 if SMOKE else 100000.0

    def argv(self, summary: Path) -> list:
        return ["fleet", "--hours", self.HOURS, "--workers", "1",
                "--seed", self.seed, "--json", summary]

    def setup(self) -> None:
        super().setup()
        from repro.core import figure5_incident_types
        from repro.traffic import (DEFAULT_MIX, BrakingSystem,
                                   default_perception, nominal_policy,
                                   run_fleet, type_counts)

        world = self.inputs["world"]
        result = run_fleet(nominal_policy(), world, default_perception(),
                           BrakingSystem(), DEFAULT_MIX, self.HOURS,
                           self.seed, workers=1)
        counts, unclassified = type_counts(result,
                                           list(figure5_incident_types()))
        self.reference = {
            "hours": result.hours,
            "context_hours": dict(result.context_hours),
            "encounters_resolved": result.encounters_resolved,
            "incidents": result.num_records,
            "collisions": result.collision_count(),
            "hard_braking_demands": result.hard_braking_demands,
            "type_counts": counts,
            "unclassified": unclassified,
        }
        # Encounter arrivals are Poisson in each (context, class): a
        # campaign that drops sampling work falls far outside 6 sigma.
        self.expected_encounters = math.fsum(
            hours * world.profile(context).total_rate()
            for context, hours in result.context_hours.items())

    def op(self, op_dir: Path, tracer=None):
        return cli_main(self.argv(op_dir / "summary.json"))[0]

    def check(self, op_dir: Path, out) -> None:
        expect(out == 0, f"fleet exited {out}")
        summary = read_json(op_dir / "summary.json")
        for key, value in self.reference.items():
            expect(summary.get(key) == value,
                   f"summary {key} = {summary.get(key)!r}, reference "
                   f"{value!r}")
        spread = 6.0 * math.sqrt(self.expected_encounters)
        expect(abs(summary["encounters_resolved"]
                   - self.expected_encounters) <= spread,
               f"{summary['encounters_resolved']} encounters resolved, "
               f"expected {self.expected_encounters:.0f} ± {spread:.0f}")


class CampaignDurable(Workload):
    name = "campaign-durable"
    HOURS = 1000.0 if SMOKE else 10000.0

    def base_argv(self) -> list:
        return ["fleet", "--hours", self.HOURS, "--workers", "1",
                "--seed", self.seed]

    def setup(self) -> None:
        super().setup()
        reference = self.workdir / "reference.json"
        code, _ = cli_main([*self.base_argv(), "--json", reference])
        expect(code == 0, f"bare reference campaign exited {code}")
        self.reference = read_json(reference)

    def op(self, op_dir: Path, tracer=None):
        run, _ = cli_main([
            *self.base_argv(), "--checkpoint", op_dir / "checkpoint.json",
            "--record-sink", op_dir / "sink",
            "--flight-recorder", op_dir / "recorder",
            "--telemetry", op_dir / "manifest.json",
            "--json", op_dir / "run.json"])
        resume, _ = cli_main([
            *self.base_argv(), "--checkpoint", op_dir / "checkpoint.json",
            "--resume", "--json", op_dir / "resume.json"])
        return run, resume

    def check(self, op_dir: Path, out) -> None:
        from repro.obs import RunManifest, replay_journal
        from repro.traffic import CampaignCheckpoint, load_record_blocks

        expect(out == (0, 0), f"run/resume exited {out}")
        run = read_json(op_dir / "run.json")
        sink = run.pop("record_sink", None)
        reference = self.reference
        expect(run == reference, "durable run summary differs from the "
                                 "bare reference")
        expect(read_json(op_dir / "resume.json") == reference,
               "resume summary differs from the bare reference")
        # Every artifact loads with its digest verified.
        checkpoint = CampaignCheckpoint.load(op_dir / "checkpoint.json")
        chunks = math.ceil(self.HOURS / 250.0)
        expect(len(checkpoint.chunk_indices()) == chunks,
               f"checkpoint banks {len(checkpoint.chunk_indices())} of "
               f"{chunks} chunks")
        records = len(load_record_blocks(op_dir / "sink"))
        expect(sink is not None and sink["records"] == records
               == reference["incidents"],
               f"record sink holds {records} records, summary "
               f"{reference['incidents']}")
        manifest = RunManifest.read(op_dir / "manifest.json")
        expect(manifest.summary.get("encounters_resolved")
               == reference["encounters_resolved"],
               "manifest summary differs from the run summary")
        start = time.perf_counter()
        replay = replay_journal(op_dir / "recorder" / "journal.jsonl")
        self.replay_s = time.perf_counter() - start
        replayed = {"hours": replay.hours,
                    "encounters_resolved": replay.encounters_resolved,
                    "incidents": replay.incidents_found,
                    "collisions": replay.collisions,
                    "hard_braking_demands": replay.hard_braking_demands,
                    "type_counts": replay.type_counts()}
        for key, value in replayed.items():
            expect(value == reference[key],
                   f"journal replay {key} = {value!r}, summary "
                   f"{reference[key]!r}")

    def supplied(self, op_dir: Path, out) -> dict:
        journal = op_dir / "recorder" / "journal.jsonl"
        return {"records.sink_mb": read_json(op_dir / "run.json")
                ["record_sink"]["bytes_written"] / 1e6,
                "events.mb": journal.stat().st_size / 1e6,
                "events.replay_s": self.replay_s}

    def kept_checkpoint_bytes(self, op_dir: Path) -> int:
        return (op_dir / "checkpoint.json").stat().st_size


class RareEvent(Workload):
    name = "rare-event"
    IS_SIZE = (dict(replications_per_stratum=8, hours_per_replication=2.0)
               if SMOKE else
               dict(replications_per_stratum=128,
                    hours_per_replication=20.0))
    #: The adaptive ladder's depth follows the seed (4 to 12 levels per
    #: channel at the default ``max_levels=12``), which made the op's work
    #: vary twofold between seeds; a 6-level cap with 160 particles keeps
    #: the work nearly the same for every seed at a comparable share of
    #: the op.  The estimate stays unbiased for any ladder.
    SPLITTING_SIZE = (dict(runs=2, particles=64) if SMOKE
                      else dict(particles=160, max_levels=6))
    #: The IS weight alarm's defaults (``importance_collision_rate``).
    MIN_ESS_FRACTION = 0.01
    MAX_WEIGHT_SHARE = 0.5

    def setup(self) -> None:
        super().setup()
        self.reference = self.estimate()

    def estimate(self):
        # Looked up at call time, so a traced run's wrappers apply.
        acceleration = sys.modules["repro.traffic.acceleration"]
        stacks = self.inputs["stacks"]
        importance = acceleration.importance_collision_rate(
            **stacks["is"], seed=self.seed, **self.IS_SIZE)
        splitting = acceleration.splitting_collision_rate(
            **stacks["splitting"], seed=self.seed, **self.SPLITTING_SIZE)
        return importance, splitting

    def op(self, op_dir: Path, tracer=None):
        importance, splitting = self.estimate()
        (op_dir / "estimates.json").write_text(json.dumps(
            {"is": importance.to_dict(), "splitting": splitting.to_dict()}))
        return importance, splitting

    def check(self, op_dir: Path, out) -> None:
        importance, splitting = out
        reference_is, reference_splitting = self.reference
        expect(importance.estimate == reference_is.estimate
               and importance.diagnostics == reference_is.diagnostics,
               "importance-sampling estimate changed between ops")
        expect(splitting.estimate == reference_splitting.estimate,
               "splitting estimate changed between ops")
        diagnostics = importance.diagnostics
        expect(diagnostics.ess_fraction >= self.MIN_ESS_FRACTION
               and diagnostics.max_weight_fraction <= self.MAX_WEIGHT_SHARE,
               f"IS weights degenerate: ESS fraction "
               f"{diagnostics.ess_fraction:.3g}, max share "
               f"{diagnostics.max_weight_fraction:.3g}")
        expect(1e-8 < importance.estimate.mean < 1e-6,
               f"IS rate {importance.estimate.mean:.3g}/h is outside the "
               f"calibrated 1e-7/h class")
        expect(math.isfinite(splitting.estimate.mean)
               and splitting.estimate.mean >= 0.0
               and math.isfinite(splitting.estimate.std_error),
               f"splitting rate {splitting.estimate.mean!r}/h ± "
               f"{splitting.estimate.std_error!r}")
        on_disk = read_json(op_dir / "estimates.json")
        expect(on_disk == {"is": importance.to_dict(),
                           "splitting": splitting.to_dict()},
               "persisted estimates differ from the returned ones")

    def supplied(self, op_dir: Path, out) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in
             (CliSession, Campaign, CampaignDurable, RareEvent)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
