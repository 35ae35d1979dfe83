"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestFigures:
    def test_stdout(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for marker in ("Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5"):
            assert marker in out

    def test_to_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert main(["figures", "--out", str(out_dir)]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {"fig1.txt", "fig2.txt", "fig3.txt", "fig4.txt",
                         "fig5.txt"}


class TestGoals:
    def test_default_norm(self, capsys):
        assert main(["goals"]) == 0
        out = capsys.readouterr().out
        assert "SG-I2:" in out
        assert "COMPLETE" in out

    def test_each_goal_names_what_binds_it(self, capsys):
        assert main(["goals"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("COMPLETE.\n\n"
                            "SG-I1 is set by vQ2 at 100 %\n"
                            "SG-I2 is set by vS2 at 100 %\n"
                            "SG-I3 is set by vS3 at 100 %\n")

    def test_calibrated_norm(self, capsys):
        assert main(["goals", "--improvement", "10"]) == 0
        assert "SG-I1" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "goals.json"
        assert main(["goals", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert {entry["goal_id"] for entry in data["goals"]} == \
            {"SG-I1", "SG-I2", "SG-I3"}


class TestVerify:
    @pytest.fixture
    def goals_file(self, tmp_path, capsys):
        path = tmp_path / "goals.json"
        main(["goals", "--json", str(path)])
        capsys.readouterr()
        return path

    def test_clean_counts(self, goals_file, capsys):
        code = main(["verify", str(goals_file), "--counts", "{}",
                     "--exposure", "1e10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL DEMONSTRATED" in out

    def test_violation_sets_exit_code(self, goals_file, capsys):
        code = main(["verify", str(goals_file),
                     "--counts", '{"I3": 1000}', "--exposure", "1e4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLAT" in out

    def test_bad_counts_payload(self, goals_file, capsys):
        code = main(["verify", str(goals_file), "--counts", "[1, 2]",
                     "--exposure", "1e4"])
        assert code == 2


class TestDossier:
    def test_writes_dossier(self, tmp_path, capsys):
        out = tmp_path / "dossier.txt"
        code = main(["dossier", "--hours", "300", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "SAFETY CASE DOSSIER" in text
        assert "6. Verification status" in text

    def test_stdout(self, capsys):
        assert main(["dossier", "--hours", "200", "--seed", "2"]) == 0
        assert "SAFETY CASE DOSSIER" in capsys.readouterr().out


class TestReview:
    @pytest.fixture
    def goals_file(self, tmp_path, capsys):
        path = tmp_path / "goals.json"
        main(["goals", "--json", str(path)])
        capsys.readouterr()
        return path

    def test_design_time_review_has_open_items(self, goals_file, capsys):
        code = main(["review", str(goals_file)])
        out = capsys.readouterr().out
        assert code == 0  # open items are not blockers
        assert "OPEN" in out

    def test_violation_is_blocker_exit_code(self, goals_file, capsys):
        code = main(["review", str(goals_file),
                     "--counts", '{"I3": 500}', "--exposure", "1e4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "BLOCKER" in out

    def test_counts_without_exposure_rejected(self, goals_file, capsys):
        assert main(["review", str(goals_file), "--counts", "{}"]) == 2


class TestFleet:
    def test_summary_stdout(self, capsys):
        assert main(["fleet", "--hours", "120", "--seed", "3",
                     "--chunk-hours", "40"]) == 0
        out = capsys.readouterr().out
        assert "FLEET CAMPAIGN" in out
        assert "encounters resolved" in out
        assert "hard-braking demands" in out

    def test_worker_count_invariant(self, tmp_path, capsys):
        """The CLI surface of the determinism contract: any --workers
        value produces the identical campaign summary."""
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        main(["fleet", "--hours", "90", "--seed", "5", "--chunk-hours",
              "30", "--workers", "1", "--json", str(serial)])
        main(["fleet", "--hours", "90", "--seed", "5", "--chunk-hours",
              "30", "--workers", "3", "--json", str(pooled)])
        capsys.readouterr()
        assert json.loads(serial.read_text()) == \
            json.loads(pooled.read_text())

    def test_progress_streams_to_stderr(self, capsys):
        assert main(["fleet", "--hours", "60", "--seed", "1",
                     "--chunk-hours", "20", "--workers", "1",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("chunk ") == 3
        assert "chunk 3/3" in captured.err

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "bogus"])

    def test_engine_selection(self, tmp_path, capsys):
        """--engine picks the resolution path; the two engines carry
        different RNG layouts, so their summaries legitimately differ,
        while each engine is deterministic under its own seed."""
        paths = {}
        for engine in ("scalar", "vectorized"):
            for tag in ("a", "b"):
                path = tmp_path / f"{engine}-{tag}.json"
                paths[(engine, tag)] = path
                assert main(["fleet", "--hours", "90", "--seed", "7",
                             "--chunk-hours", "30", "--workers", "1",
                             "--engine", engine, "--json",
                             str(path)]) == 0
        capsys.readouterr()
        scalar = json.loads(paths[("scalar", "a")].read_text())
        vector = json.loads(paths[("vectorized", "a")].read_text())
        assert scalar["engine"] == "scalar"
        assert vector["engine"] == "vectorized"
        assert scalar.pop("engine") != vector.pop("engine")
        assert scalar != vector  # different layouts → different draws
        assert json.loads(paths[("scalar", "a")].read_text()) == \
            json.loads(paths[("scalar", "b")].read_text())
        assert json.loads(paths[("vectorized", "a")].read_text()) == \
            json.loads(paths[("vectorized", "b")].read_text())

    def test_bad_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--engine", "simd"])

    def test_progress_reports_rates_and_eta(self, capsys):
        """The progress stream derives chunks/s, encounters/s and ETA
        from the ThroughputMeter instead of ad-hoc arithmetic."""
        assert main(["fleet", "--hours", "60", "--seed", "1",
                     "--chunk-hours", "20", "--workers", "1",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "chunks/s" in err
        assert "encounters/s" in err
        assert "ETA" in err


class TestFleetTelemetry:
    def test_manifest_written_with_budget_table(self, tmp_path, capsys):
        from repro.obs import RunManifest

        path = tmp_path / "manifest.json"
        assert main(["fleet", "--hours", "120", "--seed", "3",
                     "--chunk-hours", "40", "--workers", "1",
                     "--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry manifest written to" in out
        assert "Verification over 120 exposure units" in out
        manifest = RunManifest.read(path)
        assert manifest.seed == 3
        assert manifest.engine == "vectorized"
        assert manifest.n_chunks == 3
        assert manifest.metrics["sim.hours"]["value"] == pytest.approx(120.0)
        assert "run_fleet" in manifest.spans["children"]
        rows = manifest.budget_utilisation
        assert rows is not None
        assert {row["kind"] for row in rows} == {"incident_type",
                                                 "consequence_class"}
        assert all("rate_upper" in row and "confidence" in row
                   for row in rows)
        # The manifest's table is verify's report on the summary counts.
        from repro.cli import _scaled_goals
        from repro.core.verification import verify_against_counts
        goals, _ = _scaled_goals(1e4)
        assert rows == verify_against_counts(
            goals, manifest.summary["type_counts"],
            manifest.summary["hours"]).to_rows()

    def test_telemetry_does_not_change_the_campaign(self, tmp_path, capsys):
        """--telemetry must be pure observation: the campaign summary is
        bitwise identical with and without it."""
        plain = tmp_path / "plain.json"
        observed = tmp_path / "observed.json"
        main(["fleet", "--hours", "90", "--seed", "5", "--chunk-hours",
              "30", "--workers", "1", "--json", str(plain)])
        main(["fleet", "--hours", "90", "--seed", "5", "--chunk-hours",
              "30", "--workers", "1", "--json", str(observed),
              "--telemetry", str(tmp_path / "m.json")])
        capsys.readouterr()
        assert json.loads(plain.read_text()) == \
            json.loads(observed.read_text())

    def test_manifest_worker_count_invariant_metrics(self, tmp_path,
                                                     capsys):
        from repro.obs import RunManifest

        manifests = {}
        for workers in (1, 2):
            path = tmp_path / f"manifest-{workers}.json"
            assert main(["fleet", "--hours", "90", "--seed", "5",
                         "--chunk-hours", "30", "--workers", str(workers),
                         "--telemetry", str(path)]) == 0
            manifests[workers] = RunManifest.read(path)
        capsys.readouterr()
        # Transport counters (parallel.bytes_shipped,
        # parallel.transport.*) describe how chunk bytes crossed the
        # pool boundary and legitimately vary with worker count; every
        # simulation counter must be invariant.
        counters = {
            workers: {name: entry["value"]
                      for name, entry in manifest.metrics.items()
                      if entry["kind"] == "counter"
                      and name != "parallel.bytes_shipped"
                      and not name.startswith("parallel.transport.")}
            for workers, manifest in manifests.items()}
        assert counters[1] == counters[2]
        assert manifests[1].budget_utilisation == \
            manifests[2].budget_utilisation


class TestDossierTelemetry:
    def test_dossier_gains_telemetry_section(self, tmp_path, capsys):
        from repro.obs import RunManifest

        out = tmp_path / "dossier.txt"
        manifest_path = tmp_path / "manifest.json"
        assert main(["dossier", "--hours", "200", "--seed", "2",
                     "--workers", "1", "--out", str(out),
                     "--telemetry", str(manifest_path)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "7. Runtime telemetry" in text
        assert text.count("Verification over") == 1
        assert "Campaign counters:" in text
        assert "Span tree" in text
        manifest = RunManifest.read(manifest_path)
        assert manifest.command == "repro dossier"
        assert manifest.policy == "cautious"

    def test_without_flag_no_telemetry_section(self, tmp_path, capsys):
        out = tmp_path / "dossier.txt"
        assert main(["dossier", "--hours", "200", "--seed", "2",
                     "--workers", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "Runtime telemetry" not in out.read_text()


class TestDossierParallel:
    def test_workers_flag_leaves_dossier_unchanged(self, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        pooled = tmp_path / "pooled.txt"
        main(["dossier", "--hours", "200", "--seed", "2", "--workers", "1",
              "--out", str(serial)])
        main(["dossier", "--hours", "200", "--seed", "2", "--workers", "2",
              "--out", str(pooled)])
        capsys.readouterr()
        assert serial.read_text() == pooled.read_text()


class TestFleetFaultTolerance:
    """CLI surface of DESIGN §9: checkpoint flags, exit codes, retry knobs."""

    FLEET = ["fleet", "--hours", "4", "--seed", "9", "--chunk-hours", "1",
             "--workers", "1"]

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path, capsys):
        """A checkpointed campaign resumed on a different worker count
        emits the identical --json summary."""
        plain = tmp_path / "plain.json"
        banked = tmp_path / "banked.json"
        ck = tmp_path / "ck.json"
        assert main(self.FLEET + ["--json", str(plain)]) == 0
        assert main(self.FLEET + ["--checkpoint", str(ck)]) == 0
        assert ck.exists()
        resumed = self.FLEET[:-2] + ["--workers", "2"]
        assert main(resumed + ["--checkpoint", str(ck), "--resume",
                               "--json", str(banked)]) == 0
        capsys.readouterr()
        assert json.loads(banked.read_text()) == json.loads(plain.read_text())

    def test_existing_checkpoint_without_resume_exits_2(self, tmp_path,
                                                        capsys):
        ck = tmp_path / "ck.json"
        assert main(self.FLEET + ["--checkpoint", str(ck)]) == 0
        assert main(self.FLEET + ["--checkpoint", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "checkpoint error:" in err
        assert "--resume" in err

    def test_mismatched_resume_exits_2(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        assert main(self.FLEET + ["--checkpoint", str(ck)]) == 0
        other_seed = ["fleet", "--hours", "4", "--seed", "10",
                      "--chunk-hours", "1", "--workers", "1"]
        assert main(other_seed + ["--checkpoint", str(ck), "--resume"]) == 2
        assert "checkpoint error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fleet", "dossier"])
    def test_resume_without_checkpoint_exits_2(self, tmp_path, capsys,
                                               command):
        """--resume restores a checkpoint; without one the run would
        start afresh and append a second campaign to the journal."""
        flight = tmp_path / "flight"
        assert main(self.FLEET + ["--flight-recorder", str(flight)]) == 0
        journal = (flight / "journal.jsonl").read_bytes()
        capsys.readouterr()
        argv = [command, "--hours", "2", "--seed", "3", "--workers", "1",
                "--flight-recorder", str(flight), "--resume"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --resume needs --checkpoint")
        assert captured.err.count("\n") == 1
        assert (flight / "journal.jsonl").read_bytes() == journal

    def test_keyboard_interrupt_exits_130_with_resume_hint(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        import repro.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run_campaign", interrupted)
        ck = tmp_path / "ck.json"
        assert main(self.FLEET + ["--checkpoint", str(ck)]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert str(ck) in err and "--resume" in err

    def test_keyboard_interrupt_without_checkpoint_has_no_hint(self,
                                                               monkeypatch,
                                                               capsys):
        import repro.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run_campaign", interrupted)
        assert main(self.FLEET) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" not in err

    def test_partial_failure_exits_3_and_reports_quarantine(self, tmp_path,
                                                            monkeypatch,
                                                            capsys):
        from repro.stats import CampaignPartialFailure, ChunkFailure

        import repro.cli as cli

        failure = ChunkFailure(chunk_index=1, attempt=3, kind="exception",
                               message="worker died")

        def partial(*args, **kwargs):
            raise CampaignPartialFailure(
                completed={}, failures=[failure], quarantined=(1,),
                chunks_total=4)

        monkeypatch.setattr(cli, "_run_campaign", partial)
        ck = tmp_path / "ck.json"
        assert main(self.FLEET + ["--checkpoint", str(ck)]) == 3
        err = capsys.readouterr().err
        assert "failed partially" in err
        assert "chunk 1 attempt 3 [exception]: worker died" in err
        assert "quarantined chunks: 1" in err
        assert "--resume" in err  # checkpointed run points at recovery

    def test_retry_flags_parse_and_build_policy(self):
        from repro.cli import _retry_policy

        parser = build_parser()
        args = parser.parse_args(self.FLEET + ["--max-attempts", "5",
                                               "--chunk-timeout", "7.5"])
        policy = _retry_policy(args)
        assert policy.max_attempts == 5
        assert policy.timeout_s == 7.5
        defaults = _retry_policy(parser.parse_args(self.FLEET))
        assert defaults.max_attempts == 3
        assert defaults.timeout_s is None

    @pytest.mark.parametrize("flags", [
        [*FLEET, "--chunk-timeout", "0"],
        [*FLEET, "--chunk-timeout", "-1.5"],
        [*FLEET, "--max-attempts", "0"],
        [*FLEET, "--max-attempts", "-3"],
        *([command, "{goals}", "--counts", "{}", "--exposure", exposure]
          for command in ("verify", "review")
          for exposure in ("0", "-5", "nan", "inf")),
        ["verify", "{goals}", "--counts", "{}", "--exposure", "1e5",
         "--confidence", "0"],
        ["verify", "{goals}", "--counts", "{}", "--exposure", "1e5",
         "--confidence", "1.5"],
        ["verify", "{goals}", "--exposure", "1e5", "--counts", '{"I1": -1}'],
        [*FLEET, "--hours", "0"],
        [*FLEET, "--hours", "-5"],
        [*FLEET, "--hours", "nan"],
        [*FLEET, "--workers", "0"],
        [*FLEET, "--chunk-hours", "0"],
        ["goals", "--improvement", "0"],
        ["dossier", "--hours", "10", "--scale", "0"],
    ])
    def test_invalid_retry_knob_is_a_clean_exit_4(self, flags, tmp_path,
                                                   capsys):
        """Nonsense numeric flags — retry knobs, exposures, confidences,
        counts, campaign sizes — fail at the CLI boundary: one `error:`
        line naming the flag (or the invalid retry policy), exit 4, no
        traceback.  Never exit 1, which verify and review reserve for a
        violated goal."""
        goals = tmp_path / "goals.json"
        if "{goals}" in flags:
            assert main(["goals", "--json", str(goals)]) == 0
            capsys.readouterr()
        argv = [str(goals) if arg == "{goals}" else arg for arg in flags]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        retry_knob = flags[-2] in ("--chunk-timeout", "--max-attempts")
        expected = "invalid retry policy:" if retry_knob else flags[-2]
        assert err.startswith("error: ") and expected in err

    def test_partial_failure_report_is_deterministically_ordered(
            self, monkeypatch, capsys):
        """The failure log fills in thread-completion order, but the
        report must not: lines sort by (chunk, attempt) and the
        quarantined indices are ascending, so identical campaigns print
        identical diagnostics."""
        from repro.stats import CampaignPartialFailure, ChunkFailure

        import repro.cli as cli

        scrambled = [
            ChunkFailure(chunk_index=3, attempt=1, kind="timeout",
                         message="no heartbeat"),
            ChunkFailure(chunk_index=1, attempt=2, kind="exception",
                         message="worker died again"),
            ChunkFailure(chunk_index=1, attempt=1, kind="exception",
                         message="worker died"),
            ChunkFailure(chunk_index=2, attempt=1, kind="invalid",
                         message="garbage result"),
        ]

        def partial(*args, **kwargs):
            raise CampaignPartialFailure(
                completed={}, failures=scrambled, quarantined=(3, 1, 2),
                chunks_total=4)

        monkeypatch.setattr(cli, "_run_campaign", partial)
        assert main(self.FLEET) == 3
        err = capsys.readouterr().err
        detail_lines = [line.strip() for line in err.splitlines()
                        if line.startswith("  chunk ")]
        assert detail_lines == [
            "chunk 1 attempt 1 [exception]: worker died",
            "chunk 1 attempt 2 [exception]: worker died again",
            "chunk 2 attempt 1 [invalid]: garbage result",
            "chunk 3 attempt 1 [timeout]: no heartbeat",
        ]
        # The exception sorts its quarantine set on construction, so the
        # summary line is ascending no matter the discovery order.
        assert "quarantined chunks: 1, 2, 3" in err

    def test_partial_failure_resume_hint_appears_exactly_once(
            self, tmp_path, monkeypatch, capsys):
        from repro.stats import CampaignPartialFailure, ChunkFailure

        import repro.cli as cli

        failures = [ChunkFailure(chunk_index=i, attempt=1,
                                 kind="pool_broken", message="killed")
                    for i in (2, 0)]

        def partial(*args, **kwargs):
            raise CampaignPartialFailure(
                completed={}, failures=failures, quarantined=(2, 0),
                chunks_total=4)

        monkeypatch.setattr(cli, "_run_campaign", partial)
        ck = tmp_path / "ck.json"
        assert main(self.FLEET + ["--checkpoint", str(ck)]) == 3
        err = capsys.readouterr().err
        assert err.count("--resume") == 1
        assert str(ck) in err

    def test_partial_failure_without_checkpoint_has_no_resume_hint(
            self, monkeypatch, capsys):
        from repro.stats import CampaignPartialFailure, ChunkFailure

        import repro.cli as cli

        def partial(*args, **kwargs):
            raise CampaignPartialFailure(
                completed={}, failures=[
                    ChunkFailure(chunk_index=0, attempt=1,
                                 kind="pool_broken", message="killed")],
                quarantined=(0,), chunks_total=4)

        monkeypatch.setattr(cli, "_run_campaign", partial)
        assert main(self.FLEET) == 3
        err = capsys.readouterr().err
        assert "--resume" not in err

    def test_dossier_partial_failure_reports_like_fleet(
            self, tmp_path, monkeypatch, capsys):
        """``dossier`` runs the same campaign runner, so its exit-3
        report is fleet's: sorted chunk lines, the quarantined chunks
        and the --resume hint."""
        from repro.stats import CampaignPartialFailure, ChunkFailure

        import repro.cli as cli

        failures = [
            ChunkFailure(chunk_index=3, attempt=1, kind="timeout",
                         message="no heartbeat"),
            ChunkFailure(chunk_index=1, attempt=1, kind="exception",
                         message="worker died"),
        ]

        def partial(*args, **kwargs):
            raise CampaignPartialFailure(
                completed={}, failures=failures, quarantined=(3, 1),
                chunks_total=4)

        monkeypatch.setattr(cli, "_run_campaign", partial)
        ck = tmp_path / "ck.json"
        assert main(["dossier", "--hours", "4", "--chunk-hours", "1",
                     "--workers", "1", "--checkpoint", str(ck)]) == 3
        err = capsys.readouterr().err
        assert "dossier campaign failed partially" in err
        assert [line.strip() for line in err.splitlines()
                if line.startswith("  chunk ")] == [
            "chunk 1 attempt 1 [exception]: worker died",
            "chunk 3 attempt 1 [timeout]: no heartbeat",
        ]
        assert "quarantined chunks: 1, 3" in err
        assert err.count("--resume") == 1 and str(ck) in err

    def test_resumed_progress_marks_restored_chunks(self, tmp_path, capsys,
                                                    monkeypatch):
        """--resume --progress annotates the stream with the restored
        baseline, and every rate counts only this run's work: with one
        second on the meter's clock, chunks/s is the chunks and
        encounters/s the encounters this run resolved."""
        import repro.cli as cli
        import repro.obs
        from repro.traffic import CampaignCheckpoint

        class OneSecondMeter(repro.obs.ThroughputMeter):
            def __init__(self):
                ticks = iter([0.0])
                super().__init__(clock=lambda: next(ticks, 1.0))

        ck = tmp_path / "ck.json"

        real = cli._run_campaign

        def kill_after_two(*args, **kwargs):
            progress = kwargs.get("progress")
            seen = {"n": 0}

            def tripwire(update):
                if progress is not None:
                    progress(update)
                seen["n"] += 1
                if seen["n"] >= 2:
                    raise KeyboardInterrupt

            kwargs["progress"] = tripwire
            return real(*args, **kwargs)

        cli._run_campaign = kill_after_two
        try:
            assert main(self.FLEET + ["--checkpoint", str(ck),
                                      "--progress"]) == 130
        finally:
            cli._run_campaign = real
        capsys.readouterr()
        restored = sum(result.encounters_resolved for result in
                       CampaignCheckpoint.load(ck).completed_results()
                       .values())
        monkeypatch.setattr(repro.obs, "ThroughputMeter", OneSecondMeter)
        assert main(self.FLEET + ["--checkpoint", str(ck), "--resume",
                                  "--progress"]) == 0
        err = capsys.readouterr().err
        assert "(2 restored)" in err
        assert "chunk 4/4" in err
        lines = re.findall(
            r"chunk (\d)/4 \(2 restored\): \S+ h, (\d+) encounters, .*? "
            r"\| ([\d.]+) chunks/s, (\d+) encounters/s", err)
        assert [int(chunk) for chunk, *_ in lines] == [3, 4]
        for chunk, encounters, chunks_per_s, encounters_per_s in lines:
            assert float(chunks_per_s) == int(chunk) - 2
            assert int(encounters_per_s) == int(encounters) - restored


class TestArtifactErrorDiagnostics:
    """Corrupt artifacts exit 4 with one ``error:`` line, never a
    traceback (DESIGN §10); malformed *usage* keeps exit code 2."""

    @pytest.fixture
    def goals_file(self, tmp_path, capsys):
        path = tmp_path / "goals.json"
        main(["goals", "--json", str(path)])
        capsys.readouterr()
        return path

    def test_malformed_counts_json_exits_4(self, goals_file, capsys):
        code = main(["verify", str(goals_file), "--counts", '{"I1": ',
                     "--exposure", "1e4"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: --counts: ")
        assert len(err.strip().splitlines()) == 1  # no traceback
        assert "Traceback" not in err

    def test_nan_counts_token_exits_4(self, goals_file, capsys):
        code = main(["verify", str(goals_file), "--counts", '{"I1": NaN}',
                     "--exposure", "1e4"])
        err = capsys.readouterr().err
        assert code == 4
        assert "error: --counts:" in err

    def test_non_integer_count_exits_4(self, goals_file, capsys):
        code = main(["verify", str(goals_file), "--counts", '{"I1": "x"}',
                     "--exposure", "1e4"])
        err = capsys.readouterr().err
        assert code == 4
        assert "must be an integer" in err

    def test_non_object_counts_still_usage_error_2(self, goals_file, capsys):
        # well-formed JSON of the wrong shape is a usage error, not a
        # corrupt artifact: the historical exit code 2 is pinned
        assert main(["verify", str(goals_file), "--counts", "[1, 2]",
                     "--exposure", "1e4"]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_corrupt_goals_file_exits_4_verify(self, tmp_path, capsys):
        path = tmp_path / "goals.json"
        path.write_text('{"allocation": {"norm": ')
        code = main(["verify", str(path), "--counts", "{}",
                     "--exposure", "1e4"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith(f"error: {path}: ")
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_goals_file_exits_4_review(self, tmp_path, capsys):
        path = tmp_path / "goals.json"
        path.write_text("not json at all")
        code = main(["review", str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "error:" in err and "Traceback" not in err

    def test_tampered_goals_digest_exits_4(self, goals_file, capsys):
        data = json.loads(goals_file.read_text())
        data["goals"][0]["max_frequency_rate"] = 1.0  # silent edit
        goals_file.write_text(json.dumps(data))
        code = main(["verify", str(goals_file), "--counts", "{}",
                     "--exposure", "1e4"])
        err = capsys.readouterr().err
        assert code == 4
        assert "digest mismatch" in err

    def test_missing_goals_file_exits_4(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "nope.json"),
                     "--counts", "{}", "--exposure", "1e4"])
        err = capsys.readouterr().err
        assert code == 4
        assert "cannot read" in err

    def test_corrupted_checkpoint_resume_exits_4(self, tmp_path, capsys):
        fleet = ["fleet", "--hours", "2", "--seed", "9",
                 "--chunk-hours", "1", "--workers", "1"]
        ck = tmp_path / "ck.json"
        assert main(fleet + ["--checkpoint", str(ck)]) == 0
        # Disk damage inside the log (a torn *tail* is cut on resume).
        lines = ck.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"hours":1.0', b'"hours":9.0', 1)
        ck.write_bytes(b"".join(lines))
        capsys.readouterr()
        code = main(fleet + ["--checkpoint", str(ck), "--resume"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_digest_stripped_budget_edit_exits_4(self, goals_file, capsys):
        """Raising SG-I2's budget 10x and deleting the digest line must
        not turn its VIOLATED verdict into DEMONSTRATED."""
        counts = ["--counts", '{"I1": 40, "I2": 3}', "--exposure", "1e6"]
        assert main(["verify", str(goals_file)] + counts) == 1
        assert re.search(r"SG-I2: .* VIOLATED", capsys.readouterr().out)
        data = json.loads(goals_file.read_text())
        for goal in data["goals"]:
            if goal["goal_id"] == "SG-I2":
                goal["max_frequency_rate"] *= 10
        data["allocation"]["budgets"]["I2"] *= 10
        del data["payload_sha256"]
        goals_file.write_text(json.dumps(data, indent=2, sort_keys=True))
        code = main(["verify", str(goals_file)] + counts)
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {goals_file}: ")
        assert "payload_sha256" in lines[0]
        assert main(["review", str(goals_file)]) == 4
        assert "payload_sha256" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "review"])
    def test_tagless_unsigned_goals_file_exits_4(self, tmp_path, capsys,
                                                 verb):
        from repro.core import goal_set_to_dict
        from repro.cli import _build_goals

        path = tmp_path / "unsigned.json"
        path.write_text(json.dumps(goal_set_to_dict(
            _build_goals(None, "max-min"))))
        argv = [verb, str(path)]
        if verb == "verify":
            argv += ["--counts", "{}", "--exposure", "1e10"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err


class TestFleetAccelerated:
    def test_importance_sampling_branch(self, tmp_path, capsys):
        path = tmp_path / "rate.json"
        assert main(["fleet", "--accelerator", "is",
                     "--accel-replications", "4", "--accel-hours", "2",
                     "--tilt-rate", "1.5", "--tilt-sight", "0.8",
                     "--seed", "3", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ACCELERATED ESTIMATE" in out
        assert "method 'is'" in out
        assert "weights:" in out and "ESS" in out
        payload = json.loads(path.read_text())
        assert payload["method"] == "is"
        assert payload["mean_per_hour"] >= 0.0
        assert "weight_diagnostics" in payload

    def test_degenerate_tilt_exits_5(self, capsys):
        code = main(["fleet", "--accelerator", "is",
                     "--accel-replications", "4", "--accel-hours", "2",
                     "--tilt-sight", "0.1", "--seed", "3"])
        assert code == 5
        assert "degenerate" in capsys.readouterr().err

    def test_splitting_branch(self, tmp_path, capsys):
        path = tmp_path / "rate.json"
        assert main(["fleet", "--accelerator", "splitting", "--seed", "7",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "method 'splitting'" in out
        for context in ("urban", "suburban", "rural", "highway"):
            assert context in out
        payload = json.loads(path.read_text())
        assert payload["method"] == "splitting"
        assert "weight_diagnostics" not in payload
        # At this seed mean - 1.96 se is negative; a rate's printed
        # interval stops at zero.
        assert payload["mean_per_hour"] - 1.96 * payload["std_error"] < 0
        assert "95% CI:          [0.0000e+00, " in out

    @pytest.mark.parametrize("argv", [
        ["--accelerator", "splitting", "--accel-replications", "1"],
        ["--tilt-rate", "3"],
    ])
    def test_is_flags_without_is_exit_2(self, argv, capsys):
        assert main(["fleet", "--hours", "10", "--workers", "1",
                     *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert argv[-2] in err[0] and "--accelerator is" in err[0]

    def test_identity_tilt_flags_accepted(self, capsys):
        # --accelerator is with all-default tilt flags is the identity
        # proposal: valid, never degenerate.
        assert main(["fleet", "--accelerator", "is",
                     "--accel-replications", "2", "--accel-hours", "1",
                     "--seed", "1"]) == 0
        assert "100.0%" in capsys.readouterr().out

    def test_invalid_accelerator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--accelerator", "warp"])

    def test_invalid_tilt_value_is_clean_usage_error(self, capsys):
        code = main(["fleet", "--accelerator", "is", "--tilt-sight", "0",
                     "--accel-replications", "4", "--accel-hours", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid proposal tilt" in err
        assert "sight scale" in err

    def test_too_few_replications_is_clean_usage_error(self, capsys):
        code = main(["fleet", "--accelerator", "is", "--tilt-rate", "2",
                     "--accel-replications", "1", "--accel-hours", "1"])
        assert code == 2
        assert ">= 2 replications" in capsys.readouterr().err


class TestFlightRecorderCLI:
    def _fleet(self, tmp_path, *extra):
        return main(["fleet", "--hours", "120", "--seed", "3",
                     "--chunk-hours", "40", "--flight-recorder",
                     str(tmp_path / "flight"), *extra])

    def test_recorder_writes_journal_and_status(self, tmp_path, capsys):
        from repro.obs import read_journal, read_status, replay_journal

        assert self._fleet(tmp_path) == 0
        capsys.readouterr()
        flight = tmp_path / "flight"
        records, head = read_journal(flight / "journal.jsonl")
        assert head is not None
        kinds = [r.kind for r in records]
        assert kinds[0] == "campaign.started"
        assert "campaign.finished" in kinds
        replay = replay_journal(records)
        assert sorted(replay.chunks) == [0, 1, 2]
        doc = read_status(flight / "status.json")
        assert doc["state"] == "finished"
        assert doc["chunks_done"] == 3

    def test_existing_journal_without_resume_exits_2(self, tmp_path,
                                                     capsys):
        assert self._fleet(tmp_path) == 0
        assert self._fleet(tmp_path) == 2
        assert "already exists" in capsys.readouterr().err

    def test_manifest_points_at_event_log(self, tmp_path, capsys):
        from repro.obs import RunManifest

        manifest_path = tmp_path / "manifest.json"
        assert self._fleet(tmp_path, "--telemetry",
                           str(manifest_path)) == 0
        capsys.readouterr()
        manifest = RunManifest.read(manifest_path)
        assert manifest.event_log == str(tmp_path / "flight" /
                                         "journal.jsonl")

    def test_progress_line_surfaces_transport_and_bytes(self, capsys):
        assert main(["fleet", "--hours", "60", "--seed", "1",
                     "--chunk-hours", "20", "--workers", "2",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "shipped" in err
        assert ("shm," in err) or ("pickle," in err)

    def test_trace_and_metrics_export(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        assert self._fleet(tmp_path, "--trace-out", str(trace),
                           "--metrics-out", str(metrics)) == 0
        out = capsys.readouterr().out
        assert "trace exported" in out and "metrics exported" in out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "campaign.started" in names  # journal instants present
        assert "run_fleet" in names         # span timeline present
        assert "# TYPE repro_fleet_chunks_total gauge" \
            in metrics.read_text()

    def test_exports_without_recorder_still_work(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["fleet", "--hours", "60", "--seed", "1",
                     "--chunk-hours", "20", "--trace-out",
                     str(trace)]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        assert any(e.get("cat") == "span" for e in doc["traceEvents"])

    def test_recorder_and_telemetry_solve_the_goal_set_once(
            self, tmp_path, capsys, monkeypatch):
        import repro.core
        from repro.obs import RunManifest

        real = repro.core.derive_safety_goals
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.core, "derive_safety_goals", counting)
        both = tmp_path / "both.json"
        assert self._fleet(tmp_path, "--telemetry", str(both)) == 0
        out_both = capsys.readouterr().out
        assert len(calls) == 1
        single = tmp_path / "single.json"
        assert main(["fleet", "--hours", "120", "--seed", "3",
                     "--chunk-hours", "40", "--telemetry",
                     str(single)]) == 0
        out_single = capsys.readouterr().out
        assert len(calls) == 2
        assert out_both.replace(str(both), "M") == \
            out_single.replace(str(single), "M")
        assert RunManifest.read(both).budget_utilisation == \
            RunManifest.read(single).budget_utilisation

    def test_telemetry_classifies_the_merged_campaign_once(
            self, tmp_path, capsys, monkeypatch):
        """The recorder classifies each of the 4 chunks; the summary and
        the manifest's budget table share one classification of the
        merged campaign."""
        import repro.traffic.incidents as incidents
        import repro.traffic.records as records

        real = records.classify_block_counts
        sizes = []

        def counting(block, types):
            sizes.append(len(block))
            return real(block, types)

        monkeypatch.setattr(records, "classify_block_counts", counting)
        monkeypatch.setattr(incidents, "classify_block_counts", counting)
        summary = tmp_path / "summary.json"
        assert main(["fleet", "--hours", "160", "--seed", "3",
                     "--chunk-hours", "40", "--workers", "1",
                     "--flight-recorder", str(tmp_path / "flight"),
                     "--telemetry", str(tmp_path / "manifest.json"),
                     "--json", str(summary)]) == 0
        capsys.readouterr()
        incidents_found = json.loads(summary.read_text())["incidents"]
        assert len(sizes) == 5
        assert sum(sizes) == 2 * incidents_found

    def test_resume_with_recorder_cuts_a_torn_checkpoint_tail(
            self, tmp_path, capsys):
        """The checkpoint is opened once, cut and loaded, and the same
        restored chunks feed the recorder and the campaign."""
        from repro.obs import replay_journal

        ck = tmp_path / "ck.json"
        reference = tmp_path / "reference.json"
        assert main(["fleet", "--hours", "120", "--seed", "3",
                     "--chunk-hours", "40", "--json", str(reference)]) == 0
        assert self._fleet(tmp_path, "--checkpoint", str(ck)) == 0
        # The run died in the middle of its last checkpoint append.
        lines = ck.read_bytes().splitlines(keepends=True)
        ck.write_bytes(b"".join(lines)[:-len(lines[-1]) // 2])
        capsys.readouterr()
        summary = tmp_path / "resumed.json"
        assert self._fleet(tmp_path, "--checkpoint", str(ck), "--resume",
                           "--json", str(summary)) == 0
        err = capsys.readouterr().err
        assert "cut a torn tail" in err and "2 banked chunks" in err
        resumed = json.loads(summary.read_text())
        assert resumed == json.loads(reference.read_text())
        replay = replay_journal(tmp_path / "flight" / "journal.jsonl")
        assert replay.resumed == 1
        assert {"hours": replay.hours,
                "encounters_resolved": replay.encounters_resolved,
                "incidents": replay.incidents_found,
                "collisions": replay.collisions,
                "hard_braking_demands": replay.hard_braking_demands,
                "type_counts": replay.type_counts()} == \
            {key: resumed[key] for key in (
                "hours", "encounters_resolved", "incidents", "collisions",
                "hard_braking_demands", "type_counts")}

    def test_dossier_supports_recorder(self, tmp_path, capsys):
        from repro.obs import read_status

        assert main(["dossier", "--hours", "60", "--seed", "2",
                     "--chunk-hours", "20", "--flight-recorder",
                     str(tmp_path / "flight")]) == 0
        capsys.readouterr()
        doc = read_status(tmp_path / "flight" / "status.json")
        assert doc["state"] == "finished"
        assert isinstance(doc["budget"], list) and doc["budget"]


class TestBrokenPipe:
    """A reader that leaves early (``repro goals | head -1``) ends the
    command with 141 (128 + SIGPIPE) and no traceback."""

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_exits_141_silently(self, buffered):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        if buffered:
            # Block-buffered, the failing write is main's final flush;
            # unbuffered, it is the command's first print.
            del env["PYTHONUNBUFFERED"]
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "goals"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # The reader leaves before the first line arrives, so the
        # writer's next write fails whatever the scheduling.
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=300) == 141
        assert err == b""


class TestWatch:
    def _record(self, tmp_path):
        flight = tmp_path / "flight"
        assert main(["fleet", "--hours", "120", "--seed", "3",
                     "--chunk-hours", "40", "--flight-recorder",
                     str(flight)]) == 0
        return flight

    def test_watch_once_renders_status(self, tmp_path, capsys):
        flight = self._record(tmp_path)
        capsys.readouterr()
        assert main(["watch", str(flight), "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign finished" in out
        assert "chunks 3/3" in out
        assert "Budget utilisation (live)" in out
        assert "journal:" in out

    def test_watch_accepts_status_file_path(self, tmp_path, capsys):
        flight = self._record(tmp_path)
        capsys.readouterr()
        assert main(["watch", str(flight / "status.json"),
                     "--once"]) == 0
        assert "campaign finished" in capsys.readouterr().out

    def test_watch_terminal_state_exits_without_once(self, tmp_path,
                                                     capsys):
        # A finished campaign terminates the loop on the first render.
        flight = self._record(tmp_path)
        capsys.readouterr()
        assert main(["watch", str(flight)]) == 0

    def test_watch_missing_status_once_exits_2(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nothing"), "--once"]) == 2
        assert "no status artifact" in capsys.readouterr().err

    def test_watch_corrupt_status_is_typed_error(self, tmp_path, capsys):
        flight = self._record(tmp_path)
        (flight / "status.json").write_text('{"schema": "other/v9"}')
        capsys.readouterr()
        assert main(["watch", str(flight), "--once"]) == 4
        assert "error:" in capsys.readouterr().err
