"""The ``checkpoint-save`` write point under injected disk faults.

Every ``REPRO_FS_CHAOS`` fault kind (DESIGN §15) at the campaign
checkpoint's append must fail *typed* (:class:`CheckpointWriteError`,
never a raw traceback), leave at most a torn tail that the next save or
``--resume`` cuts, and be fully recoverable: a retried save or a
``--resume`` completes the campaign bit-for-bit.  A campaign never
exits 0 while its checkpoint lags its result.
"""

from __future__ import annotations

import json

import pytest

from repro.io.artifact import ARTIFACTS
from repro.io.atomic import iter_orphan_tmp
from repro.io.faults import FS_CHAOS_DIR_ENV, FS_CHAOS_ENV, FS_FAULT_KINDS
from repro.traffic import CampaignCheckpoint, CheckpointWriteError
from repro.traffic.checkpoint import CHECKPOINT_SCHEMA_NAME

pytestmark = pytest.mark.diskfault


def example_result():
    example = ARTIFACTS.get(CHECKPOINT_SCHEMA_NAME).example()
    return example.completed_results()[0]


@pytest.mark.parametrize("kind", FS_FAULT_KINDS)
class TestCheckpointSavePoint:
    def test_typed_failure_then_retry_heals(self, tmp_path, monkeypatch,
                                            kind):
        path = tmp_path / "checkpoint.json"
        checkpoint = CampaignCheckpoint.new(path, {"seed": 2020})
        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@checkpoint-save")
        with pytest.raises(CheckpointWriteError):
            checkpoint.save()
        monkeypatch.delenv(FS_CHAOS_ENV)
        checkpoint.save()
        reloaded = CampaignCheckpoint.load(path)
        assert reloaded.campaign == {"seed": 2020}
        # Either no residue at all, or the torn write's orphan temp.
        residue = list(iter_orphan_tmp(tmp_path))
        assert len(residue) <= 1

    def test_failed_append_then_retry_heals(self, tmp_path, monkeypatch,
                                            kind):
        path = tmp_path / "checkpoint.json"
        result = example_result()
        checkpoint = CampaignCheckpoint.new(path, {"seed": 2020})
        checkpoint.record(0, result)
        acknowledged = path.read_bytes()
        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@checkpoint-save")
        with pytest.raises(CheckpointWriteError):
            checkpoint.record(1, result)
        monkeypatch.delenv(FS_CHAOS_ENV)
        assert checkpoint.unlogged() == (1,)
        if kind == "enospc":
            assert path.read_bytes() == acknowledged  # not a byte landed
        # The retry cuts back to the last acknowledged byte first, so
        # the failed line (torn or whole) is replaced, never followed.
        checkpoint.save()
        assert checkpoint.unlogged() == ()
        assert CampaignCheckpoint.load(path).chunk_indices() == (0, 1)
        assert path.read_bytes().startswith(acknowledged)
        assert len(path.read_bytes().splitlines()) == 3


class TestCheckpointSaveDuringCampaign:
    """``repro fleet --checkpoint`` under a failing checkpoint write.

    The checkpoint-save hits of this 4-chunk campaign: hit 1 writes the
    identity line, hits 2–5 append chunks 0–3, and a hit 6 happens only
    when a chunk is still unlogged at the end of the campaign.
    """

    FLEET = ["fleet", "--hours", "4", "--chunk-hours", "1", "--seed", "9",
             "--workers", "1"]

    @pytest.fixture
    def uninterrupted(self, tmp_path):
        from repro.cli import main

        summary = tmp_path / "reference.json"
        assert main(self.FLEET + ["--json", str(summary)]) == 0
        return json.loads(summary.read_text())

    @pytest.fixture
    def chaos_dir(self, tmp_path, monkeypatch):
        directory = tmp_path / "chaos"
        directory.mkdir()
        monkeypatch.setenv(FS_CHAOS_DIR_ENV, str(directory))
        return directory

    def _resume(self, tmp_path, capsys):
        from repro.cli import main

        summary = tmp_path / "resumed.json"
        capsys.readouterr()
        code = main(self.FLEET + ["--checkpoint",
                                  str(tmp_path / "ck.json"), "--resume",
                                  "--json", str(summary)])
        assert code == 0
        return json.loads(summary.read_text()), capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["torn", "enospc"])
    def test_failing_disk_exits_4_then_resume_is_bit_for_bit(
            self, tmp_path, monkeypatch, capsys, uninterrupted, kind):
        from repro.cli import main

        monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@checkpoint-save")
        capsys.readouterr()
        assert main(self.FLEET + ["--checkpoint",
                                  str(tmp_path / "ck.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        monkeypatch.delenv(FS_CHAOS_ENV)
        resumed, _ = self._resume(tmp_path, capsys)
        assert resumed == uninterrupted

    def test_failed_append_is_retried_and_the_sink_keeps_its_chunk(
            self, tmp_path, monkeypatch, chaos_dir, uninterrupted):
        """Hit 3 (the second chunk's append) fails: the campaign warns,
        the next commit re-appends the chunk, and the record sink still
        gets every chunk."""
        from repro.cli import main

        monkeypatch.setenv(FS_CHAOS_ENV, "eio@checkpoint-save#3")
        summary = tmp_path / "summary.json"
        with pytest.warns(RuntimeWarning, match="cannot flush checkpoint"):
            assert main(self.FLEET + [
                "--checkpoint", str(tmp_path / "ck.json"),
                "--record-sink", str(tmp_path / "sink"),
                "--json", str(summary)]) == 0
        spilled = json.loads(summary.read_text()).pop("record_sink")
        assert spilled["parts"] == 4
        assert CampaignCheckpoint.load(tmp_path / "ck.json").chunk_indices() \
            == (0, 1, 2, 3)

    def test_failed_last_append_is_retried_at_campaign_end(
            self, tmp_path, monkeypatch, chaos_dir, uninterrupted):
        """Hit 5 (the last chunk's append) tears and no later commit
        retries it: the campaign appends the chunk when it ends, so it
        exits 0 over a complete checkpoint."""
        from repro.cli import main

        monkeypatch.setenv(FS_CHAOS_ENV, "torn@checkpoint-save#5")
        summary = tmp_path / "summary.json"
        with pytest.warns(RuntimeWarning, match="cannot flush checkpoint"):
            assert main(self.FLEET + ["--checkpoint",
                                      str(tmp_path / "ck.json"),
                                      "--json", str(summary)]) == 0
        assert CampaignCheckpoint.load(tmp_path / "ck.json").chunk_indices() \
            == (0, 1, 2, 3)
        assert json.loads(summary.read_text()) == uninterrupted

    def _lagging_campaign(self, tmp_path, monkeypatch, capsys, last_kind):
        """Hit 5 tears and the end-of-campaign append (hit 6) fails with
        *last_kind*: one ``error:`` line names chunk 3 and ``--resume``.
        Returns the resumed summary and the resume's stderr."""
        from repro.cli import main

        monkeypatch.setenv(FS_CHAOS_ENV, f"torn@checkpoint-save#5;"
                                         f"{last_kind}@checkpoint-save#6")
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="cannot flush checkpoint"):
            assert main(self.FLEET + ["--checkpoint",
                                      str(tmp_path / "ck.json")]) == 4
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert "chunk 3 " in errors[0] and "--resume" in errors[0]
        monkeypatch.delenv(FS_CHAOS_ENV)
        return self._resume(tmp_path, capsys)

    def test_torn_last_append_is_cut_on_resume(
            self, tmp_path, monkeypatch, capsys, chaos_dir, uninterrupted):
        """The retry at campaign end tears again: the campaign exits 4,
        and ``--resume`` cuts the torn tail and re-runs only chunk 3."""
        resumed, err = self._lagging_campaign(tmp_path, monkeypatch, capsys,
                                              "torn")
        assert "cut a torn tail" in err and "3 banked chunks" in err
        assert resumed == uninterrupted

    def test_lagging_checkpoint_exits_4_then_resume_is_bit_for_bit(
            self, tmp_path, monkeypatch, capsys, chaos_dir, uninterrupted):
        """The retry at campaign end hits ENOSPC after cutting hit 5's
        fragment, so the log ends cleanly after chunk 2."""
        resumed, err = self._lagging_campaign(tmp_path, monkeypatch, capsys,
                                              "enospc")
        assert "cut a torn tail" not in err
        assert resumed == uninterrupted
