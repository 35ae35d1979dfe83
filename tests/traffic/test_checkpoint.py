"""Campaign checkpoints: exact round-trips and the kill-and-resume property.

The contract under test (DESIGN §9): for any kill point and any worker
count on either side of it, ::

    run_fleet(seed, hours)                               # uninterrupted
    == resume(kill(run_fleet(seed, hours, checkpoint)))  # killed + resumed

bit-for-bit — the chunk plan and per-chunk seeds depend only on
``(seed, hours, chunk_hours)``, restored chunks keep their merge slots,
and JSON round-trips Python floats exactly.  The checkpoint is an
append-only signed log (one line per committed chunk); a file in any
other layout is refused typed and left as it is.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import (ArtifactValidationError, CorruptArtifactError,
                          SchemaMismatchError)
from repro.io import payload_digest
from repro.traffic import (BrakingSystem, CampaignCheckpoint,
                           CheckpointMismatchError, EncounterGenerator,
                           cautious_policy, default_context_profiles,
                           default_perception, nominal_policy, run_fleet)
from repro.traffic.checkpoint import (CheckpointLog,
                                      repair_checkpoint_tail,
                                      result_from_dict, result_to_dict)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
HOURS = 6.0
CHUNK_HOURS = 1.0
N_CHUNKS = 6
SEED = 2020


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


def _run(world, **kwargs):
    kwargs.setdefault("workers", 1)
    return run_fleet(nominal_policy(), world, default_perception(),
                     BrakingSystem(), MIX, HOURS, SEED,
                     chunk_hours=CHUNK_HOURS, **kwargs)


@pytest.fixture(scope="module")
def uninterrupted(world):
    return _run(world)


def _lines(path) -> list:
    return Path(path).read_bytes().splitlines(keepends=True)


def _v1_document(checkpoint: CampaignCheckpoint, *, signed: bool,
                 pretty: bool = True) -> str:
    """``checkpoint`` as one ``repro.campaign-checkpoint/v1`` document,
    the single-document layout earlier builds wrote: pretty-printed with
    sorted keys and indent 2, or on one line, signed over its canonical
    payload or digest-free."""
    payload = {
        "schema": "repro.campaign-checkpoint/v1",
        "created_utc": checkpoint.created_utc,
        "updated_utc": "2026-01-01T00:05:00+00:00",
        "campaign": checkpoint.campaign,
        "chunks": {
            str(index): {"result": result_to_dict(result),
                         "telemetry": None}
            for index, result in checkpoint.completed_results().items()},
    }
    if signed:
        payload["payload_sha256"] = payload_digest(payload)
    return json.dumps(payload, indent=2 if pretty else None,
                      sort_keys=True) + "\n"


class _KillAfter:
    """A progress observer that simulates Ctrl-C after N committed chunks.

    ``KeyboardInterrupt`` deliberately propagates through the progress
    plumbing (only ``Exception`` is downgraded), which makes it a
    faithful in-process stand-in for a real kill: the runner tears down
    and the checkpoint holds exactly the committed prefix.
    """

    def __init__(self, after: int):
        self.after = after
        self.seen = 0

    def __call__(self, update) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt


class TestResultRoundTrip:
    def test_bit_for_bit_json_round_trip(self, uninterrupted):
        data = result_to_dict(uninterrupted)
        # Through actual JSON text, not just dicts: shortest-repr floats
        # must survive serialisation exactly.
        restored = result_from_dict(json.loads(json.dumps(data)))
        assert restored == uninterrupted

    def test_round_trip_preserves_every_record_field(self, world):
        result = _run(world)
        restored = result_from_dict(result_to_dict(result))
        assert restored.records == result.records
        assert restored.context_hours == result.context_hours
        assert restored.hours == result.hours


class TestCheckpointFile:
    def test_save_load_round_trip(self, tmp_path, uninterrupted):
        path = tmp_path / "ck.json"
        ck = CampaignCheckpoint.new(path, {"seed": SEED, "hours": HOURS})
        ck.record(0, uninterrupted)
        ck.record(2, uninterrupted)
        loaded = CampaignCheckpoint.load(path)
        assert loaded.campaign == {"seed": SEED, "hours": HOURS}
        assert sorted(loaded.chunks) == [0, 2]
        assert loaded.completed_results()[0] == uninterrupted
        assert loaded.units_done() == pytest.approx(2 * uninterrupted.hours)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError,
                           match=r"unsupported checkpoint-log entry schema "
                                 r"'something/else'.*'repro\.checkpoint-log/v1'"):
            CampaignCheckpoint.load(path)

    def test_ensure_matches_accepts_identity_and_rejects_foreign(self,
                                                                 tmp_path):
        ck = CampaignCheckpoint.new(tmp_path / "ck.json",
                                    {"seed": 1, "hours": 10.0})
        ck.ensure_matches({"seed": 1, "hours": 10.0})
        with pytest.raises(CheckpointMismatchError, match="seed"):
            ck.ensure_matches({"seed": 2, "hours": 10.0})

    def test_save_is_atomic_no_temp_residue(self, tmp_path, uninterrupted):
        path = tmp_path / "ck.json"
        ck = CampaignCheckpoint.new(path, {"seed": SEED})
        for index in range(3):
            ck.record(index, uninterrupted)
            # Every record() leaves one consistent log behind: the
            # identity line plus one signed line per chunk, loading
            # strictly, with no temp file next to it.
            assert [json.loads(line)["schema"] for line in _lines(path)] \
                == ["repro.checkpoint-log/v1"] * (index + 2)
            assert CampaignCheckpoint.load(path).chunk_indices() == \
                tuple(range(index + 1))
            assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    def test_every_record_appends_exactly_one_line(self, tmp_path,
                                                   uninterrupted):
        """The write-amplification guard: a commit never rewrites what
        is already on disk."""
        path = tmp_path / "ck.json"
        ck = CampaignCheckpoint.new(path, {"seed": SEED})
        ck.save()  # the identity line
        before = path.read_bytes()
        assert len(_lines(path)) == 1
        for index in range(4):
            ck.record(index, uninterrupted)
            after = path.read_bytes()
            assert after.startswith(before)
            assert len(after.splitlines()) == len(before.splitlines()) + 1
            before = after

    def test_campaign_commits_only_append(self, tmp_path, world):
        path = tmp_path / "ck.json"
        seen = []
        _run(world, checkpoint=path,
             progress=lambda update: seen.append(path.read_bytes()))
        assert len(seen) == N_CHUNKS
        assert len(seen[0].splitlines()) == 2  # identity + first chunk
        for before, after in zip(seen, seen[1:]):
            assert after.startswith(before)
            assert len(after.splitlines()) == len(before.splitlines()) + 1
        assert path.read_bytes() == seen[-1]

    def test_forty_chunk_campaign_writes_at_most_1_1x_its_size(
            self, tmp_path, world, monkeypatch):
        """Bytes passed to write(2) inside every save, summed over a
        40-chunk campaign, against the checkpoint it leaves."""
        proc_io = Path("/proc/self/io")
        try:
            proc_io.read_text()
        except OSError:
            pytest.skip("counting written bytes needs /proc/self/io")

        def wchar() -> int:
            for line in proc_io.read_text().splitlines():
                if line.startswith("wchar:"):
                    return int(line.split()[1])
            raise AssertionError("no wchar line in /proc/self/io")

        written = []
        save = CampaignCheckpoint.save

        def counted(checkpoint):
            before = wchar()
            try:
                return save(checkpoint)
            finally:
                written.append(wchar() - before)

        monkeypatch.setattr(CampaignCheckpoint, "save", counted)
        path = tmp_path / "ck.json"
        run_fleet(nominal_policy(), world, default_perception(),
                  BrakingSystem(), MIX, 40.0, SEED, workers=1,
                  chunk_hours=1.0, checkpoint=path)
        size = path.stat().st_size
        assert len(CampaignCheckpoint.load(path).chunks) == 40
        assert sum(written) <= 1.1 * size, (
            f"{sum(written)} bytes written for a {size}-byte checkpoint")


class TestKillAndResume:
    @pytest.mark.parametrize("kill_workers", [1, 2])
    @pytest.mark.parametrize("resume_workers", [1, 2, 4])
    def test_bit_for_bit_for_any_worker_split(self, tmp_path, world,
                                              uninterrupted, kill_workers,
                                              resume_workers):
        path = tmp_path / "ck.json"
        with pytest.raises(KeyboardInterrupt):
            _run(world, workers=kill_workers, checkpoint=path,
                 progress=_KillAfter(2))
        banked = CampaignCheckpoint.load(path)
        assert 0 < len(banked.chunks) < N_CHUNKS
        resumed = _run(world, workers=resume_workers, checkpoint=path,
                       resume=True)
        assert resumed == uninterrupted

    def test_kill_twice_then_resume(self, tmp_path, world, uninterrupted):
        path = tmp_path / "ck.json"
        with pytest.raises(KeyboardInterrupt):
            _run(world, checkpoint=path, progress=_KillAfter(2))
        with pytest.raises(KeyboardInterrupt):
            _run(world, checkpoint=path, resume=True,
                 progress=_KillAfter(2))
        assert len(CampaignCheckpoint.load(path).chunks) >= 3
        assert _run(world, checkpoint=path, resume=True) == uninterrupted

    def test_resume_of_complete_checkpoint_runs_nothing(self, tmp_path,
                                                        world,
                                                        uninterrupted):
        path = tmp_path / "ck.json"
        _run(world, checkpoint=path)
        updates = []
        again = _run(world, checkpoint=path, resume=True,
                     progress=updates.append)
        assert again == uninterrupted
        assert updates == []  # nothing executed, nothing reported

    def test_resumed_progress_reports_restored_baseline(self, tmp_path,
                                                        world):
        path = tmp_path / "ck.json"
        with pytest.raises(KeyboardInterrupt):
            _run(world, checkpoint=path, progress=_KillAfter(2))
        restored = len(CampaignCheckpoint.load(path).chunks)
        updates = []
        _run(world, checkpoint=path, resume=True, progress=updates.append)
        assert len(updates) == N_CHUNKS - restored
        assert all(u.chunks_resumed == restored for u in updates)
        assert all(u.hours_resumed == pytest.approx(restored * CHUNK_HOURS)
                   for u in updates)
        assert updates[0].chunks_done == restored + 1
        assert updates[-1].chunks_done == N_CHUNKS
        assert updates[-1].hours_done == pytest.approx(HOURS)

    def test_kill_and_resume_with_telemetry(self, tmp_path, world,
                                            uninterrupted):
        from repro.obs import telemetry_session

        path = tmp_path / "ck.json"
        with telemetry_session():
            with pytest.raises(KeyboardInterrupt):
                _run(world, checkpoint=path, progress=_KillAfter(2))
        # Chunk telemetry snapshots are persisted alongside results...
        banked = CampaignCheckpoint.load(path)
        assert all(snap is not None
                   for snap in banked.completed_telemetry().values())
        # ...and the resumed campaign still merges bit-for-bit, with the
        # session seeing the full campaign's simulation totals.
        with telemetry_session() as session:
            resumed = _run(world, checkpoint=path, resume=True)
            counters = session.snapshot().metrics.counters()
        assert resumed == uninterrupted
        assert counters["parallel.chunks_resumed"] == len(banked.chunks)

    def test_telemetry_off_can_resume_telemetry_on_checkpoint(self,
                                                              tmp_path,
                                                              world,
                                                              uninterrupted):
        from repro.obs import telemetry_session

        path = tmp_path / "ck.json"
        with telemetry_session():
            with pytest.raises(KeyboardInterrupt):
                _run(world, checkpoint=path, progress=_KillAfter(2))
        resumed = _run(world, checkpoint=path, resume=True)
        assert resumed == uninterrupted


class TestMisuse:
    def test_existing_checkpoint_without_resume_refused(self, tmp_path,
                                                        world):
        path = tmp_path / "ck.json"
        _run(world, checkpoint=path)
        with pytest.raises(FileExistsError, match="--resume"):
            _run(world, checkpoint=path)

    def test_resume_without_checkpoint_refused(self, world):
        """Nothing to restore: resuming would silently start afresh."""
        with pytest.raises(ValueError, match="checkpoint"):
            _run(world, resume=True)

    def test_resume_against_different_campaign_refused(self, tmp_path,
                                                       world):
        path = tmp_path / "ck.json"
        _run(world, checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            run_fleet(nominal_policy(), world, default_perception(),
                      BrakingSystem(), MIX, HOURS, SEED + 1, workers=1,
                      chunk_hours=CHUNK_HOURS, checkpoint=path, resume=True)
        with pytest.raises(CheckpointMismatchError, match="policy"):
            run_fleet(cautious_policy(), world, default_perception(),
                      BrakingSystem(), MIX, HOURS, SEED, workers=1,
                      chunk_hours=CHUNK_HOURS, checkpoint=path, resume=True)

    def test_resume_on_different_worker_count_is_allowed(self, tmp_path,
                                                         world,
                                                         uninterrupted):
        """Worker count is deliberately not part of the identity block."""
        path = tmp_path / "ck.json"
        with pytest.raises(KeyboardInterrupt):
            _run(world, workers=1, checkpoint=path, progress=_KillAfter(1))
        assert _run(world, workers=4, checkpoint=path,
                    resume=True) == uninterrupted

    def test_missing_checkpoint_with_resume_starts_fresh(self, tmp_path,
                                                         world,
                                                         uninterrupted):
        """--resume against a not-yet-existing file is a fresh start (the
        ergonomic choice for idempotent job scripts)."""
        path = tmp_path / "new.json"
        assert _run(world, checkpoint=path, resume=True) == uninterrupted
        assert path.exists()


class TestArtifactBoundary:
    """Regression coverage for the repro.io integration (DESIGN §10)."""

    def test_missing_schema_tag_names_expected_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"created_utc": "t", "campaign": {},
                                    "chunks": {}}))
        from repro.errors import SchemaMismatchError
        with pytest.raises(
                SchemaMismatchError,
                match=r"missing schema tag.*repro\.checkpoint-log/v1"):
            CampaignCheckpoint.load(path)

    def test_unknown_schema_tag_names_both_tags(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        from repro.errors import SchemaMismatchError
        with pytest.raises(
                SchemaMismatchError,
                match=r"'something/else'.*expected "
                      r"'repro\.checkpoint-log/v1'"):
            CampaignCheckpoint.load(path)

    def test_saved_checkpoint_carries_digest(self, tmp_path, uninterrupted):
        path = tmp_path / "ck.json"
        ck = CampaignCheckpoint.new(path, {"seed": SEED})
        ck.record(0, uninterrupted)
        ck.record(1, uninterrupted)
        entries = [json.loads(line) for line in _lines(path)]
        assert [e["kind"] for e in entries] == \
            ["campaign.identity", "chunk.banked", "chunk.banked"]
        # Every entry is signed and chained to its predecessor's digest.
        assert all(e["payload_sha256"].startswith("sha256:")
                   for e in entries)
        assert [e["prev"] for e in entries] == \
            [None] + [e["payload_sha256"] for e in entries[:-1]]

    def test_value_tamper_detected_on_load(self, tmp_path, uninterrupted):
        path = tmp_path / "ck.json"
        ck = CampaignCheckpoint.new(path, {"seed": SEED})
        ck.record(0, uninterrupted)
        lines = _lines(path)
        entry = json.loads(lines[1])
        entry["data"]["result"]["hours"] = 999.0  # foreign exposure
        lines[1] = (json.dumps(entry) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptArtifactError, match="digest mismatch"):
            CampaignCheckpoint.load(path)

    def test_truncated_checkpoint_is_typed(self, tmp_path, uninterrupted):
        path = tmp_path / "ck.json"
        ck = CampaignCheckpoint.new(path, {"seed": SEED})
        ck.record(0, uninterrupted)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        from repro.errors import ArtifactError
        with pytest.raises(ArtifactError):
            CampaignCheckpoint.load(path)


def _killed(world, path, after: int = 3) -> None:
    with pytest.raises(KeyboardInterrupt):
        _run(world, checkpoint=path, progress=_KillAfter(after))


class TestLogDamage:
    """Strict load: every way a log can be damaged fails typed."""

    def test_torn_final_line(self, tmp_path, world):
        path = tmp_path / "ck.json"
        _killed(world, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - len(_lines(path)[-1]) // 2])
        with pytest.raises(CorruptArtifactError, match="invalid JSON"):
            CampaignCheckpoint.load(path)

    @pytest.mark.parametrize("damage", ["reordered", "dropped", "spliced"])
    def test_chain_damage(self, tmp_path, world, damage):
        path = tmp_path / "ck.json"
        _killed(world, path, after=4)
        lines = _lines(path)
        if damage == "reordered":
            lines[2], lines[3] = lines[3], lines[2]
        elif damage == "dropped":
            del lines[2]
        else:  # an entry from another campaign's log, same position
            other = tmp_path / "other.json"
            with pytest.raises(KeyboardInterrupt):
                run_fleet(nominal_policy(), world, default_perception(),
                          BrakingSystem(), MIX, HOURS, SEED + 1, workers=1,
                          chunk_hours=CHUNK_HOURS, checkpoint=other,
                          progress=_KillAfter(4))
            lines[2] = _lines(other)[2]
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptArtifactError, match="chain broken"):
            CampaignCheckpoint.load(path)

    def test_duplicate_chunk_index(self, tmp_path, uninterrupted):
        """A correctly chained log that banks one chunk twice."""
        path = tmp_path / "ck.json"
        entry = {"index": 0, "result": result_to_dict(uninterrupted),
                 "telemetry": None}
        with CheckpointLog.open(path) as log:
            log.emit("campaign.identity", {"campaign": {"seed": SEED},
                                           "created_utc": "t"})
            log.emit("chunk.banked", entry)
            log.emit("chunk.banked", entry)
        with pytest.raises(ArtifactValidationError,
                           match="duplicate chunk index"):
            CampaignCheckpoint.load(path)

    def test_log_must_open_with_its_identity(self, tmp_path,
                                             uninterrupted):
        path = tmp_path / "ck.json"
        with CheckpointLog.open(path) as log:
            log.emit("chunk.banked", {"index": 0, "telemetry": None,
                                      "result": result_to_dict(
                                          uninterrupted)})
        with pytest.raises(ArtifactValidationError, match="identity"):
            CampaignCheckpoint.load(path)

    def test_a_chunk_is_banked_once(self, tmp_path, uninterrupted):
        ck = CampaignCheckpoint.new(tmp_path / "ck.json", {"seed": SEED})
        ck.record(0, uninterrupted)
        with pytest.raises(ValueError, match="already banked"):
            ck.record(0, uninterrupted)


class TestResumeCutsTornTail:
    def test_torn_append_loses_only_that_chunk(self, tmp_path, world,
                                               uninterrupted):
        path = tmp_path / "ck.json"
        _killed(world, path)
        lines = _lines(path)
        torn = len(lines[-1]) // 2
        path.write_bytes(b"".join(lines)[:-torn])  # kill mid-append
        checkpoint, cut = CampaignCheckpoint.resume(path)
        assert cut == len(lines[-1]) - torn
        assert checkpoint.chunk_indices() == (0, 1)
        assert path.read_bytes() == b"".join(lines[:-1])
        assert _run(world, checkpoint=checkpoint,
                    resume=True) == uninterrupted
        assert CampaignCheckpoint.load(path).chunk_indices() == \
            tuple(range(N_CHUNKS))

    def test_campaign_resume_by_path_cuts_too(self, tmp_path, world,
                                              uninterrupted):
        path = tmp_path / "ck.json"
        _killed(world, path)
        path.write_bytes(path.read_bytes() + b'{"data":{"ind')
        assert _run(world, checkpoint=path, resume=True) == uninterrupted

    def test_empty_file_is_a_fresh_start(self, tmp_path, world,
                                         uninterrupted):
        path = tmp_path / "ck.json"
        path.write_bytes(b"")
        assert CampaignCheckpoint.resume(path) == (None, 0)
        assert _run(world, checkpoint=path, resume=True) == uninterrupted

    def test_unreadable_checkpoint_is_typed(self, tmp_path):
        path = tmp_path / "ck.json"
        path.mkdir()
        with pytest.raises(CorruptArtifactError, match=r"^[^:]*: cannot read"):
            CampaignCheckpoint.resume(path)

    @pytest.mark.parametrize("damage", ["interior", "no identity"])
    def test_other_damage_is_never_cut(self, tmp_path, world, damage):
        path = tmp_path / "ck.json"
        _killed(world, path)
        lines = _lines(path)
        if damage == "interior":
            lines[1] = lines[1].replace(b'"index":0', b'"index":7')
        else:  # the identity line is renamed into place whole, never torn
            lines = [lines[0][:30]]
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        with pytest.raises(CorruptArtifactError, match="not a torn tail"):
            CampaignCheckpoint.resume(path)
        with pytest.raises(CorruptArtifactError):
            _run(world, checkpoint=path, resume=True)
        assert path.read_bytes() == damaged


@pytest.mark.parametrize("signed", [True, False],
                         ids=["signed", "digest-free"])
class TestV1Documents:
    """A single ``repro.campaign-checkpoint/v1`` document is no checkpoint
    log: loading or resuming it fails typed, and nothing cuts it."""

    def _v1(self, world, tmp_path, signed):
        """The pretty-printed and the one-line document of one banked
        checkpoint."""
        _killed(world, tmp_path / "ck.json")
        banked = CampaignCheckpoint.load(tmp_path / "ck.json")
        paths = []
        for pretty in (True, False):
            path = tmp_path / f"v1-{'pretty' if pretty else 'line'}.json"
            path.write_text(_v1_document(banked, signed=signed,
                                         pretty=pretty))
            paths.append(path)
        return paths

    def test_load_is_refused(self, tmp_path, world, signed):
        pretty, line = self._v1(world, tmp_path, signed)
        with pytest.raises(CorruptArtifactError, match="invalid JSON"):
            CampaignCheckpoint.load(pretty)
        with pytest.raises(
                SchemaMismatchError,
                match=r"'repro\.campaign-checkpoint/v1' \(expected "
                      r"'repro\.checkpoint-log/v1'\)"):
            CampaignCheckpoint.load(line)

    def test_tail_repair_never_cuts_a_document(self, tmp_path, world,
                                               signed):
        # A document is not a log: its first line is no signed entry,
        # so nothing in it is a provably torn tail.
        for path in self._v1(world, tmp_path, signed):
            document = path.read_bytes()
            with pytest.raises(CorruptArtifactError, match="not a torn tail"):
                repair_checkpoint_tail(path)
            with pytest.raises(CorruptArtifactError, match="not a torn tail"):
                CampaignCheckpoint.resume(path)
            assert path.read_bytes() == document

    @pytest.mark.parametrize("pretty", [True, False],
                             ids=["pretty", "one-line"])
    @pytest.mark.parametrize("verb", ["fleet", "dossier"])
    def test_cli_resume_exits_4_and_keeps_the_file(self, tmp_path, capsys,
                                                   signed, pretty, verb):
        from repro.cli import main

        campaign = ["--hours", "4", "--seed", "9", "--chunk-hours", "1",
                    "--workers", "1"]
        ck = tmp_path / "ck.json"
        assert main(["fleet"] + campaign + ["--checkpoint", str(ck)]) == 0
        ck.write_text(_v1_document(CampaignCheckpoint.load(ck),
                                   signed=signed, pretty=pretty))
        document = ck.read_bytes()
        capsys.readouterr()
        code = main([verb] + campaign + ["--checkpoint", str(ck),
                                         "--resume"])
        err = capsys.readouterr().err
        assert code == 4
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {ck}: ")
        assert "Traceback" not in err
        assert ck.read_bytes() == document
