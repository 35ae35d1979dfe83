"""Chunk transport: shm and pickle move bytes, never results.

The contract under test (DESIGN §12): for any transport in
:data:`~repro.traffic.CHUNK_TRANSPORTS` and any worker count, the
merged campaign is bit-for-bit the single-worker inline run — transport
is observability-visible (telemetry counters) but result-invisible,
and checkpoints kill-and-resume across transports.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.session import telemetry_session
from repro.traffic import (CHUNK_TRANSPORTS, BrakingSystem,
                           CampaignCheckpoint, EncounterGenerator,
                           default_context_profiles, default_perception,
                           nominal_policy, run_fleet, shm_available)
from repro.traffic.records import RecordSink, load_record_blocks

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
def reference(world):
    return _run(world)


class _KillAfter:
    """Simulated Ctrl-C after N committed chunks (see test_checkpoint)."""

    def __init__(self, after: int):
        self.after = after
        self.seen = 0

    def __call__(self, update) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt


class TestTransportInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("transport", list(CHUNK_TRANSPORTS))
    def test_bit_for_bit_across_transports_and_workers(self, world,
                                                       reference,
                                                       transport, workers):
        if transport == "shm" and not shm_available():
            pytest.skip("no shared_memory here")
        campaign = _run(world, workers=workers, transport=transport)
        assert campaign == reference
        assert campaign.records == reference.records

    def test_unknown_transport_rejected(self, world):
        with pytest.raises(ValueError, match="unknown transport"):
            _run(world, transport="carrier-pigeon")

    @pytest.mark.skipif(not shm_available(), reason="no shared_memory here")
    def test_shm_ships_every_nonempty_chunk(self, world, reference):
        with telemetry_session() as session:
            campaign = _run(world, workers=2, transport="shm")
        assert campaign == reference
        counters = session.snapshot().metrics.counters()
        shm_chunks = counters.get("parallel.transport.shm", 0)
        pickle_chunks = counters.get("parallel.transport.pickle", 0)
        assert shm_chunks + pickle_chunks == N_CHUNKS
        if reference.num_records:
            assert shm_chunks > 0
            assert counters["parallel.bytes_shipped"] > 0


@pytest.mark.skipif(not shm_available(), reason="no shared_memory here")
class TestKillAndResumeUnderShm:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_for_bit_after_kill_and_resume(self, tmp_path, world,
                                               reference, workers):
        path = tmp_path / "ck.json"
        with pytest.raises(KeyboardInterrupt):
            _run(world, workers=workers, transport="shm", checkpoint=path,
                 progress=_KillAfter(2))
        banked = CampaignCheckpoint.load(path)
        assert 0 < len(banked.chunks) < N_CHUNKS
        resumed = _run(world, workers=workers, transport="shm",
                       checkpoint=path, resume=True)
        assert resumed == reference

    def test_resume_across_transports(self, tmp_path, world, reference):
        """A campaign killed under shm resumes under pickle (and vice
        versa): transport is outside the checkpoint identity."""
        path = tmp_path / "ck.json"
        with pytest.raises(KeyboardInterrupt):
            _run(world, workers=2, transport="shm", checkpoint=path,
                 progress=_KillAfter(2))
        resumed = _run(world, workers=2, transport="pickle",
                       checkpoint=path, resume=True)
        assert resumed == reference


#: Interrupts a 2-worker shm campaign while one worker has shipped its
#: block but not returned the handle.  The first worker to ship claims
#: the marker file argv[1], writes ``<pid> <segment>`` to it and holds
#: its result; the coordinator's progress callback raises Ctrl-C's
#: KeyboardInterrupt once the marker exists.
_INTERRUPTED_CAMPAIGN = """
import os, sys, time
from pathlib import Path
from repro.traffic import (DEFAULT_MIX, BrakingSystem, EncounterGenerator,
                           default_context_profiles, default_perception,
                           nominal_policy, run_fleet)

MARKER = Path(sys.argv[1])


class HoldShipped:
    def __init__(self, worker):
        self.worker = worker

    def __call__(self, chunk, seed_seq):
        output = self.worker(chunk, seed_seq)
        if output.shipped is not None:
            try:
                fd = os.open(MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return output
            os.write(fd, f"{os.getpid()} {output.shipped.shm_name}".encode())
            os.close(fd)
            time.sleep(30)
        return output


def interrupt(update):
    deadline = time.monotonic() + 60
    while not MARKER.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    raise KeyboardInterrupt


try:
    run_fleet(nominal_policy(), EncounterGenerator(default_context_profiles()),
              default_perception(), BrakingSystem(), DEFAULT_MIX, 160.0,
              2020, chunk_hours=20.0, workers=2, transport="shm",
              wrap_worker=HoldShipped, progress=interrupt)
except KeyboardInterrupt:
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.skipif(not (shm_available() and Path("/dev/shm").is_dir()),
                    reason="needs POSIX shared memory under /dev/shm")
def test_interrupted_campaign_leaves_no_shm_segment(tmp_path):
    """A segment whose handle never reaches the coordinator (Ctrl-C with
    chunks in flight) is reclaimed by the shared resource tracker when
    the coordinator exits — it does not outlive the campaign."""
    marker = tmp_path / "held"
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _INTERRUPTED_CAMPAIGN, str(marker)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    worker_pid, segment = marker.read_text().split()
    assert segment.startswith(f"repro-blk-{worker_pid}-")
    deadline = time.monotonic() + 10.0
    while True:
        left = sorted(Path("/dev/shm").glob(f"repro-blk-{worker_pid}-*"))
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not left, f"leaked shared-memory segments: {left}"


class TestRecordSinkThroughFleet:
    def test_sink_holds_the_merged_records(self, tmp_path, world,
                                           reference):
        with RecordSink(tmp_path) as sink:
            campaign = _run(world, workers=2, record_sink=sink)
        assert campaign == reference
        assert load_record_blocks(tmp_path) == \
            reference.record_block.canonical_sort()
        assert sink.total_records == reference.num_records

    def test_resumed_campaign_spills_restored_chunks(self, tmp_path,
                                                     world, reference):
        path = tmp_path / "ck.json"
        with pytest.raises(KeyboardInterrupt):
            _run(world, checkpoint=path, progress=_KillAfter(2))
        with RecordSink(tmp_path / "spill") as sink:
            resumed = _run(world, checkpoint=path, resume=True,
                           record_sink=sink)
        assert resumed == reference
        # The spill directory covers the *whole* campaign, including
        # the chunks restored from the checkpoint.
        assert load_record_blocks(tmp_path / "spill") == \
            reference.record_block.canonical_sort()
