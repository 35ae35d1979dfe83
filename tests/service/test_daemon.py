"""End-to-end daemon tests: real processes, real signals, real crashes.

Each test runs ``python -m repro serve`` as a subprocess against a
throwaway spool and drives it over its HTTP API.  The chaos-scripted
kills land at the crash-consistency-critical instants (journal append,
lease grant, result commit, runner chunk commit) via the
``REPRO_SERVICE_CHAOS`` directives — the daemon (or its runner) SIGKILLs
*itself* at exactly the scripted point, which is how the worst-case
instant stays deterministic.

The acceptance bar (ISSUE / DESIGN §14): after any such kill plus a
restart, every accepted job completes with a result **bit-for-bit
identical** to an uninterrupted ``run_fleet`` of the same spec; no job
is lost; none runs twice (resubmission is a cache hit); graceful drain
exits 0 and the restarted daemon resumes from checkpoints without
re-simulating committed chunks (``chunks_resumed`` proves it).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (JobStore, ServiceClient, ServiceClientError,
                           read_service_journal)
from repro.testing.chaos import SERVICE_CHAOS_DIR_ENV, SERVICE_CHAOS_ENV
from repro.traffic import read_checkpoint_progress

pytestmark = pytest.mark.service

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The standard tiny campaign: 4 chunks, a couple of seconds of compute.
SPEC = {"policy": "nominal", "hours": 8.0, "chunk_hours": 2.0,
        "workers": 1, "engine": "vectorized"}

DEADLINE_S = 90.0


def direct_result(seed: int):
    """The uninterrupted ground truth for SPEC at one seed."""
    from repro.traffic import (BrakingSystem, DEFAULT_MIX,
                               EncounterGenerator,
                               default_context_profiles,
                               default_perception, policy_by_name,
                               run_fleet)

    return run_fleet(
        policy_by_name(SPEC["policy"]),
        EncounterGenerator(default_context_profiles()),
        default_perception(), BrakingSystem(), DEFAULT_MIX,
        SPEC["hours"], seed, workers=1, chunk_hours=SPEC["chunk_hours"],
        engine=SPEC["engine"])


_DIRECT_CACHE: dict = {}


def expected_result(seed: int):
    if seed not in _DIRECT_CACHE:
        _DIRECT_CACHE[seed] = direct_result(seed)
    return _DIRECT_CACHE[seed]


class Daemon:
    """One ``repro serve`` process under test control."""

    def __init__(self, spool: Path, *, chaos: str = None,
                 chaos_dir: Path = None, extra: tuple = ()):
        self.spool = spool
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(SERVICE_CHAOS_ENV, None)
        env.pop(SERVICE_CHAOS_DIR_ENV, None)
        if chaos is not None:
            env[SERVICE_CHAOS_ENV] = chaos
        if chaos_dir is not None:
            env[SERVICE_CHAOS_DIR_ENV] = str(chaos_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--spool",
             str(spool), *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        self._wait_endpoint()

    def _wait_endpoint(self) -> None:
        path = self.spool / "endpoint.json"
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            if path.exists():
                try:
                    endpoint = json.loads(path.read_text())
                except json.JSONDecodeError:
                    endpoint = {}
                if endpoint.get("pid") == self.proc.pid:
                    return
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"daemon died before binding:\n"
                    f"{self.proc.stdout.read()}")
            time.sleep(0.05)
        raise AssertionError("daemon never published its endpoint")

    @property
    def client(self) -> ServiceClient:
        return ServiceClient.from_spool(self.spool)

    def wait_killed(self) -> int:
        """Wait for a chaos self-SIGKILL; returns the exit status."""
        try:
            return self.proc.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise AssertionError("daemon survived its scripted kill")

    def terminate_and_wait(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise AssertionError("daemon did not drain within deadline")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def wait_job_state(spool: Path, job_id: str, states: tuple,
                   timeout_s: float = DEADLINE_S) -> str:
    store = JobStore(spool)
    deadline = time.monotonic() + timeout_s
    state = "?"
    while time.monotonic() < deadline:
        if store.has_job(job_id):
            state = store.load_job(job_id).state
            if state in states:
                return state
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} never reached {states} (last state {state!r})")


def assert_completed_bit_for_bit(spool: Path, job_id: str,
                                 seed: int) -> None:
    store = JobStore(spool)
    record = store.load_job(job_id)
    assert record.state == "done"
    job_result = store.load_result(record.spec_digest)
    assert job_result.result == expected_result(seed), \
        "service result differs from the uninterrupted run_fleet run"


@pytest.mark.parametrize("seed", [2020, 777])
@pytest.mark.parametrize("point", ["journal-append:job.submitted",
                                   "journal-append:job.leased",
                                   "lease-grant"])
def test_daemon_sigkill_at_worst_case_instant_loses_no_job(
        tmp_path, seed, point):
    """SIGKILL the daemon at a scripted instant; restart; job completes
    bit-for-bit, is never lost, and never runs twice."""
    spool, chaos_dir = tmp_path / "spool", tmp_path / "chaos"
    chaos_dir.mkdir()
    daemon = Daemon(spool, chaos=f"kill@{point}", chaos_dir=chaos_dir)
    try:
        spec = dict(SPEC, seed=seed)
        try:
            reply = daemon.client.submit(spec)
            job_id = reply["job"]["job_id"]
        except ServiceClientError:
            # The kill landed inside the submission round-trip (the
            # journal-append:job.submitted instant): the client saw a
            # dropped connection, but the record was persisted *before*
            # the journal append — the job must still be in the spool.
            job_id = None
        daemon.wait_killed()
    finally:
        daemon.kill()

    store = JobStore(spool)
    records = list(store.iter_jobs())
    assert len(records) == 1, "accepted job was lost by the kill"
    if job_id is not None:
        assert records[0].job_id == job_id
    job_id = records[0].job_id
    attempts_before = records[0].attempts

    # Restart without chaos: recovery must finish the job.
    daemon = Daemon(spool)
    try:
        wait_job_state(spool, job_id, ("done",))
        assert_completed_bit_for_bit(spool, job_id, seed)

        # Idempotence: resubmitting the identical spec is a cache hit —
        # same job id, no new attempt, zero compute.
        reply = daemon.client.submit(spec)
        assert reply["cached"] is True and reply["created"] is False
        after = JobStore(spool).load_job(job_id)
        assert after.attempts <= max(attempts_before + 1, 1)
        assert len(list(JobStore(spool).iter_jobs())) == 1
        daemon.terminate_and_wait()
    finally:
        daemon.kill()

    records, head = read_service_journal(spool / "service-journal.jsonl")
    kinds = [r.kind for r in records]
    assert head is not None  # one valid chain across all incarnations
    assert kinds.count("job.completed") == 1, "job ran (or counted) twice"


@pytest.mark.parametrize("seed", [2020, 777])
def test_runner_sigkill_after_chunk_commit_resumes_from_checkpoint(
        tmp_path, seed):
    """SIGKILL the *runner* right after its second chunk commit: the
    supervisor requeues, attempt two resumes the banked chunks, and the
    merged result is still bit-for-bit the uninterrupted one."""
    spool, chaos_dir = tmp_path / "spool", tmp_path / "chaos"
    chaos_dir.mkdir()
    daemon = Daemon(spool, chaos="kill@runner-chunk#2",
                    chaos_dir=chaos_dir)
    try:
        reply = daemon.client.submit(dict(SPEC, seed=seed))
        job_id = reply["job"]["job_id"]
        wait_job_state(spool, job_id, ("done", "failed"))
        store = JobStore(spool)
        record = store.load_job(job_id)
        assert record.state == "done"
        assert record.attempts == 2, "the kill should cost one attempt"
        assert record.chunks_resumed >= 1, \
            "attempt two re-simulated chunks the checkpoint had banked"
        assert_completed_bit_for_bit(spool, job_id, seed)
        daemon.terminate_and_wait()
    finally:
        daemon.kill()


def test_result_commit_kill_heals_via_cache_check(tmp_path):
    """SIGKILL the runner right *after* the result artifact committed
    (before the supervisor flips the record): the retry must become a
    cache hit, not a re-run."""
    seed = 2020
    spool, chaos_dir = tmp_path / "spool", tmp_path / "chaos"
    chaos_dir.mkdir()
    daemon = Daemon(spool, chaos="kill@result-commit",
                    chaos_dir=chaos_dir)
    try:
        reply = daemon.client.submit(dict(SPEC, seed=seed))
        job_id = reply["job"]["job_id"]
        wait_job_state(spool, job_id, ("done",))
        assert_completed_bit_for_bit(spool, job_id, seed)
        daemon.terminate_and_wait()
    finally:
        daemon.kill()
    records, _ = read_service_journal(spool / "service-journal.jsonl")
    completed = [r for r in records if r.kind == "job.completed"]
    assert len(completed) == 1
    assert completed[0].data["cached"] is True, \
        "the committed result should heal the retry as a cache hit"


def test_graceful_drain_checkpoints_and_restart_resumes(tmp_path):
    """SIGTERM mid-campaign: exit 0, job parked queued with its
    checkpoint; the restarted daemon finishes without re-simulating the
    banked chunks (chunks_resumed > 0), bit-for-bit identical."""
    seed = 2020
    spool = tmp_path / "spool"
    # 120 chunks: long enough that the drain's SIGTERM reaches the
    # runner mid-campaign (a commit is one appended line, so a 12-chunk
    # job can finish between the poll below and the signal).
    long_spec = dict(SPEC, seed=seed, hours=240.0)
    daemon = Daemon(spool)
    try:
        reply = daemon.client.submit(long_spec)
        job_id = reply["job"]["job_id"]
        checkpoint = spool / "checkpoints" / f"{job_id}.json"
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            progress = read_checkpoint_progress(checkpoint)
            if progress is not None and progress["chunks_banked"] >= 2:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("campaign never banked two chunks")
        exit_code = daemon.terminate_and_wait()
        assert exit_code == 0, "graceful drain must exit 0"
    finally:
        daemon.kill()

    store = JobStore(spool)
    record = store.load_job(job_id)
    assert record.state == "queued", "drain must park the job queued"
    banked = read_checkpoint_progress(checkpoint)["chunks_banked"]
    assert banked >= 2

    daemon = Daemon(spool)
    try:
        wait_job_state(spool, job_id, ("done",))
        record = JobStore(spool).load_job(job_id)
        # parallel.chunks_resumed, read from the runner's telemetry
        # session: the restart restored the banked chunks instead of
        # re-simulating them.
        assert record.chunks_resumed >= banked
        job_result = JobStore(spool).load_result(record.spec_digest)
        assert job_result.chunks_resumed == record.chunks_resumed

        from repro.traffic import (BrakingSystem, DEFAULT_MIX,
                                   EncounterGenerator,
                                   default_context_profiles,
                                   default_perception, policy_by_name,
                                   run_fleet)
        uninterrupted = run_fleet(
            policy_by_name("nominal"),
            EncounterGenerator(default_context_profiles()),
            default_perception(), BrakingSystem(), DEFAULT_MIX,
            240.0, seed, workers=1, chunk_hours=2.0)
        assert job_result.result == uninterrupted
        daemon.terminate_and_wait()
    finally:
        daemon.kill()

    records, _ = read_service_journal(spool / "service-journal.jsonl")
    kinds = [r.kind for r in records]
    for kind in ("service.draining", "service.drained",
                 "service.stopped"):
        assert kinds.count(kind) == 2  # once per incarnation
    drain_requeues = [r for r in records if r.kind == "job.requeued"
                      and r.data.get("reason") == "drain"]
    assert len(drain_requeues) == 1


def test_backpressure_is_a_typed_429_and_fair_share_holds(tmp_path):
    """A full queue rejects with the typed 429 + Retry-After (never a
    hang), and two tenants' jobs dispatch in fair-share order."""
    spool = tmp_path / "spool"
    daemon = Daemon(spool, extra=("--queue-limit", "1",
                                  "--max-runners", "1"))
    try:
        client = daemon.client
        # Job A occupies the single runner slot...
        a = client.submit(dict(SPEC, seed=101, hours=24.0),
                          tenant="acme")
        wait_job_state(spool, a["job"]["job_id"],
                       ("leased", "running", "done"))
        # ...job B fills the one queue slot...
        client.submit(dict(SPEC, seed=102, hours=24.0), tenant="blue")
        # ...and job C must be refused with the typed envelope.
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(dict(SPEC, seed=103, hours=24.0),
                          tenant="coop")
        exc = excinfo.value
        assert exc.kind == "queue-full"
        assert exc.http_status == 429
        assert exc.retry_after_s is not None and exc.retry_after_s > 0

        status = client.status()
        assert status["queue_depth"] == 1
        assert status["counters"]["service.rejected"] == 1
    finally:
        daemon.kill()


def test_fair_share_two_tenants_dispatch_deterministically(tmp_path):
    """Interleaved submissions from two tenants lease in round-robin
    order — scheduling is part of the determinism contract."""
    spool = tmp_path / "spool"
    daemon = Daemon(spool, extra=("--max-runners", "1"))
    try:
        client = daemon.client
        job_ids = {}
        # Tiny campaigns; one runner serialises the dispatch order.
        for tenant, seed in [("acme", 1), ("acme", 2), ("acme", 3),
                             ("blue", 4), ("blue", 5), ("blue", 6)]:
            reply = client.submit(dict(SPEC, seed=seed, hours=2.0),
                                  tenant=tenant)
            job_ids[reply["job"]["job_id"]] = (tenant, seed)
        for job_id in job_ids:
            wait_job_state(spool, job_id, ("done",))
        daemon.terminate_and_wait()
    finally:
        daemon.kill()
    records, _ = read_service_journal(spool / "service-journal.jsonl")
    leased = [job_ids[r.data["job_id"]] for r in records
              if r.kind == "job.leased"]
    # acme seeded the queue first, but after its first grant the rotor
    # alternates tenants; within one tenant, admission (FIFO) order.
    assert leased == [("acme", 1), ("blue", 4), ("acme", 2),
                      ("blue", 5), ("acme", 3), ("blue", 6)]


def test_garbage_submissions_are_typed_400s(tmp_path):
    spool = tmp_path / "spool"
    daemon = Daemon(spool)
    try:
        client = daemon.client
        for bad_spec in ({"policy": "reckless", "hours": 1.0, "seed": 1},
                         {"policy": "nominal"},
                         {"policy": "nominal", "hours": -1.0, "seed": 1},
                         {"policy": "nominal", "hours": 1.0, "seed": 1,
                          "turbo": True}):
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(bad_spec)
            assert excinfo.value.kind == "invalid-submission"
            assert excinfo.value.http_status == 400
        # Non-JSON body and a non-object spec, straight over the wire.
        import urllib.error
        import urllib.request
        endpoint = json.loads((spool / "endpoint.json").read_text())
        for raw in (b"not json at all", b'{"spec": [1, 2, 3]}'):
            request = urllib.request.Request(
                endpoint["url"] + "/v1/jobs", data=raw,
                headers={"Content-Type": "application/json"},
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30.0)
            assert excinfo.value.code == 400
            envelope = json.loads(excinfo.value.read().decode("utf-8"))
            assert envelope["error"]["kind"] == "invalid-submission"
        # Unknown job and unknown route are typed 404s.
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("j-doesnotexist")
        assert excinfo.value.kind == "unknown-job"
        assert excinfo.value.http_status == 404
        assert not list(JobStore(spool).iter_jobs())
    finally:
        daemon.kill()


def test_disk_full_spool_is_a_typed_507(tmp_path):
    """fail@spool-write:job injects ENOSPC at the record write: the
    submission is refused with the typed 507 and nothing is accepted."""
    spool = tmp_path / "spool"
    daemon = Daemon(spool, chaos="fail@spool-write:job")
    try:
        client = daemon.client
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(dict(SPEC, seed=2020))
        assert excinfo.value.kind == "spool"
        assert excinfo.value.http_status == 507
        # The daemon survives the full disk and keeps refusing cleanly.
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(dict(SPEC, seed=777))
        assert excinfo.value.kind == "spool"
        assert not list(JobStore(spool).iter_jobs())
        assert client.status()["jobs"] == {}
    finally:
        daemon.kill()


def test_cancel_running_job_via_cli(tmp_path):
    """repro cancel SIGTERMs the runner; the record lands cancelled and
    the checkpoint survives for a later resubmission."""
    spool = tmp_path / "spool"
    daemon = Daemon(spool)
    try:
        client = daemon.client
        reply = client.submit(dict(SPEC, seed=2020, hours=24.0))
        job_id = reply["job"]["job_id"]
        wait_job_state(spool, job_id, ("running",))
        cancelled = client.cancel(job_id)
        assert cancelled["job"]["state"] == "cancelled"
        wait_job_state(spool, job_id, ("cancelled",))
        # Cancel of a terminal job is a typed 409 conflict.
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.kind == "job-state"
        assert excinfo.value.http_status == 409
        daemon.terminate_and_wait()
    finally:
        daemon.kill()
