"""Fault-path coverage for the resilient ``run_chunked`` execution.

Every test asserts the same headline property from DESIGN §9: whatever
mix of crashes, hangs, pool breakage and corrupted outputs the chaos
harness injects, the committed results are **bit-for-bit identical** to
a fault-free run — retried chunks re-run from the same ``SeedSequence``
child and only validated results commit.

The multi-process scenarios (worker ``os._exit``, hangs under a
timeout) carry the ``chaos`` marker so CI can give them their own
lane; they still run — fast — in the full suite.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.stats import (CampaignPartialFailure, ChunkFailure, RetryPolicy,
                         plan_chunks, run_chunked)
from repro.testing import ChaosError, ChaosScript, ChaosWorker

FAST_RETRY = RetryPolicy(backoff_base_s=0.0, jitter_s=0.0)


def _stamp_worker(chunk, seed_seq):
    """Module-level (picklable) reference worker."""
    rng = np.random.default_rng(seed_seq)
    return (chunk.index, chunk.start, float(rng.uniform()))


def _spawning_worker(chunk, seed_seq):
    """A worker that (legitimately) spawns sub-streams from its chunk
    seed — the fleet simulator does exactly this, so retries must hand
    each execution a pristine seed or the draws shift."""
    child, = seed_seq.spawn(1)
    rng = np.random.default_rng(child)
    return (chunk.index, float(rng.uniform()))


def _no_jitter(**kwargs) -> RetryPolicy:
    kwargs.setdefault("backoff_base_s", 0.0)
    kwargs.setdefault("jitter_s", 0.0)
    return RetryPolicy(**kwargs)


def _baseline(worker=_stamp_worker, n=6):
    """The fault-free results, straight from the worker on each chunk's
    ``SeedSequence`` child — an oracle that does not go through the
    runner under test."""
    chunks = plan_chunks(float(n) * 10.0, 10.0)
    seeds = np.random.SeedSequence(42).spawn(len(chunks))
    return chunks, [worker(chunk, seed) for chunk, seed in zip(chunks, seeds)]


class TestRetryRecovery:
    def test_exception_retry_inline_is_invisible_in_results(self, tmp_path):
        chunks, clean = _baseline()
        script = ChaosScript(faults={1: ("raise",), 4: ("raise", "raise")})
        sink: list[ChunkFailure] = []
        with pytest.warns(RuntimeWarning):
            result = run_chunked(
                ChaosWorker(_stamp_worker, script, str(tmp_path)), chunks,
                seed=42, workers=1, retry=FAST_RETRY, failure_sink=sink)
        assert result == clean
        assert [(f.chunk_index, f.attempt, f.kind) for f in sink] == [
            (1, 1, "exception"), (4, 1, "exception"), (4, 2, "exception")]

    @pytest.mark.chaos
    def test_exception_retry_pool_is_invisible_in_results(self, tmp_path):
        chunks, clean = _baseline()
        script = ChaosScript(faults={0: ("raise",), 3: ("raise",)})
        sink: list[ChunkFailure] = []
        with pytest.warns(RuntimeWarning):
            result = run_chunked(
                ChaosWorker(_stamp_worker, script, str(tmp_path)), chunks,
                seed=42, workers=2, retry=FAST_RETRY, failure_sink=sink)
        assert result == clean
        assert {f.chunk_index for f in sink} == {0, 3}
        assert all(f.kind == "exception" for f in sink)

    def test_retry_reuses_pristine_seed_even_for_spawning_workers(
            self, tmp_path):
        """Regression: ``SeedSequence.spawn`` is stateful, so an
        in-process re-execution must get a fresh copy of the chunk seed
        or the retried chunk draws from shifted sub-streams."""
        chunks, clean = _baseline(worker=_spawning_worker)
        script = ChaosScript(faults={2: ("garbage", "garbage")})

        def validator(chunk, result):
            if not (isinstance(result, tuple) and result[0] == chunk.index):
                return "not this chunk's stamp"
            return None

        with pytest.warns(RuntimeWarning):
            result = run_chunked(
                ChaosWorker(_spawning_worker, script, str(tmp_path)),
                chunks, seed=42, workers=1, retry=FAST_RETRY,
                validator=validator)
        assert result == clean

    def test_fault_free_resilient_path_equals_strict_path(self):
        """Fault-free, any retry policy returns the direct worker calls,
        inline and pooled; ``max_attempts=1`` is what "strict" means."""
        chunks, clean = _baseline()
        for workers in (1, 2):
            for retry in (FAST_RETRY, RetryPolicy(max_attempts=1)):
                assert run_chunked(_stamp_worker, chunks, seed=42,
                                   workers=workers, retry=retry) == clean


class TestQuarantine:
    def test_poison_chunk_raises_partial_failure_with_evidence(self, tmp_path):
        chunks, clean = _baseline(n=4)
        script = ChaosScript(faults={2: ("raise",) * 5})
        sink: list[ChunkFailure] = []
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CampaignPartialFailure) as excinfo:
                run_chunked(
                    ChaosWorker(_stamp_worker, script, str(tmp_path)),
                    chunks, seed=42, workers=1,
                    retry=_no_jitter(max_attempts=2), failure_sink=sink)
        exc = excinfo.value
        assert exc.quarantined == (2,)
        assert exc.chunks_total == 4
        # Completed chunks are exactly the fault-free results.
        assert exc.completed == {0: clean[0], 1: clean[1], 3: clean[3]}
        assert [f.attempt for f in exc.failures] == [1, 2]
        assert sink == exc.failures

    def test_max_attempts_one_quarantines_immediately(self, tmp_path):
        chunks, _ = _baseline(n=3)
        script = ChaosScript(faults={0: ("raise",)})
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CampaignPartialFailure) as excinfo:
                run_chunked(
                    ChaosWorker(_stamp_worker, script, str(tmp_path)),
                    chunks, seed=42, workers=1,
                    retry=_no_jitter(max_attempts=1))
        assert excinfo.value.quarantined == (0,)
        assert len(excinfo.value.failures) == 1


class TestValidateThenCommit:
    def test_garbage_output_is_rejected_then_retried(self, tmp_path):
        chunks, clean = _baseline()
        script = ChaosScript(faults={3: ("garbage",)})

        def validator(chunk, result):
            if not (isinstance(result, tuple) and result[0] == chunk.index):
                return f"garbage output for chunk {chunk.index}"
            return None

        sink: list[ChunkFailure] = []
        with pytest.warns(RuntimeWarning):
            result = run_chunked(
                ChaosWorker(_stamp_worker, script, str(tmp_path)), chunks,
                seed=42, workers=1, retry=FAST_RETRY, validator=validator,
                failure_sink=sink)
        assert result == clean
        assert [(f.chunk_index, f.kind) for f in sink] == [(3, "invalid")]

    def test_always_invalid_chunk_is_quarantined(self):
        chunks, _ = _baseline(n=3)

        def validator(chunk, result):
            return "never good enough" if chunk.index == 1 else None

        with pytest.warns(RuntimeWarning):
            with pytest.raises(CampaignPartialFailure) as excinfo:
                run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                            retry=_no_jitter(max_attempts=2),
                            validator=validator)
        assert excinfo.value.quarantined == (1,)
        assert all(f.kind == "invalid" for f in excinfo.value.failures)


@pytest.mark.chaos
class TestPoolBreakage:
    def test_worker_exit_recovers_bit_for_bit(self, tmp_path):
        chunks, clean = _baseline()
        script = ChaosScript(faults={2: ("exit",)})
        sink: list[ChunkFailure] = []
        with pytest.warns(RuntimeWarning):
            result = run_chunked(
                ChaosWorker(_stamp_worker, script, str(tmp_path)), chunks,
                seed=42, workers=2, retry=FAST_RETRY, failure_sink=sink)
        assert result == clean
        assert any(f.kind == "pool_broken" for f in sink)

    def test_repeated_breakage_degrades_to_inline(self, tmp_path):
        chunks, clean = _baseline()
        script = ChaosScript(faults={0: ("exit",)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_chunked(
                ChaosWorker(_stamp_worker, script, str(tmp_path)), chunks,
                seed=42, workers=2,
                retry=_no_jitter(max_pool_rebuilds=0))
        assert result == clean
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert any("degrading" in m for m in messages)

    def test_hang_is_timed_out_and_recovered(self, tmp_path):
        chunks, clean = _baseline(n=4)
        script = ChaosScript(faults={1: ("hang",)}, hang_s=30.0)
        sink: list[ChunkFailure] = []
        with pytest.warns(RuntimeWarning):
            result = run_chunked(
                ChaosWorker(_stamp_worker, script, str(tmp_path)), chunks,
                seed=42, workers=2,
                retry=_no_jitter(timeout_s=1.0), failure_sink=sink)
        assert result == clean
        assert [(f.chunk_index, f.kind) for f in sink
                if f.kind == "timeout"] == [(1, "timeout")]


class TestResume:
    def test_completed_chunks_are_not_re_executed(self):
        calls: list[int] = []

        def counting_worker(chunk, seed_seq):
            calls.append(chunk.index)
            return _stamp_worker(chunk, seed_seq)

        chunks, clean = _baseline()
        completed = {0: clean[0], 3: clean[3]}
        calls.clear()
        result = run_chunked(counting_worker, chunks, seed=42, workers=1,
                             retry=FAST_RETRY, completed=completed)
        assert result == clean
        assert sorted(calls) == [1, 2, 4, 5]

    def test_progress_totals_start_from_restored_chunks(self):
        chunks, clean = _baseline(n=4)
        completed = {0: clean[0], 1: clean[1]}
        updates = []
        run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                    retry=FAST_RETRY, completed=completed,
                    progress=updates.append)
        assert [u.chunks_done for u in updates] == [3, 4]
        assert all(u.chunks_resumed == 2 for u in updates)
        assert all(u.units_resumed == pytest.approx(20.0) for u in updates)
        assert updates[-1].units_done == pytest.approx(40.0)

    def test_completed_index_outside_plan_rejected(self):
        chunks, clean = _baseline(n=2)
        with pytest.raises(ValueError, match="outside plan"):
            run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                        completed={7: clean[0]})


class TestCommitHook:
    def test_on_commit_called_once_per_chunk_in_any_order(self):
        chunks, clean = _baseline(n=4)
        committed = {}
        run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                    on_commit=lambda c, r: committed.__setitem__(c.index, r))
        assert committed == {i: clean[i] for i in range(4)}

    def test_on_commit_not_called_for_restored_chunks(self):
        chunks, clean = _baseline(n=3)
        committed = []
        run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                    completed={0: clean[0]},
                    on_commit=lambda c, r: committed.append(c.index))
        assert sorted(committed) == [1, 2]

    def test_raising_on_commit_downgrades_to_warning(self):
        chunks, clean = _baseline(n=2)

        def explode(chunk, result):
            raise RuntimeError("checkpoint disk full")

        with pytest.warns(RuntimeWarning, match="on_commit"):
            result = run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                                 on_commit=explode)
        assert result == clean


class TestInterrupt:
    def test_keyboard_interrupt_propagates_and_keeps_commits(self):
        chunks, clean = _baseline(n=4)
        committed = {}

        def kill_after_two(update):
            if update.chunks_done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                        retry=FAST_RETRY, progress=kill_after_two,
                        on_commit=lambda c, r: committed.__setitem__(
                            c.index, r))
        assert committed == {0: clean[0], 1: clean[1]}


class TestFaultMetrics:
    def test_recovered_faults_surface_in_metrics(self, tmp_path):
        from repro.obs import telemetry_session

        chunks, clean = _baseline()
        script = ChaosScript(faults={1: ("raise",), 2: ("garbage",)})

        def validator(chunk, result):
            if not (isinstance(result, tuple) and result[0] == chunk.index):
                return "garbage"
            return None

        with telemetry_session() as session:
            with pytest.warns(RuntimeWarning):
                result = run_chunked(
                    ChaosWorker(_stamp_worker, script, str(tmp_path)),
                    chunks, seed=42, workers=1, retry=FAST_RETRY,
                    validator=validator)
            metrics = session.metrics
            assert metrics.counter("parallel.failures").value == 2
            assert metrics.counter("parallel.retries").value == 2
            assert metrics.counter("parallel.validation_failures").value == 1
        assert result == clean

    def test_fault_free_run_creates_no_fault_counters(self):
        from repro.obs import telemetry_session

        chunks, _ = _baseline(n=2)
        with telemetry_session() as session:
            run_chunked(_stamp_worker, chunks, seed=42, workers=1,
                        retry=FAST_RETRY)
            names = set(session.snapshot().metrics.counters())
        assert "parallel.failures" not in names
        assert "parallel.retries" not in names
        assert "parallel.chunks" in names


class TestChaosHarness:
    def test_script_is_deterministic_from_seed(self):
        a = ChaosScript.from_seed(9, 20, fault_rate=0.5)
        b = ChaosScript.from_seed(9, 20, fault_rate=0.5)
        assert a.faults == b.faults
        assert ChaosScript.from_seed(10, 20, fault_rate=0.5).faults != a.faults

    def test_from_seed_defaults_to_recoverable_kinds(self):
        script = ChaosScript.from_seed(3, 50, fault_rate=0.9)
        assert script.faults  # at this rate something must be scripted
        for kinds in script.faults.values():
            assert set(kinds) <= {"raise", "garbage"}

    def test_fault_for_is_one_based_and_runs_out(self):
        script = ChaosScript(faults={0: ("raise", "garbage")})
        assert script.fault_for(0, 1) == "raise"
        assert script.fault_for(0, 2) == "garbage"
        assert script.fault_for(0, 3) == "ok"
        assert script.fault_for(5, 1) == "ok"

    def test_invalid_scripts_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos fault"):
            ChaosScript(faults={0: ("meteor",)})
        with pytest.raises(ValueError, match=">= 0"):
            ChaosScript(faults={-1: ("raise",)})

    def test_worker_claims_executions_crash_safely(self, tmp_path):
        chunks = plan_chunks(20.0, 10.0)
        worker = ChaosWorker(_stamp_worker, ChaosScript(), str(tmp_path))
        assert worker.executions(0) == 0
        worker(chunks[0], np.random.SeedSequence(0))
        worker(chunks[0], np.random.SeedSequence(0))
        worker(chunks[1], np.random.SeedSequence(1))
        assert worker.executions(0) == 2
        assert worker.executions(1) == 1

    def test_raise_fault_raises_chaos_error(self, tmp_path):
        chunks = plan_chunks(10.0, 10.0)
        worker = ChaosWorker(_stamp_worker,
                             ChaosScript(faults={0: ("raise",)}),
                             str(tmp_path))
        with pytest.raises(ChaosError):
            worker(chunks[0], np.random.SeedSequence(0))
        # Second execution succeeds: the script ran out.
        assert worker(chunks[0], np.random.SeedSequence(0))[0] == 0
