"""Chaos tier: the fleet runner under scripted fault injection.

The headline claim of DESIGN §9, asserted end-to-end: any deterministic
mix of worker crashes, process death, hangs and corrupted chunk outputs
yields a merged campaign **bit-for-bit identical** to the fault-free
run — telemetry on or off, for any worker count — because retried
chunks re-run from the same ``SeedSequence`` child and only validated
outputs commit.  Also the unit coverage for
:func:`~repro.traffic.fleet.validate_chunk_output`, the validator that
makes "corrupted" detectable in the first place.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.stats import Chunk, ChunkFailure, RetryPolicy
from repro.testing import ChaosScript, ChaosWorker
from repro.traffic import (BrakingSystem, EncounterGenerator,
                           default_context_profiles, default_perception,
                           nominal_policy, run_fleet, validate_chunk_output)
from repro.traffic.fleet import _ChunkOutput, _ChunkTask, _simulate_chunk

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
HOURS = 6.0
CHUNK_HOURS = 1.0
SEED = 2020
FAST_RETRY = RetryPolicy(backoff_base_s=0.0, jitter_s=0.0)


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


def _run(world, **kwargs):
    kwargs.setdefault("workers", 1)
    return run_fleet(nominal_policy(), world, default_perception(),
                     BrakingSystem(), MIX, HOURS, SEED,
                     chunk_hours=CHUNK_HOURS, **kwargs)


@pytest.fixture(scope="module")
def fault_free(world):
    return _run(world)


def _chaos_run(world, tmp_path, script, **kwargs):
    sink: list[ChunkFailure] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = _run(world, retry=kwargs.pop("retry", FAST_RETRY),
                      wrap_worker=lambda w: ChaosWorker(w, script,
                                                        str(tmp_path)),
                      failure_sink=sink, **kwargs)
    return result, sink


@pytest.mark.chaos
class TestFleetUnderChaos:
    def test_inline_raise_and_garbage_mix(self, world, tmp_path, fault_free):
        script = ChaosScript(
            faults={0: ("raise",), 2: ("garbage", "raise"), 5: ("garbage",)})
        result, sink = _chaos_run(world, tmp_path, script, workers=1)
        assert result == fault_free
        kinds = {(f.chunk_index, f.kind) for f in sink}
        assert kinds == {(0, "exception"), (2, "invalid"),
                         (2, "exception"), (5, "invalid")}

    def test_pool_exit_and_garbage_mix(self, world, tmp_path, fault_free):
        script = ChaosScript(faults={1: ("exit",), 4: ("garbage",)})
        result, sink = _chaos_run(world, tmp_path, script, workers=2)
        assert result == fault_free
        assert any(f.kind == "pool_broken" for f in sink)
        assert any(f.kind == "invalid" for f in sink)

    def test_hang_under_timeout(self, world, tmp_path, fault_free):
        script = ChaosScript(faults={3: ("hang",)}, hang_s=30.0)
        result, sink = _chaos_run(
            world, tmp_path, script, workers=2,
            retry=RetryPolicy(backoff_base_s=0.0, jitter_s=0.0,
                              timeout_s=2.0))
        assert result == fault_free
        assert any(f.kind == "timeout" and f.chunk_index == 3 for f in sink)

    def test_seeded_chaos_script_campaign(self, world, tmp_path, fault_free):
        """A generated (seeded, recoverable-kind) script over the whole
        campaign — the property-test form of the identity claim."""
        script = ChaosScript.from_seed(7, 6, fault_rate=0.6)
        assert script.faults, "chaos seed produced a fault-free script"
        result, sink = _chaos_run(world, tmp_path, script, workers=1)
        assert result == fault_free
        assert len(sink) == sum(len(k) for k in script.faults.values())

    def test_chaos_with_telemetry_on(self, world, tmp_path, fault_free):
        from repro.obs import telemetry_session

        script = ChaosScript(faults={1: ("raise",), 3: ("garbage",)})
        with telemetry_session() as session:
            result, sink = _chaos_run(world, tmp_path, script, workers=1)
            counters = session.snapshot().metrics.counters()
        assert result == fault_free
        assert counters["parallel.failures"] == 2
        assert counters["parallel.retries"] == 2
        assert counters["parallel.validation_failures"] == 1

    def test_chaos_with_checkpoint(self, world, tmp_path, fault_free):
        """Faults + checkpointing compose: only committed (validated)
        chunks are persisted, and the merged result is untouched."""
        from repro.traffic import CampaignCheckpoint

        path = tmp_path / "ck.json"
        state = tmp_path / "state"
        state.mkdir()
        script = ChaosScript(faults={2: ("garbage",)})
        result, _ = _chaos_run(world, state, script,
                               workers=1, checkpoint=path)
        assert result == fault_free
        banked = CampaignCheckpoint.load(path)
        assert sorted(banked.chunks) == list(range(6))
        # The banked chunk 2 is the *validated* retry result, not the
        # corrupted first execution.
        chunk2 = banked.completed_results()[2]
        assert chunk2.hours == pytest.approx(CHUNK_HOURS)
        assert validate_chunk_output(
            Chunk(index=2, start=2.0, size=CHUNK_HOURS),
            _ChunkOutput(result=chunk2)) is None


class TestValidator:
    @pytest.fixture(scope="class")
    def chunk_and_output(self, world):
        chunk = Chunk(index=2, start=2.0, size=1.0)
        task = _ChunkTask(policy=nominal_policy(), generator=world,
                          perception=default_perception(),
                          braking=BrakingSystem(), mix=dict(MIX),
                          config=None, engine="vectorized")
        seed_seq = np.random.SeedSequence(SEED).spawn(6)[2]
        return chunk, _simulate_chunk(task, chunk, seed_seq)

    def test_genuine_output_accepted(self, chunk_and_output):
        chunk, output = chunk_and_output
        assert validate_chunk_output(chunk, output) is None

    def test_garbage_object_rejected(self, chunk_and_output):
        chunk, _ = chunk_and_output
        error = validate_chunk_output(chunk, object())
        assert error is not None and "unexpected type" in error

    def _corrupt(self, output, **changes):
        return _ChunkOutput(
            result=output.result.replaced(**changes),
            telemetry=output.telemetry)

    def test_nan_hours_rejected(self, chunk_and_output):
        chunk, output = chunk_and_output
        error = validate_chunk_output(
            chunk, self._corrupt(output, hours=math.nan))
        assert error is not None and "hours" in error

    def test_negative_counter_rejected(self, chunk_and_output):
        chunk, output = chunk_and_output
        error = validate_chunk_output(
            chunk, self._corrupt(output, encounters_resolved=-1))
        assert error is not None and "encounters_resolved" in error

    def test_float_counter_rejected(self, chunk_and_output):
        chunk, output = chunk_and_output
        error = validate_chunk_output(
            chunk, self._corrupt(
                output,
                hard_braking_demands=float(
                    output.result.hard_braking_demands)))
        assert error is not None and "hard_braking_demands" in error

    def test_wrong_exposure_rejected(self, chunk_and_output):
        chunk, output = chunk_and_output
        error = validate_chunk_output(
            chunk, self._corrupt(output, hours=output.result.hours * 2))
        assert error is not None and "hour-sum mismatch" in error

    def test_context_hour_sum_mismatch_rejected(self, chunk_and_output):
        chunk, output = chunk_and_output
        context_hours = dict(output.result.context_hours)
        context_hours["urban"] += 0.5
        error = validate_chunk_output(
            chunk, self._corrupt(output, context_hours=context_hours))
        assert error is not None and "hour-sum mismatch" in error

    def test_wrong_chunk_window_rejected(self, chunk_and_output):
        """A result whose records live on another chunk's timeline is the
        classic wrong-index corruption."""
        chunk, output = chunk_and_output
        foreign = Chunk(index=5, start=5.0, size=1.0)
        if output.result.records:
            error = validate_chunk_output(foreign, output)
            assert error is not None and "window" in error
        else:  # exposure-only checks still catch the mismatch via start
            assert validate_chunk_output(
                Chunk(index=5, start=5.0, size=2.0), output) is not None
