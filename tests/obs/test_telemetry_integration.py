"""End-to-end telemetry invariants over the instrumented hot paths.

Three contracts from DESIGN §8:

1. **No RNG perturbation** — a fleet campaign is bit-for-bit identical
   with telemetry enabled and disabled (the goldens enforce this on the
   pinned seeds too; here it is asserted on the full merged result).
2. **Worker-count independence** — merged metric counters and
   histograms are identical for workers 1/2/4 (gauges like
   ``parallel.workers`` are high-water marks and legitimately differ).
3. **Chunk-order independence** — merging the per-chunk telemetry
   snapshots is a pure function of their multiset.
"""

from __future__ import annotations

import random

import pytest

from repro.obs import (MetricsSnapshot, TelemetrySnapshot, active_session,
                       telemetry_session)
from repro.traffic import (BrakingSystem, EncounterGenerator,
                           default_context_profiles, default_perception,
                           nominal_policy, run_fleet)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
HOURS = 200.0
CHUNK_HOURS = 50.0
SEED = 2020


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


def _fleet(world, *, workers, telemetry, engine="vectorized"):
    def call():
        return run_fleet(nominal_policy(), world, default_perception(),
                         BrakingSystem(), MIX, HOURS, SEED, workers=workers,
                         chunk_hours=CHUNK_HOURS, engine=engine)

    if not telemetry:
        return call(), None
    with telemetry_session() as session:
        result = call()
    return result, session.snapshot()


class TestNoRngPerturbation:
    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_fleet_result_identical_with_and_without_telemetry(
            self, world, engine):
        plain, _ = _fleet(world, workers=1, telemetry=False, engine=engine)
        instrumented, snapshot = _fleet(world, workers=1, telemetry=True,
                                        engine=engine)
        assert instrumented == plain
        assert snapshot is not None

    def test_session_closed_after_fleet(self, world):
        _fleet(world, workers=1, telemetry=True)
        assert active_session() is None


class TestWorkerCountIndependence:
    @pytest.fixture(scope="class")
    def snapshots(self, world):
        return {workers: _fleet(world, workers=workers, telemetry=True)[1]
                for workers in (1, 2, 4)}

    @staticmethod
    def _simulation_counters(metrics):
        """Counters describing the *simulation* — the worker-independent
        set.  Transport counters (``parallel.bytes_shipped``,
        ``parallel.transport.*``) describe how chunk bytes crossed the
        pool boundary and legitimately vary with worker count: a
        single-worker run ships nothing inline, a pool run ships every
        chunk."""
        return {name: value for name, value in metrics.counters().items()
                if name != "parallel.bytes_shipped"
                and not name.startswith("parallel.transport.")}

    def test_results_already_pinned_counters_match(self, snapshots):
        reference = self._simulation_counters(snapshots[1].metrics)
        for workers in (2, 4):
            metrics = snapshots[workers].metrics
            assert self._simulation_counters(metrics) == reference

    def test_pool_runs_report_transport(self, snapshots):
        """Pool runs account for every chunk crossing the boundary;
        the inline (workers=1) run ships nothing."""
        inline = snapshots[1].metrics.counters()
        assert "parallel.bytes_shipped" not in inline
        for workers in (2, 4):
            counters = snapshots[workers].metrics.counters()
            shipped = sum(value for name, value in counters.items()
                          if name.startswith("parallel.transport."))
            assert shipped == counters["parallel.chunks"]
            assert counters["parallel.bytes_shipped"] > 0

    def test_histograms_match(self, snapshots):
        reference = snapshots[1].metrics.instruments
        for workers in (2, 4):
            instruments = snapshots[workers].metrics.instruments
            for name in ("engine.batch_size", "parallel.chunk_size"):
                assert instruments[name] == reference[name]

    def test_span_structure_and_counts_match(self, snapshots):
        def structure(node):
            return (node.name, node.count,
                    tuple(structure(node.children[k])
                          for k in sorted(node.children)))

        reference = structure(snapshots[1].spans)
        for workers in (2, 4):
            assert structure(snapshots[workers].spans) == reference

    def test_expected_instrumentation_present(self, snapshots):
        counters = snapshots[1].metrics.counters()
        assert counters["sim.hours"] == pytest.approx(HOURS)
        assert counters["parallel.chunks"] == 4
        assert counters["sim.encounters"] > 0
        spans = snapshots[1].spans
        assert spans.child("run_fleet").count == 1
        chunk_spans = spans.child("fleet.chunks")
        assert chunk_spans.child("simulate_mix").count == 4
        mix = chunk_spans.child("simulate_mix")
        # One resolution pass per chunk, over every (context × class).
        assert mix.child("resolve_batch").count == 4
        assert counters["engine.batches"] == 4


class TestChunkOrderIndependence:
    def test_merge_many_over_shuffled_chunk_snapshots(self, world):
        """Per-chunk telemetry snapshots merge to the same frozen
        snapshot in any order — the property the coordinator's single
        chunk-index-order merge relies on to be worker-count invariant."""
        from repro.stats.parallel import plan_chunks
        from repro.traffic.fleet import _ChunkTask, _simulate_chunk
        import numpy as np

        chunks = plan_chunks(HOURS, CHUNK_HOURS)
        seeds = np.random.SeedSequence(SEED).spawn(len(chunks))
        task = _ChunkTask(policy=nominal_policy(), generator=world,
                          perception=default_perception(),
                          braking=BrakingSystem(), mix=dict(MIX),
                          config=None, engine="vectorized", telemetry=True)
        outputs = [_simulate_chunk(task, chunk, seed)
                   for chunk, seed in zip(chunks, seeds)]
        snaps = [o.telemetry for o in outputs]
        assert all(s is not None for s in snaps)
        reference = TelemetrySnapshot.merge_many(snaps)
        for shuffle_seed in range(5):
            shuffled = list(snaps)
            random.Random(shuffle_seed).shuffle(shuffled)
            merged = TelemetrySnapshot.merge_many(shuffled)
            assert merged.metrics == reference.metrics
            assert merged.spans.to_dict() == reference.spans.to_dict()

    def test_metrics_merge_matches_snapshot_merge(self, world):
        _, snapshot = _fleet(world, workers=1, telemetry=True)
        # merging a single snapshot is the identity on counters
        assert (MetricsSnapshot.merge_many([snapshot.metrics]).counters()
                == snapshot.metrics.counters())
