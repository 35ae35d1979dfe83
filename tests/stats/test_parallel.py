"""Tests for seed-stable parallel chunk execution and order-free merging.

The determinism contract under test is the one the paper's verification
argument needs: the incident statistics backing Eq. 1 must not depend on
how many workers happened to run the campaign.  Three properties carry
it, and each has its own test group here:

* the chunk plan is a pure function of ``(total, chunk_size)``;
* every chunk draws from its own ``SeedSequence.spawn`` child;
* merging chunk results is associative/commutative, so fold order
  cannot matter.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.parallel import (Chunk, default_worker_count, plan_chunks,
                                  run_chunked)
from repro.traffic import (BrakingSystem, EncounterGenerator,
                           SimulationResult, default_context_profiles,
                           default_perception, nominal_policy, run_fleet,
                           simulate_mix)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}


@pytest.fixture(scope="module")
def world():
    return EncounterGenerator(default_context_profiles())


def _fleet(world, seed, *, hours=120.0, workers=1, chunk_hours=30.0,
           progress=None):
    return run_fleet(nominal_policy(), world, default_perception(),
                     BrakingSystem(), MIX, hours, seed, workers=workers,
                     chunk_hours=chunk_hours, progress=progress)


def _chunk_results(world, seed, n_chunks, chunk_hours=30.0):
    """The per-chunk results exactly as the fleet runner produces them."""
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)
    return [
        simulate_mix(nominal_policy(), world, default_perception(),
                     BrakingSystem(), MIX, chunk_hours,
                     np.random.default_rng(seqs[i]),
                     time_offset_h=i * chunk_hours)
        for i in range(n_chunks)
    ]


class TestPlanChunks:
    def test_exact_division(self):
        chunks = plan_chunks(1000.0, 250.0)
        assert [c.size for c in chunks] == [250.0] * 4
        assert [c.start for c in chunks] == [0.0, 250.0, 500.0, 750.0]
        assert [c.index for c in chunks] == [0, 1, 2, 3]

    def test_remainder_chunk_absorbs_tail(self):
        chunks = plan_chunks(1000.0, 300.0)
        assert [c.size for c in chunks] == [300.0, 300.0, 300.0, 100.0]
        assert math.fsum(c.size for c in chunks) == 1000.0

    def test_chunk_larger_than_total(self):
        chunks = plan_chunks(10.0, 250.0)
        assert len(chunks) == 1
        assert chunks[0].size == 10.0

    @given(total=st.floats(min_value=1.0, max_value=2e3),
           chunk=st.floats(min_value=0.7, max_value=500.0))
    @settings(max_examples=100, deadline=None)
    def test_plan_covers_total_without_drop_or_overlap(self, total, chunk):
        chunks = plan_chunks(total, chunk)
        assert chunks[0].start == 0.0
        # Contiguous: each chunk starts where the previous one ends
        # (starts are index*chunk, so no accumulation drift).
        for prev, nxt in zip(chunks, chunks[1:]):
            assert nxt.start == (prev.index + 1) * chunk
            assert prev.start + prev.size >= nxt.start or \
                math.isclose(prev.start + prev.size, nxt.start)
        assert math.fsum(c.size for c in chunks) == pytest.approx(total)
        assert all(c.size > 0 for c in chunks)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_chunks(0.0, 10.0)
        with pytest.raises(ValueError):
            plan_chunks(10.0, 0.0)
        with pytest.raises(ValueError):
            plan_chunks(math.inf, 10.0)

    def test_no_float_sliver_chunk(self):
        """Regression: 2.1 / 0.7 is exactly 3 chunks, not 3 + a ~1e-16
        residue chunk of exposure nobody asked for."""
        chunks = plan_chunks(2.1, 0.7)
        assert len(chunks) == 3
        assert math.fsum(c.size for c in chunks) == pytest.approx(2.1)
        assert all(c.size > 1e-9 for c in chunks)

    @given(k=st.integers(min_value=1, max_value=40),
           chunk=st.floats(min_value=0.1, max_value=500.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_integer_multiples_never_emit_sliver(self, k, chunk):
        """``total = k * chunk`` must plan exactly ``k`` chunks even when
        ``k * chunk`` rounds just above the exact product."""
        chunks = plan_chunks(k * chunk, chunk)
        assert len(chunks) == k
        assert math.fsum(c.size for c in chunks) == pytest.approx(k * chunk)
        assert all(c.size > chunk * 1e-9 for c in chunks)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            Chunk(index=-1, start=0.0, size=1.0)
        with pytest.raises(ValueError):
            Chunk(index=0, start=0.0, size=0.0)


def _stamp_worker(chunk, seed_seq):
    """Module-level (hence picklable) worker used by the pool tests."""
    rng = np.random.default_rng(seed_seq)
    return (chunk.index, chunk.start, float(rng.uniform()))


class TestRunChunked:
    def test_results_in_chunk_order(self):
        chunks = plan_chunks(100.0, 10.0)
        results = run_chunked(_stamp_worker, chunks, seed=1, workers=1)
        assert [r[0] for r in results] == list(range(10))

    def test_worker_count_does_not_change_results(self):
        chunks = plan_chunks(60.0, 10.0)
        serial = run_chunked(_stamp_worker, chunks, seed=9, workers=1)
        pooled = run_chunked(_stamp_worker, chunks, seed=9, workers=3)
        assert serial == pooled

    def test_chunk_streams_are_independent(self):
        chunks = plan_chunks(60.0, 10.0)
        results = run_chunked(_stamp_worker, chunks, seed=5, workers=1)
        draws = [r[2] for r in results]
        assert len(set(draws)) == len(draws)

    def test_progress_reports_every_chunk(self):
        chunks = plan_chunks(50.0, 10.0)
        seen = []
        run_chunked(_stamp_worker, chunks, seed=2, workers=1,
                    progress=seen.append)
        assert [u.chunks_done for u in seen] == [1, 2, 3, 4, 5]
        assert all(u.chunks_total == 5 for u in seen)
        assert seen[-1].units_done == pytest.approx(50.0)

    def test_invalid_inputs(self):
        chunks = plan_chunks(10.0, 10.0)
        with pytest.raises(ValueError):
            run_chunked(_stamp_worker, [], seed=0)
        with pytest.raises(ValueError):
            run_chunked(_stamp_worker, chunks, seed=0, workers=0)
        bad = [Chunk(index=1, start=0.0, size=10.0)]
        with pytest.raises(ValueError, match="indices"):
            run_chunked(_stamp_worker, bad, seed=0)

    def test_default_worker_count_caps_at_chunks(self):
        assert default_worker_count(1) == 1
        assert default_worker_count(10_000) >= 1


class TestFleetDeterminism:
    """run_fleet(seed, workers=1) == run_fleet(seed, workers=k), exactly."""

    @pytest.mark.parametrize("seed", [0, 2020, 31337])
    def test_serial_equals_parallel_record_for_record(self, world, seed):
        serial = _fleet(world, seed, workers=1)
        parallel = _fleet(world, seed, workers=4)
        assert serial.records == parallel.records
        assert serial.hours == parallel.hours
        assert serial.context_hours == parallel.context_hours
        assert serial.encounters_resolved == parallel.encounters_resolved
        assert serial.hard_braking_demands == parallel.hard_braking_demands
        assert serial == parallel

    def test_two_vs_three_workers(self, world):
        assert _fleet(world, 7, workers=2) == _fleet(world, 7, workers=3)

    def test_different_seeds_differ(self, world):
        assert _fleet(world, 1, workers=1) != _fleet(world, 2, workers=1)

    def test_chunk_size_is_part_of_the_rng_layout(self, world):
        """Documented: chunk_hours changes the draws (not the contract)."""
        a = _fleet(world, 3, chunk_hours=30.0)
        b = _fleet(world, 3, chunk_hours=60.0)
        assert a.hours == b.hours
        assert a.records != b.records  # different stream layout

    def test_records_on_global_timeline(self, world):
        result = _fleet(world, 11, hours=120.0, chunk_hours=30.0)
        times = [r.time_h for r in result.records]
        assert times == sorted(times)
        assert all(0.0 <= t <= result.hours for t in times)
        # Incidents land beyond the first chunk, i.e. offsets were applied.
        assert max(times) > 30.0

    def test_progress_totals_match_result(self, world):
        seen = []
        result = _fleet(world, 13, workers=1, progress=seen.append)
        assert [u.chunks_done for u in seen] == [1, 2, 3, 4]
        final = seen[-1]
        assert final.encounters_resolved == result.encounters_resolved
        assert final.incidents_found == len(result.records)
        assert final.hard_braking_demands == result.hard_braking_demands
        assert final.hours_done == pytest.approx(result.hours)


class TestMergeAlgebra:
    """merge_many is order-independent; merged is commutative/associative."""

    def test_merge_many_invariant_under_shuffle(self, world):
        parts = _chunk_results(world, seed=17, n_chunks=5)
        reference = SimulationResult.merge_many(parts)
        shuffler = random.Random(99)
        for _ in range(6):
            shuffled = list(parts)
            shuffler.shuffle(shuffled)
            assert SimulationResult.merge_many(shuffled) == reference

    def test_pairwise_commutative(self, world):
        a, b = _chunk_results(world, seed=23, n_chunks=2)
        assert a.merged(b) == b.merged(a)

    def test_pairwise_associative(self, world):
        a, b, c = _chunk_results(world, seed=29, n_chunks=3)
        assert a.merged(b).merged(c) == a.merged(b.merged(c))

    def test_merge_preserves_totals(self, world):
        parts = _chunk_results(world, seed=31, n_chunks=4)
        merged = SimulationResult.merge_many(parts)
        assert merged.hours == pytest.approx(
            math.fsum(p.hours for p in parts))
        assert merged.encounters_resolved == \
            sum(p.encounters_resolved for p in parts)
        assert len(merged.records) == sum(len(p.records) for p in parts)
        for context in MIX:
            assert merged.context_hours[context] == pytest.approx(
                math.fsum(p.context_hours[context] for p in parts))

    def test_merge_many_rejects_empty(self):
        with pytest.raises(ValueError):
            SimulationResult.merge_many([])

    def test_merge_many_rejects_mixed_policies(self, world):
        from repro.traffic import cautious_policy
        rng = np.random.default_rng(0)
        a = simulate_mix(nominal_policy(), world, default_perception(),
                         BrakingSystem(), MIX, 10.0, rng)
        b = simulate_mix(cautious_policy(), world, default_perception(),
                         BrakingSystem(), MIX, 10.0, rng)
        with pytest.raises(ValueError, match="policies"):
            SimulationResult.merge_many([a, b])


class TestFleetDeterminismAtScale:
    """The same contract over a long campaign with many chunks."""

    def test_serial_equals_parallel_long_run(self, world):
        serial = _fleet(world, 2020, hours=1000.0, workers=1,
                        chunk_hours=125.0)
        parallel = _fleet(world, 2020, hours=1000.0, workers=4,
                          chunk_hours=125.0)
        assert serial == parallel
        assert serial.hours == 1000.0
