"""Tests for the Monte-Carlo estimation harness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats.montecarlo import (BatchMeans, MonteCarloResult,
                                    estimate_mean, spawn_generators)


class TestSpawnGenerators:
    def test_reproducible(self):
        a = spawn_generators(42, 3)
        b = spawn_generators(42, 3)
        for gen_a, gen_b in zip(a, b):
            assert gen_a.uniform() == gen_b.uniform()

    def test_independent_streams(self):
        gens = spawn_generators(42, 2)
        assert gens[0].uniform() != gens[1].uniform()

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            spawn_generators(42, 0)


class TestBatchMeans:
    def test_matches_numpy(self):
        values = [1.0, 2.0, 3.5, -1.0, 0.25]
        acc = BatchMeans()
        acc.extend(values)
        assert acc.mean == pytest.approx(np.mean(values))
        assert acc.variance == pytest.approx(np.var(values, ddof=1))

    def test_result_std_error(self):
        values = list(range(10))
        acc = BatchMeans()
        acc.extend([float(v) for v in values])
        result = acc.result()
        assert result.std_error == pytest.approx(
            np.std(values, ddof=1) / math.sqrt(len(values)))

    def test_needs_two_batches(self):
        acc = BatchMeans()
        acc.add(1.0)
        with pytest.raises(ValueError):
            acc.result()

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            BatchMeans().mean

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BatchMeans().add(math.nan)

    def test_numerical_stability_large_offset(self):
        """Welford survives a large common offset."""
        acc = BatchMeans()
        offset = 1e12
        acc.extend([offset + v for v in (1.0, 2.0, 3.0)])
        assert acc.variance == pytest.approx(1.0)


class TestMonteCarloResultEdges:
    def test_zero_mean_ci_is_symmetric(self):
        result = MonteCarloResult(mean=0.0, std_error=0.5, replications=10)
        low, high = result.ci()
        assert low == -high
        assert high == pytest.approx(1.96 * 0.5)

    def test_zero_mean_relative_error_is_inf(self):
        result = MonteCarloResult(mean=0.0, std_error=0.5, replications=10)
        assert math.isinf(result.relative_error())
        assert result.relative_error() > 0  # +inf, not nan or -inf

    def test_negative_mean_uses_absolute_value(self):
        result = MonteCarloResult(mean=-2.0, std_error=1.0, replications=5)
        assert result.relative_error() == pytest.approx(0.5)

    def test_zero_std_error_ci_collapses(self):
        result = MonteCarloResult(mean=3.0, std_error=0.0, replications=5)
        assert result.ci() == (3.0, 3.0)
        assert result.relative_error() == 0.0

    def test_custom_z(self):
        result = MonteCarloResult(mean=1.0, std_error=1.0, replications=5)
        low, high = result.ci(z=1.0)
        assert (low, high) == (0.0, 2.0)


class TestBatchMeansSingleReplication:
    def test_single_value_mean_but_no_variance(self):
        acc = BatchMeans()
        acc.add(3.5)
        assert acc.count == 1
        assert acc.mean == 3.5
        with pytest.raises(ValueError):
            acc.variance
        with pytest.raises(ValueError):
            acc.result()

    def test_two_identical_values_zero_variance(self):
        acc = BatchMeans()
        acc.extend([2.0, 2.0])
        result = acc.result()
        assert result.std_error == 0.0
        assert math.isinf(MonteCarloResult(0.0, 0.0, 2).relative_error())


class TestSpawnGeneratorStreams:
    def test_streams_uncorrelated(self):
        """SeedSequence children must behave as independent streams —
        the property the per-chunk fleet seeding relies on."""
        gens = spawn_generators(2020, 4)
        draws = np.array([g.uniform(size=512) for g in gens])
        corr = np.corrcoef(draws)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.15)

    def test_all_pairs_distinct(self):
        gens = spawn_generators(7, 8)
        first_draws = [g.uniform() for g in gens]
        assert len(set(first_draws)) == 8

    def test_prefix_stability(self):
        """Spawning more generators never changes the earlier streams —
        so growing a campaign keeps its existing chunks' draws."""
        few = spawn_generators(11, 2)
        many = spawn_generators(11, 6)
        for a, b in zip(few, many):
            assert a.uniform() == b.uniform()


class TestEstimators:
    def test_estimate_mean_recovers_expectation(self):
        result = estimate_mean(lambda rng: rng.normal(5.0, 1.0),
                               seed=1, replications=400)
        low, high = result.ci()
        assert low < 5.0 < high
        assert result.replications == 400

    def test_too_few_replications_rejected(self):
        with pytest.raises(ValueError):
            estimate_mean(lambda rng: 0.0, seed=1, replications=1)

    def test_deterministic_under_seed(self):
        a = estimate_mean(lambda rng: rng.uniform(), seed=3, replications=50)
        b = estimate_mean(lambda rng: rng.uniform(), seed=3, replications=50)
        assert a.mean == b.mean

    def test_relative_error_zero_mean(self):
        result = estimate_mean(lambda rng: 0.0, seed=1, replications=10)
        assert math.isinf(result.relative_error())
