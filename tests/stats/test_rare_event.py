"""Tests for stratified rare-event estimation."""

from __future__ import annotations

import math

import pytest

from repro.stats.montecarlo import MonteCarloResult
from repro.stats.rare_event import (StratifiedEstimate, StratumEstimate,
                                    stratified_batch_rate, stratified_rate)


def simulate(context, rng):
    """Per-context synthetic rates: urban is 10x rural."""
    base = {"urban": 1.0, "rural": 0.1, "highway": 0.01}[context]
    return base * rng.lognormal(0.0, 0.1)


WEIGHTS = {"urban": 0.5, "rural": 0.3, "highway": 0.2}


class TestStratifiedRate:
    def test_combined_mean_is_weighted(self):
        estimate = stratified_rate(simulate, WEIGHTS, seed=1,
                                   replications_per_stratum=128)
        expected = sum(WEIGHTS[c] * {"urban": 1.0, "rural": 0.1,
                                     "highway": 0.01}[c] for c in WEIGHTS)
        # lognormal(0, 0.1) has mean exp(0.005) ≈ 1.005
        assert estimate.mean == pytest.approx(expected, rel=0.05)

    def test_zero_weight_contexts_skipped(self):
        calls = []

        def tracking(context, rng):
            calls.append(context)
            return 1.0

        stratified_rate(tracking, {"urban": 1.0, "rural": 0.0}, seed=1,
                        replications_per_stratum=4)
        assert set(calls) == {"urban"}

    def test_deterministic(self):
        a = stratified_rate(simulate, WEIGHTS, seed=9,
                            replications_per_stratum=16)
        b = stratified_rate(simulate, WEIGHTS, seed=9,
                            replications_per_stratum=16)
        assert a.mean == b.mean

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            stratified_rate(simulate, {"urban": 0.5}, seed=1)

    def test_per_stratum_replication_map(self):
        estimate = stratified_rate(
            simulate, WEIGHTS, seed=1,
            replications_per_stratum={"urban": 64, "rural": 16,
                                      "highway": 8})
        by_context = {s.context: s.result.replications
                      for s in estimate.strata}
        assert by_context == {"urban": 64, "rural": 16, "highway": 8}

    def test_too_few_replications_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            stratified_rate(simulate, WEIGHTS, seed=1,
                            replications_per_stratum=1)

    def test_dominant_context(self):
        estimate = stratified_rate(simulate, WEIGHTS, seed=1,
                                   replications_per_stratum=32)
        assert estimate.dominant_context() == "urban"

    def test_std_error_combines_quadratically(self):
        estimate = stratified_rate(simulate, WEIGHTS, seed=1,
                                   replications_per_stratum=32)
        manual = math.sqrt(sum((s.weight * s.result.std_error) ** 2
                               for s in estimate.strata))
        assert estimate.std_error == pytest.approx(manual)


class TestReweighting:
    def test_reweighting_changes_mean_without_resimulation(self):
        """The Sec. II-B-4 point: a new ODD mix needs no new simulation."""
        estimate = stratified_rate(simulate, WEIGHTS, seed=1,
                                   replications_per_stratum=64)
        rural_heavy = estimate.reweighted(
            {"urban": 0.1, "rural": 0.7, "highway": 0.2})
        assert rural_heavy.mean < estimate.mean
        # The per-stratum results are identical objects — no new sampling.
        for before, after in zip(estimate.strata, rural_heavy.strata):
            assert before.result is after.result

    def test_reweighting_validates(self):
        estimate = stratified_rate(simulate, WEIGHTS, seed=1,
                                   replications_per_stratum=16)
        with pytest.raises(ValueError):
            estimate.reweighted({"urban": 0.5, "rural": 0.5, "highway": 0.5})
        with pytest.raises(KeyError):
            estimate.reweighted({"urban": 1.0})


class TestSeedDeterminism:
    """Regression gates on the stream layout of stratified_rate."""

    def test_int_and_mapping_reps_bit_identical(self):
        """Passing the same per-stratum count as an int or as an explicit
        mapping must consume identical streams — the layout depends only
        on the resolved counts."""
        a = stratified_rate(simulate, WEIGHTS, seed=31,
                            replications_per_stratum=12)
        b = stratified_rate(simulate, WEIGHTS, seed=31,
                            replications_per_stratum={c: 12 for c in WEIGHTS})
        for sa, sb in zip(a.strata, b.strata):
            assert sa.context == sb.context
            assert sa.result.mean == sb.result.mean
            assert sa.result.std_error == sb.result.std_error

    def test_zero_weight_context_consumes_no_stream(self):
        """A zero-weight context is bit-for-bit equivalent to an absent
        one: it is skipped before any generator is spawned, so the
        remaining strata receive exactly the streams they would have
        received had the context never been in the mix."""
        zeroed = stratified_rate(
            simulate, {"urban": 0.625, "rural": 0.375, "highway": 0.0},
            seed=47, replications_per_stratum=8)
        absent = stratified_rate(
            simulate, {"urban": 0.625, "rural": 0.375},
            seed=47, replications_per_stratum=8)
        assert {s.context for s in zeroed.strata} == {"urban", "rural"}
        for a, b in zip(zeroed.strata, absent.strata):
            assert a.context == b.context
            assert a.result.mean == b.result.mean
            assert a.result.std_error == b.result.std_error
        assert zeroed.mean == absent.mean

    def test_context_iteration_order_is_sorted_not_insertion(self):
        """The stream layout follows sorted context names, so shuffling
        the mapping's insertion order changes nothing."""
        shuffled = {"rural": 0.3, "highway": 0.2, "urban": 0.5}
        a = stratified_rate(simulate, WEIGHTS, seed=5,
                            replications_per_stratum=6)
        b = stratified_rate(simulate, shuffled, seed=5,
                            replications_per_stratum=6)
        assert [s.context for s in a.strata] == \
            [s.context for s in b.strata]
        assert a.mean == b.mean
        assert a.std_error == b.std_error


class TestStratifiedBatchRate:
    """One call per stratum, the stream layout of stratified_rate."""

    def test_same_streams_as_per_replication_calls(self):
        strata = []

        def batch(context, rngs):
            strata.append((context, len(rngs)))
            return [simulate(context, rng) for rng in rngs]

        reps = {"urban": 5, "rural": 3, "highway": 2}
        assert stratified_batch_rate(
            batch, WEIGHTS, seed=13, replications_per_stratum=reps) \
            == stratified_rate(simulate, WEIGHTS, seed=13,
                               replications_per_stratum=reps)
        assert strata == [("highway", 2), ("rural", 3), ("urban", 5)]

    def test_stratum_must_answer_every_replication(self):
        with pytest.raises(ValueError, match="returned 3 observations for 4"):
            stratified_batch_rate(
                lambda context, rngs: [1.0] * (len(rngs) - 1), WEIGHTS,
                seed=1, replications_per_stratum=4)


class TestStratifiedEstimateEdges:
    def _estimate(self, seed=3, reps=8):
        return stratified_rate(simulate, WEIGHTS, seed=seed,
                               replications_per_stratum=reps)

    def test_reweighted_accepts_superset_keys(self):
        """Weights may cover contexts the estimate never simulated (their
        mass simply applies to no stratum) as long as every simulated
        stratum is covered and the total is 1."""
        estimate = self._estimate()
        widened = estimate.reweighted(
            {"urban": 0.4, "rural": 0.3, "highway": 0.2, "night": 0.1})
        assert {s.context for s in widened.strata} == set(WEIGHTS)
        assert widened.mean == pytest.approx(
            sum(s.weight * s.result.mean for s in widened.strata))

    def test_dominant_context_tie_is_stable(self):
        """With exactly tied contributions, max() keeps the first stratum
        in (sorted-context) order — a deterministic, documented pick."""
        result = MonteCarloResult(mean=1.0, std_error=0.1, replications=4)
        tied = StratifiedEstimate((
            StratumEstimate("alpha", 0.5, result),
            StratumEstimate("beta", 0.5, result),
        ))
        assert tied.dominant_context() == "alpha"

    def test_as_result_sums_replications(self):
        estimate = self._estimate(reps=8)
        combined = estimate.as_result()
        assert combined.replications == 8 * len(WEIGHTS)
        assert combined.mean == pytest.approx(estimate.mean)
        assert combined.std_error == pytest.approx(estimate.std_error)

    def test_zero_rate_strata_still_combine(self):
        estimate = stratified_rate(lambda c, rng: 0.0, WEIGHTS, seed=2,
                                   replications_per_stratum=4)
        assert estimate.mean == 0.0
        assert estimate.std_error == 0.0
        assert estimate.as_result().relative_error() == math.inf
