"""Unit tests for multilevel splitting (repro.stats.splitting).

Gates the generic fixed-ladder estimator, the adaptive-level pilot and
the replicated (honest-error-bar) driver on the analytic Gaussian tail
``P(Z > 3)``, plus the structural invariants: strict comparisons,
extinction semantics, determinism and input validation.
"""

import math
import warnings

import numpy as np
import pytest

from repro.stats import (LevelPassage, MonteCarloResult, SplittingEstimate,
                         adaptive_levels, multilevel_splitting, normal_cdf,
                         replicated_splitting)


def _initial(rng):
    return float(rng.normal())


def _score(x):
    return x


def _mutate(x, rng, rho=0.8):
    # Crank-Nicolson: exactly invariant for N(0, 1).
    return rho * x + math.sqrt(1.0 - rho * rho) * float(rng.normal())


class TestLevelPassage:
    def test_fraction(self):
        p = LevelPassage(level=1.0, passed=3, total=12)
        assert p.fraction == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            LevelPassage(level=1.0, passed=0, total=0)
        with pytest.raises(ValueError):
            LevelPassage(level=1.0, passed=5, total=4)
        with pytest.raises(ValueError):
            LevelPassage(level=1.0, passed=-1, total=4)


class TestSplittingEstimate:
    def test_as_result(self):
        est = SplittingEstimate(
            probability=0.01, std_error=0.002, particles=128,
            passages=(LevelPassage(level=1.0, passed=32, total=128),))
        result = est.as_result()
        assert isinstance(result, MonteCarloResult)
        assert result.mean == 0.01
        assert result.replications == 128

    def test_extinct_flag(self):
        alive = SplittingEstimate(
            probability=0.1, std_error=0.01, particles=10,
            passages=(LevelPassage(level=0.0, passed=1, total=10),))
        dead = SplittingEstimate(
            probability=0.0, std_error=0.01, particles=10,
            passages=(LevelPassage(level=0.0, passed=0, total=10),))
        assert not alive.extinct
        assert dead.extinct


class TestMultilevelSplitting:
    def test_gaussian_tail_within_five_sigma(self):
        truth = normal_cdf(-3.0)
        est = multilevel_splitting(_initial, _score, _mutate,
                                   levels=[1.0, 2.0, 3.0], seed=101,
                                   particles=2048, mutations_per_level=4)
        assert est.probability > 0.0
        assert abs(est.probability - truth) < 5 * max(est.std_error,
                                                      truth * 0.1)

    def test_single_level_is_plain_monte_carlo(self):
        # With one level there is no cloning: the estimate is the empirical
        # survival fraction of the initial population.
        est = multilevel_splitting(_initial, _score, _mutate, levels=[0.0],
                                   seed=5, particles=512,
                                   mutations_per_level=3)
        assert est.probability == est.passages[0].fraction
        assert est.passages[0].total == 512

    def test_strict_comparison_at_level(self):
        # Scores exactly equal to the level must NOT pass (strict >),
        # matching the traffic collision condition demanded > capability.
        est = multilevel_splitting(lambda rng: 1.0, _score, lambda x, rng: x,
                                   levels=[1.0], seed=1, particles=16,
                                   mutations_per_level=0)
        assert est.probability == 0.0
        assert est.extinct

    def test_extinction_reports_resolution_floor(self):
        # An unreachable level: probability 0 with the one-particle floor
        # as the error bar, never 0 +/- 0.
        est = multilevel_splitting(_initial, _score, _mutate, levels=[50.0],
                                   seed=9, particles=64,
                                   mutations_per_level=2)
        assert est.probability == 0.0
        assert est.std_error == pytest.approx(1.0 / 64)
        assert est.extinct

    def test_extinction_mid_ladder_scales_floor(self):
        # Die at the second rung: floor = P(first rung) / particles.
        est = multilevel_splitting(_initial, _score, _mutate,
                                   levels=[0.0, 60.0], seed=13,
                                   particles=128, mutations_per_level=2)
        assert est.probability == 0.0
        p1 = est.passages[0].fraction
        assert est.std_error == pytest.approx(p1 / 128)

    def test_seed_determinism(self):
        kw = dict(levels=[1.0, 2.0], particles=256, mutations_per_level=3)
        a = multilevel_splitting(_initial, _score, _mutate, seed=42, **kw)
        b = multilevel_splitting(_initial, _score, _mutate, seed=42, **kw)
        assert a == b
        c = multilevel_splitting(_initial, _score, _mutate, seed=43, **kw)
        assert c != a

    def test_validates_levels(self):
        with pytest.raises(ValueError):
            multilevel_splitting(_initial, _score, _mutate, levels=[],
                                 seed=1)
        with pytest.raises(ValueError):
            multilevel_splitting(_initial, _score, _mutate,
                                 levels=[1.0, 1.0], seed=1)
        with pytest.raises(ValueError):
            multilevel_splitting(_initial, _score, _mutate,
                                 levels=[2.0, 1.0], seed=1)
        with pytest.raises(ValueError):
            multilevel_splitting(_initial, _score, _mutate,
                                 levels=[math.inf], seed=1)

    def test_validates_particles_and_mutations(self):
        with pytest.raises(ValueError):
            multilevel_splitting(_initial, _score, _mutate, levels=[1.0],
                                 seed=1, particles=1)
        with pytest.raises(ValueError):
            multilevel_splitting(_initial, _score, _mutate, levels=[1.0],
                                 seed=1, mutations_per_level=-1)


class TestAdaptiveLevels:
    def test_ladder_ends_exactly_at_final_level(self):
        levels = adaptive_levels(_initial, _score, _mutate, seed=7,
                                 final_level=3.0, particles=512,
                                 level_fraction=0.25)
        assert levels[-1] == 3.0
        assert levels == sorted(levels)
        assert len(levels) == len(set(levels))
        assert len(levels) >= 2  # a 3-sigma target needs intermediates

    def test_respects_max_levels(self):
        levels = adaptive_levels(_initial, _score, _mutate, seed=7,
                                 final_level=6.0, particles=256,
                                 level_fraction=0.5, max_levels=4)
        assert len(levels) <= 4
        assert levels[-1] == 6.0

    def test_easy_target_needs_no_intermediates(self):
        # A final level below the pilot's first quantile: just [final].
        levels = adaptive_levels(_initial, _score, _mutate, seed=7,
                                 final_level=-10.0, particles=128)
        assert levels == [-10.0]

    def test_atom_at_score_zero_terminates(self):
        # A score with a big atom (like never-closing encounters) must not
        # loop on a frozen quantile.
        def atom_score(x):
            return max(x, 0.0)

        levels = adaptive_levels(_initial, atom_score, _mutate, seed=21,
                                 final_level=3.0, particles=256,
                                 level_fraction=0.9, max_levels=12)
        assert levels[-1] == 3.0
        for lo, hi in zip(levels, levels[1:]):
            assert hi > lo

    def test_inf_scores_never_make_a_nan_rung(self):
        # A score that jumps to inf (as the traffic severity score does
        # when the reaction roll-out alone uses up the detection
        # distance): after the first rung about half the pilot sits on
        # the atom, so the next quantile is +inf and the ladder ends
        # there, without interpolating inf - inf.
        def cliff_score(x):
            return x if x < 1.0 else math.inf

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = adaptive_levels(_initial, cliff_score, _mutate,
                                     seed=7, final_level=2.0,
                                     particles=256, level_fraction=0.25)
        assert levels == [0.4348050727728712, 2.0]

    def test_pilot_ladder_feeds_splitting(self):
        truth = normal_cdf(-3.0)
        levels = adaptive_levels(_initial, _score, _mutate, seed=31,
                                 final_level=3.0, particles=1024)
        est = multilevel_splitting(_initial, _score, _mutate, levels=levels,
                                   seed=32, particles=2048,
                                   mutations_per_level=4)
        assert est.probability > 0.0
        assert abs(est.probability - truth) < 5 * max(est.std_error,
                                                      truth * 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            adaptive_levels(_initial, _score, _mutate, seed=1,
                            final_level=math.nan)
        with pytest.raises(ValueError):
            adaptive_levels(_initial, _score, _mutate, seed=1,
                            final_level=1.0, particles=1)
        with pytest.raises(ValueError):
            adaptive_levels(_initial, _score, _mutate, seed=1,
                            final_level=1.0, level_fraction=1.0)
        with pytest.raises(ValueError):
            adaptive_levels(_initial, _score, _mutate, seed=1,
                            final_level=1.0, max_levels=0)


class TestReplicatedSplitting:
    def test_gaussian_tail_with_honest_error_bar(self):
        truth = normal_cdf(-3.0)
        result = replicated_splitting(_initial, _score, _mutate,
                                      levels=[1.0, 2.0, 3.0], seed=77,
                                      runs=12, particles=512,
                                      mutations_per_level=4)
        assert isinstance(result, MonteCarloResult)
        assert result.replications == 12
        assert abs(result.mean - truth) < 5 * result.std_error

    def test_determinism_and_seed_sensitivity(self):
        kw = dict(levels=[0.5, 1.5], runs=4, particles=128,
                  mutations_per_level=2)
        a = replicated_splitting(_initial, _score, _mutate, seed=3, **kw)
        b = replicated_splitting(_initial, _score, _mutate, seed=3, **kw)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)
        c = replicated_splitting(_initial, _score, _mutate, seed=4, **kw)
        assert c.mean != a.mean

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            replicated_splitting(_initial, _score, _mutate, levels=[1.0],
                                 seed=1, runs=1)

    def test_validates_like_single_run(self):
        with pytest.raises(ValueError):
            replicated_splitting(_initial, _score, _mutate, levels=[],
                                 seed=1)
        with pytest.raises(ValueError):
            replicated_splitting(_initial, _score, _mutate, levels=[1.0],
                                 seed=1, particles=1)
        with pytest.raises(ValueError):
            replicated_splitting(_initial, _score, _mutate, levels=[1.0],
                                 seed=1, mutations_per_level=-1)
