"""Unit tests for multilevel splitting (repro.stats.splitting).

Gates the generic fixed-ladder estimator, the adaptive-level pilot and
the replicated (honest-error-bar) driver on the analytic Gaussian tail
``P(Z > 3)``, plus the structural invariants: strict comparisons,
extinction semantics, determinism and input validation.

The harness moves whole particle populations.  It used to score and
mutate one particle at a time; that loop is kept here as the oracle,
and a property holds every estimate and ladder equal to it bit for bit
on Gaussian toys and on severity channels of generated worlds.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.stats import (BatchMeans, LevelPassage, MonteCarloResult,
                         SplittingEstimate, adaptive_levels,
                         multilevel_splitting, normal_cdf,
                         replicated_splitting, spawn_generators)
from repro.stats.splitting import _score_quantile
from repro.traffic import severity_channels
from tests.strategies import worlds


def _initial(rng):
    return float(rng.normal())


def _score(x):
    return x


def _mutate(x, noise, rho=0.8):
    # Crank-Nicolson: exactly invariant for N(0, 1).
    return rho * x + math.sqrt(1.0 - rho * rho) * noise


def _atom_score(x):
    # A big atom at 0, like never-closing encounters.
    return np.maximum(x, 0.0)


def _cliff_score(x):
    # Jumps to inf, as the traffic severity score does when the reaction
    # roll-out alone uses up the detection distance.
    return np.where(x < 1.0, x, math.inf)


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
        levels = adaptive_levels(_initial, _atom_score, _mutate, seed=21,
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = adaptive_levels(_initial, _cliff_score, _mutate,
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


# -- the oracle: the per-particle loop -------------------------------------
#
# The reference the harness must reproduce exactly: each particle scored
# and mutated on its own, the population callbacks called on one-row
# arrays, each mutation drawing its noise as it goes.

def _score_one(score, state):
    return float(score(np.asarray(state)[np.newaxis])[0])


def _mutate_one(mutate, state, rng):
    state = np.asarray(state)
    noise = rng.standard_normal(state.shape)
    return mutate(state[np.newaxis], noise[np.newaxis])[0]


def _oracle_regenerate(population, scores, survivor_indices, level, score,
                       mutate, rng, mutations_per_level):
    passed = len(survivor_indices)
    particles = len(population)
    population = [population[survivor_indices[i % passed]]
                  for i in range(particles)]
    scores = [scores[survivor_indices[i % passed]] for i in range(particles)]
    for i in range(particles):
        state, value = population[i], scores[i]
        for _ in range(mutations_per_level):
            candidate = _mutate_one(mutate, state, rng)
            candidate_score = _score_one(score, candidate)
            if candidate_score > level:
                state, value = candidate, candidate_score
        population[i], scores[i] = state, value
    return population, scores


def _oracle_run(initial, score, mutate, levels, rng, particles,
                mutations_per_level):
    population = [initial(rng) for _ in range(particles)]
    scores = [_score_one(score, state) for state in population]
    passages = []
    probability = 1.0
    relvar = 0.0
    for index, level in enumerate(levels):
        survivor_indices = [i for i, s in enumerate(scores) if s > level]
        passed = len(survivor_indices)
        passages.append(LevelPassage(level=level, passed=passed,
                                     total=particles))
        if passed == 0:
            return SplittingEstimate(probability=0.0,
                                     std_error=probability / particles,
                                     particles=particles,
                                     passages=tuple(passages))
        fraction = passed / particles
        probability *= fraction
        relvar += (1.0 - fraction) / (particles * fraction)
        if index == len(levels) - 1:
            break
        population, scores = _oracle_regenerate(
            population, scores, survivor_indices, level, score, mutate, rng,
            mutations_per_level)
    return SplittingEstimate(probability=probability,
                             std_error=probability * math.sqrt(relvar),
                             particles=particles, passages=tuple(passages))


def _oracle_adaptive_levels(initial, score, mutate, *, seed, final_level,
                            particles, level_fraction, max_levels,
                            mutations_per_level):
    rng = spawn_generators(seed, 1)[0]
    population = [initial(rng) for _ in range(particles)]
    scores = [_score_one(score, state) for state in population]
    levels = []
    for _ in range(max_levels - 1):
        candidate = _score_quantile(scores, 1.0 - level_fraction)
        if candidate >= final_level:
            break
        if levels and candidate <= levels[-1]:
            break
        levels.append(candidate)
        survivor_indices = [i for i, s in enumerate(scores) if s > candidate]
        if not survivor_indices:
            levels.pop()
            break
        population, scores = _oracle_regenerate(
            population, scores, survivor_indices, candidate, score, mutate,
            rng, mutations_per_level)
    levels.append(final_level)
    return levels


# -- population ≡ particle loop ---------------------------------------------

SEEDS = st.integers(0, 2 ** 32 - 1)
PARTICLES = st.integers(2, 64)
MUTATIONS = st.integers(0, 4)
PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def problems(draw):
    """``(initial, score, mutate, ladder)``: a Gaussian toy (plain, atom
    or cliff score) or a severity channel of a generated world.  The
    ladder's levels sit at drawn quantiles of a pilot sample's finite
    scores, so rungs land inside each score's range, atoms included."""
    if draw(st.booleans()):
        initial, mutate = _initial, _mutate
        score = draw(st.sampled_from([_score, _atom_score, _cliff_score]))
    else:
        generator, _, policy, braking, perception, _, _ = draw(worlds())
        channels = [channel for context in generator.contexts
                    for channel in severity_channels(
                        policy, generator, perception, braking, context)]
        assume(channels)
        channel = draw(st.sampled_from(channels))
        initial, score, mutate = channel.initial, channel.score, channel.mutate
    rng = np.random.default_rng(draw(SEEDS))
    pilot = np.asarray(score(np.array([initial(rng) for _ in range(128)])),
                       dtype=float)
    pilot = pilot[np.isfinite(pilot)]
    positions = draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=5))
    ladder = sorted({float(np.quantile(pilot, q)) for q in positions}) \
        if pilot.size else [1.0]
    return initial, score, mutate, ladder


def _hex(estimate):
    return (estimate.probability.hex(), estimate.std_error.hex(),
            estimate.particles,
            [(p.level.hex(), p.passed, p.total) for p in estimate.passages])


class TestPopulationEqualsParticleLoop:
    @PROPERTY
    @given(problems(), SEEDS, PARTICLES, MUTATIONS)
    def test_multilevel_splitting(self, problem, seed, particles, mutations):
        *callbacks, ladder = problem
        estimate = multilevel_splitting(*callbacks, ladder, seed=seed,
                                        particles=particles,
                                        mutations_per_level=mutations)
        oracle = _oracle_run(*callbacks, ladder,
                             spawn_generators(seed, 1)[0], particles,
                             mutations)
        assert _hex(estimate) == _hex(oracle)

    @PROPERTY
    @given(problems(), SEEDS, PARTICLES, MUTATIONS, st.floats(0.05, 0.95),
           st.integers(1, 6))
    def test_adaptive_levels(self, problem, seed, particles, mutations,
                             level_fraction, max_levels):
        *callbacks, ladder = problem
        kw = dict(seed=seed, final_level=ladder[-1], particles=particles,
                  level_fraction=level_fraction, max_levels=max_levels,
                  mutations_per_level=mutations)
        levels = adaptive_levels(*callbacks, **kw)
        oracle = _oracle_adaptive_levels(*callbacks, **kw)
        assert [level.hex() for level in levels] == \
            [level.hex() for level in oracle]

    @PROPERTY
    @given(problems(), SEEDS, PARTICLES, MUTATIONS, st.integers(2, 4))
    def test_replicated_splitting(self, problem, seed, particles, mutations,
                                  runs):
        *callbacks, ladder = problem
        result = replicated_splitting(*callbacks, ladder, seed=seed,
                                      runs=runs, particles=particles,
                                      mutations_per_level=mutations)
        oracle = BatchMeans()
        for rng in spawn_generators(seed, runs):
            oracle.add(_oracle_run(*callbacks, ladder, rng, particles,
                                   mutations).probability)
        expected = oracle.result()
        assert (result.mean.hex(), result.std_error.hex(),
                result.replications) == \
            (expected.mean.hex(), expected.std_error.hex(),
             expected.replications)


class TestRowsAreIndependent:
    """What makes the oracle exact: a row's score and move depend on that
    row alone, bit for bit, whatever population it sits in."""

    @PROPERTY
    @given(problems(), SEEDS, st.integers(1, 64))
    def test_score_and_mutate_rowwise(self, problem, seed, rows):
        initial, score, mutate, _ = problem
        rng = np.random.default_rng(seed)
        states = np.array([initial(rng) for _ in range(rows)])
        if states.ndim == 2:
            # Severity states: pull sight short and detection late so
            # collisions and infinite demands are reached.
            states[:, 0] -= rng.uniform(0.0, 3.0, rows)
            states[:, 5] -= rng.uniform(0.0, 2.0, rows)
        noise = rng.standard_normal(states.shape)
        scores = np.asarray(score(states), dtype=float)
        moved = mutate(states, noise)
        for i in range(rows):
            one = np.asarray(score(states[i:i + 1]), dtype=float)
            assert scores[i].tobytes() == one[0].tobytes()
            assert moved[i].tobytes() == \
                mutate(states[i:i + 1], noise[i:i + 1])[0].tobytes()
