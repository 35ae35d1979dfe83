"""Multilevel splitting (subset simulation) for rare-event probabilities.

The second accelerator of the rare-event tier (DESIGN §11).  Where
importance sampling needs an explicit tilted law with computable
likelihood ratios, splitting only needs a *severity score*: a function
``S(state)`` whose exceedance of a threshold ``L*`` is the rare event.
The target probability is factored through a ladder of intermediate
levels ``L_1 < L_2 < ... < L* `` as

    ``P(S > L*) = P(S > L_1) · Π_k P(S > L_{k+1} | S > L_k)``,

and each conditional factor is estimated with a particle population:
survivors of level ``k`` are cloned back to full strength and decorrelated
with an MCMC kernel that leaves the *nominal* law invariant (conditioning
on ``S > L_k`` is enforced by rejection, which makes the kernel invariant
for the conditional law too).  Each factor is a common-or-garden fraction
instead of a 1e-7 needle, so the work scales with ``log(1/p)`` rather than
``1/p``.

The traffic layer supplies states, scores and kernels
(:mod:`repro.traffic.acceleration` maps encounters onto standard-normal /
uniform coordinates so Crank–Nicolson and mod-1 translation kernels are
exactly invariant); this module is the generic machinery plus the two
estimator flavours.

The harness moves whole populations (DESIGN §11): ``initial(rng)`` runs
once per particle, while ``score`` and ``mutate`` take the population
stacked on axis 0, so a level costs ``mutations_per_level`` array steps
driven by kernel noise drawn once per level, particle-major.

* :func:`multilevel_splitting` — one population run, with the standard
  independence-approximation error bar (good for sizing, optimistic for
  gating because survivors are correlated);
* :func:`replicated_splitting` — independent repetitions combined through
  :class:`~repro.stats.montecarlo.BatchMeans`, whose between-run standard
  error is honest and is what the 5σ statistical-verification gates use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

import numpy as np

from .montecarlo import BatchMeans, MonteCarloResult, spawn_generators

__all__ = [
    "LevelPassage",
    "SplittingEstimate",
    "multilevel_splitting",
    "adaptive_levels",
    "replicated_splitting",
]

if TYPE_CHECKING:  # evaluating np.random at import would load it
    Initial = Callable[[np.random.Generator], Any]
    Score = Callable[[np.ndarray], np.ndarray]
    Mutate = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LevelPassage:
    """One rung of the ladder: how many particles cleared the level."""

    level: float
    passed: int
    total: int

    @property
    def fraction(self) -> float:
        return self.passed / self.total

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError("total must be >= 1")
        if not (0 <= self.passed <= self.total):
            raise ValueError("passed must be in [0, total]")


@dataclass(frozen=True)
class SplittingEstimate:
    """Product-of-fractions estimate of ``P(score > levels[-1])``.

    ``std_error`` uses the independence approximation
    ``relvar ≈ Σ_k (1 - p_k) / (N · p_k)`` — exact if the populations at
    each level were independent, an underestimate in practice because
    cloning correlates survivors.  Use :func:`replicated_splitting` when
    the error bar itself is load-bearing.
    """

    probability: float
    std_error: float
    particles: int
    passages: Tuple[LevelPassage, ...]

    def as_result(self) -> MonteCarloResult:
        return MonteCarloResult(mean=self.probability,
                                std_error=self.std_error,
                                replications=self.particles)

    @property
    def extinct(self) -> bool:
        """True when a level killed every particle (estimate is 0)."""
        return any(p.passed == 0 for p in self.passages)


def _validate_levels(levels: Sequence[float]) -> List[float]:
    levels = [float(level) for level in levels]
    if not levels:
        raise ValueError("at least one level is required")
    for level in levels:
        if not math.isfinite(level):
            raise ValueError("levels must be finite")
    for lo, hi in zip(levels, levels[1:]):
        if hi <= lo:
            raise ValueError(
                f"levels must be strictly increasing, got {lo} then {hi}")
    return levels


def _check_population(particles: int, mutations_per_level: int) -> None:
    if particles < 2:
        raise ValueError("particles must be >= 2")
    if mutations_per_level < 0:
        raise ValueError("mutations_per_level must be >= 0")


def _initial_population(initial: Initial, score: Score,
                        rng: np.random.Generator,
                        particles: int) -> Tuple[np.ndarray, np.ndarray]:
    # Per particle: its draws mix normals, whose sampler takes a variable
    # number of words, and uniforms; batching them would reorder them.
    states = np.array([initial(rng) for _ in range(particles)])
    return states, np.asarray(score(states), dtype=float)


def _regenerate(states: np.ndarray, scores: np.ndarray,
                survivors: np.ndarray, level: float, score: Score,
                mutate: Mutate, rng: np.random.Generator,
                mutations_per_level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Round-robin clones of the survivors (every lineage stays alive),
    decorrelated by the rejection-wrapped kernel; particle ``i``'s step
    ``k`` reads ``noise[i, k]``, its draws in a per-particle loop."""
    clones = survivors[np.arange(len(scores)) % len(survivors)]
    states, scores = states[clones], scores[clones]
    noise = rng.standard_normal((len(scores), mutations_per_level,
                                 *states.shape[1:]))
    for step in range(mutations_per_level):
        candidates = mutate(states, noise[:, step])
        candidate_scores = np.asarray(score(candidates), dtype=float)
        accept = candidate_scores > level
        states[accept] = candidates[accept]
        scores[accept] = candidate_scores[accept]
    return states, scores


def _run_splitting(initial: Initial, score: Score, mutate: Mutate,
                   levels: List[float], rng: np.random.Generator,
                   particles: int,
                   mutations_per_level: int) -> SplittingEstimate:
    states, scores = _initial_population(initial, score, rng, particles)
    passages: List[LevelPassage] = []
    probability = 1.0
    relvar = 0.0
    for index, level in enumerate(levels):
        survivors = np.flatnonzero(scores > level)
        passed = len(survivors)
        passages.append(LevelPassage(level=level, passed=passed,
                                     total=particles))
        if passed == 0:
            # Extinction: the estimate is 0.  There is no within-run error
            # bar for "saw nothing"; report the resolution floor — the
            # smallest probability one surviving particle could have
            # witnessed — so callers never mistake 0 ± 0 for certainty.
            floor = probability / particles
            return SplittingEstimate(probability=0.0, std_error=floor,
                                     particles=particles,
                                     passages=tuple(passages))
        fraction = passed / particles
        probability *= fraction
        relvar += (1.0 - fraction) / (particles * fraction)
        if index == len(levels) - 1:
            break
        states, scores = _regenerate(states, scores, survivors, level, score,
                                     mutate, rng, mutations_per_level)
    std_error = probability * math.sqrt(relvar)
    return SplittingEstimate(probability=probability, std_error=std_error,
                             particles=particles, passages=tuple(passages))


def multilevel_splitting(initial: Initial, score: Score, mutate: Mutate,
                         levels: Sequence[float],
                         *, seed: int,
                         particles: int = 256,
                         mutations_per_level: int = 3) -> SplittingEstimate:
    """Estimate ``P(score(X) > levels[-1])`` for ``X ~`` the nominal law.

    ``initial(rng)`` draws a state from the nominal law; ``score`` maps
    states stacked on axis 0 to one severity per row; ``mutate(states,
    noise)`` moves every row by a kernel *invariant for the unconditioned
    nominal law* driven by standard-normal ``noise`` of the states' shape
    (level conditioning is applied here by rejection).  Comparisons are
    strict (``>``), matching the traffic layer's collision condition
    ``demanded deceleration > capability``.
    """
    levels = _validate_levels(levels)
    _check_population(particles, mutations_per_level)
    rng = spawn_generators(seed, 1)[0]
    return _run_splitting(initial, score, mutate, levels, rng, particles,
                          mutations_per_level)


def adaptive_levels(initial: Initial, score: Score, mutate: Mutate,
                    *, seed: int,
                    final_level: float,
                    particles: int = 256,
                    level_fraction: float = 0.25,
                    max_levels: int = 12,
                    mutations_per_level: int = 3) -> List[float]:
    """Choose an intermediate-level ladder from pilot quantiles.

    Runs a pilot splitting pass in which each next level is placed at the
    population's ``(1 - level_fraction)`` score quantile, so roughly
    ``level_fraction`` of particles survive each rung — the textbook
    adaptive choice.  Returns strictly increasing levels ending exactly at
    ``final_level``, ready to pass to :func:`multilevel_splitting` (which
    should then be run with a *different* seed: reusing the pilot's
    levels on its own data biases the estimate).

    Stops placing rungs when the candidate quantile reaches
    ``final_level`` or fails to progress — score distributions with atoms
    (the traffic severity score has mass at 0 for never-closing
    encounters) would otherwise loop on a frozen quantile.
    """
    if not math.isfinite(final_level):
        raise ValueError("final_level must be finite")
    _check_population(particles, mutations_per_level)
    if not (0.0 < level_fraction < 1.0):
        raise ValueError("level_fraction must be in (0, 1)")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    rng = spawn_generators(seed, 1)[0]
    states, scores = _initial_population(initial, score, rng, particles)
    levels: List[float] = []
    for _ in range(max_levels - 1):
        candidate = _score_quantile(scores, 1.0 - level_fraction)
        if candidate >= final_level:
            break
        if levels and candidate <= levels[-1]:
            break
        survivors = np.flatnonzero(scores > candidate)
        if not len(survivors):
            # Strict comparison emptied the rung (quantile atom); the
            # ladder so far is the best the pilot can certify.
            break
        levels.append(candidate)
        states, scores = _regenerate(states, scores, survivors, candidate,
                                     score, mutate, rng, mutations_per_level)
    levels.append(final_level)
    return levels


def _score_quantile(scores: Sequence[float], q: float) -> float:
    """``np.quantile(scores, q)`` (linear interpolation), with ``+inf``
    scores taken as a limit.

    A severity score is ``inf`` when the reaction roll-out alone uses up
    the detection distance.  Interpolating towards one computes
    ``inf - inf`` or ``inf * 0``, a NaN rung; the limit is the lower
    neighbour exactly at its position and ``+inf`` past it.
    """
    ordered = np.sort(np.asarray(scores, dtype=float))
    position = (len(ordered) - 1) * q
    below = math.floor(position)
    if np.isposinf(ordered[below:below + 2]).any():
        return float(ordered[below]) if below == position else math.inf
    return float(np.quantile(ordered, q))


def replicated_splitting(initial: Initial, score: Score, mutate: Mutate,
                         levels: Sequence[float],
                         *, seed: int,
                         runs: int = 8,
                         particles: int = 256,
                         mutations_per_level: int = 3) -> MonteCarloResult:
    """Independent splitting runs combined with batch means.

    Each run gets its own spawned generator, so the between-run standard
    error is an honest (correlation-free) error bar — this is the
    estimator the statistical-verification tier gates at 5σ.
    """
    levels = _validate_levels(levels)
    if runs < 2:
        raise ValueError("runs must be >= 2")
    _check_population(particles, mutations_per_level)
    acc = BatchMeans()
    for rng in spawn_generators(seed, runs):
        estimate = _run_splitting(initial, score, mutate, levels, rng,
                                  particles, mutations_per_level)
        acc.add(estimate.probability)
    return acc.result()
