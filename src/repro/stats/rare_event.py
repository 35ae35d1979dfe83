"""Stratified estimation for rare incident rates.

Safety-class budgets sit many orders of magnitude below quality budgets
(Fig. 3), so naive Monte Carlo over operating hours rarely observes the
events that matter.  The repository's substitute for fleet data — the
traffic simulator — therefore estimates rates *stratified by context*:
simulate each operating context (urban night, highway rain, ...) with its
own replication budget, then recombine with the ODD's exposure mix.

This is textbook stratified sampling; the point of carrying it as a named
substrate is the paper's Sec. II-B-4 argument that situational frequencies
are context-dependent and should be composed at analysis time rather than
hard-coded as one global exposure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Tuple

import numpy as np

from .montecarlo import BatchMeans, MonteCarloResult, spawn_generators

__all__ = [
    "StratumEstimate",
    "StratifiedEstimate",
    "stratified_rate",
    "stratified_batch_rate",
]


@dataclass(frozen=True)
class StratumEstimate:
    """Per-context estimate: mean rate, standard error, weight in the mix."""

    context: str
    weight: float
    result: MonteCarloResult


@dataclass(frozen=True)
class StratifiedEstimate:
    """Exposure-weighted combination of per-context estimates.

    ``mean = Σ w_c · mean_c`` and ``se² = Σ w_c² · se_c²`` — strata are
    simulated independently.
    """

    strata: Tuple[StratumEstimate, ...]

    @property
    def mean(self) -> float:
        return sum(s.weight * s.result.mean for s in self.strata)

    @property
    def std_error(self) -> float:
        return math.sqrt(sum((s.weight * s.result.std_error) ** 2
                             for s in self.strata))

    def as_result(self) -> MonteCarloResult:
        return MonteCarloResult(
            mean=self.mean,
            std_error=self.std_error,
            replications=sum(s.result.replications for s in self.strata),
        )

    def dominant_context(self) -> str:
        """The context contributing the most to the combined rate."""
        best = max(self.strata, key=lambda s: s.weight * s.result.mean)
        return best.context

    def reweighted(self, weights: Mapping[str, float]) -> "StratifiedEstimate":
        """The same per-context estimates under a different exposure mix.

        This is the paper's contextual-adaptation point made concrete: a
        different ODD usage profile (more night driving, a snowier region)
        changes the combined rate *without new simulation* — only the
        weights move.
        """
        _validate_weights(weights)
        missing = {s.context for s in self.strata} - set(weights)
        if missing:
            raise KeyError(f"weights missing for contexts: {sorted(missing)}")
        return StratifiedEstimate(tuple(
            StratumEstimate(s.context, float(weights[s.context]), s.result)
            for s in self.strata))


def _validate_weights(weights: Mapping[str, float]) -> None:
    if not weights:
        raise ValueError("at least one stratum weight is required")
    total = 0.0
    for context, weight in weights.items():
        if weight < 0 or not math.isfinite(weight):
            raise ValueError(f"weight for {context!r} must be finite and >= 0")
        total += weight
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(f"stratum weights must sum to 1, got {total}")


def stratified_rate(simulate: Callable[[str, np.random.Generator], float],
                    weights: Mapping[str, float],
                    *, seed: int,
                    replications_per_stratum: int | Mapping[str, int] = 64,
                    ) -> StratifiedEstimate:
    """Estimate an exposure-weighted rate across contexts.

    ``simulate(context, rng)`` returns one replication's rate observation
    for that context (e.g. incidents per simulated hour).  Contexts with
    zero weight are skipped entirely — no simulation effort outside the
    declared mix.
    """
    return stratified_batch_rate(
        lambda context, rngs: (simulate(context, rng) for rng in rngs),
        weights, seed=seed,
        replications_per_stratum=replications_per_stratum)


def stratified_batch_rate(
        simulate_stratum: Callable[[str, List[np.random.Generator]],
                                   Iterable[float]],
        weights: Mapping[str, float],
        *, seed: int,
        replications_per_stratum: int | Mapping[str, int] = 64,
        ) -> StratifiedEstimate:
    """:func:`stratified_rate` with one call per stratum.

    ``simulate_stratum(context, rngs)`` returns one rate observation per
    generator of ``rngs``, in order.  The stream layout is the one both
    functions share: the contexts with positive weight in sorted order,
    at least 2 replications each, one :func:`spawn_generators` call for
    every replication, and consecutive slices of it in context order.
    """
    _validate_weights(weights)
    contexts = [c for c, w in sorted(weights.items()) if w > 0]
    if isinstance(replications_per_stratum, int):
        replication_map = {c: replications_per_stratum for c in contexts}
    else:
        replication_map = {c: int(replications_per_stratum[c]) for c in contexts}
    for context, reps in replication_map.items():
        if reps < 2:
            raise ValueError(
                f"stratum {context!r} needs >= 2 replications, got {reps}")
    strata = []
    stream = spawn_generators(seed, sum(replication_map.values()))
    cursor = 0
    for context in contexts:
        reps = replication_map[context]
        acc = BatchMeans()
        for value in simulate_stratum(context,
                                      stream[cursor:cursor + reps]):
            acc.add(float(value))
        if acc.count != reps:
            raise ValueError(f"stratum {context!r} returned {acc.count} "
                             f"observations for {reps} replications")
        cursor += reps
        strata.append(StratumEstimate(context, float(weights[context]),
                                      acc.result()))
    return StratifiedEstimate(tuple(strata))
