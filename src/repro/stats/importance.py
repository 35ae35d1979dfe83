"""Importance sampling with exact likelihood-ratio reweighting.

The expensive verification question behind the QRN (PAPER.md Sec. V, and
de Gelder & Op den Camp's foreseeable-collision quantification) is
demonstrating incident budgets in the 1e-7/h class: naive Monte Carlo
needs on the order of 1e9 simulated hours before the first confidence
bound tightens.  Importance sampling closes that gap by simulating under
a *proposal* distribution ``q`` that makes the rare outcome common, then
reweighting every observation by the exact likelihood ratio ``p/q`` so
the estimator stays unbiased under the *nominal* law ``p``:

    ``E_p[f(X)] = E_q[f(X) · p(X)/q(X)]``.

This module is the distribution-agnostic substrate:

* :class:`WeightDiagnostics` — streamed, associatively mergeable weight
  moments with the standard effective-sample-size (ESS) diagnostic
  ``(Σw)² / Σw²`` and a weight-degeneracy alarm
  (:class:`WeightDegeneracyError`).  A tilt that is *too* aggressive
  concentrates all mass in a handful of samples; the ESS fraction is the
  honest measure of how many nominal-law samples the weighted ensemble
  is worth.
* exact log-likelihood ratios for the tilted families the traffic layer
  uses (:func:`clamped_lognormal_log_ratio`,
  :func:`floored_normal_log_ratio`, :func:`bernoulli_log_ratio`) —
  including the point masses their clamps introduce, which naive density
  ratios silently get wrong.

The traffic-specific proposal tilts (which parameters to shift, and the
per-encounter Campbell/marked-Poisson weights) live in
:mod:`repro.traffic.encounters` and :mod:`repro.traffic.acceleration`;
the statistical-verification tier (``pytest -m stats``) gates both
layers against analytic rates and the scalar oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "WeightDegeneracyError",
    "WeightDiagnostics",
    "normal_cdf",
    "normal_log_ratio",
    "clamped_lognormal_log_ratio",
    "floored_normal_log_ratio",
    "bernoulli_log_ratio",
]

_SQRT2 = math.sqrt(2.0)


class WeightDegeneracyError(ValueError):
    """An importance-sampling weight ensemble failed its health gate.

    Raised by :meth:`WeightDiagnostics.check` when the effective sample
    size collapses (a few huge weights dominate) — the estimate is then
    formally unbiased but its error bars are fiction, so the accelerated
    tier refuses to report it.  Carries the offending diagnostics.
    """

    def __init__(self, message: str, diagnostics: "WeightDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class WeightDiagnostics:
    """Weight-ensemble moments: count, Σw, Σw², max w.

    Associatively mergeable (plain sums and a max), so per-context or
    per-chunk diagnostics pool exactly like the telemetry counters.
    ``count`` includes *every* weighted sample — in the traffic layer
    that is every proposal-law encounter, not only the ones that became
    incidents, because each carries information about the tilt quality.
    """

    count: int = 0
    weight_sum: float = 0.0
    weight_sq_sum: float = 0.0
    max_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        for name in ("weight_sum", "weight_sq_sum", "max_weight"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value}")

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "WeightDiagnostics":
        weights = np.asarray(weights, dtype=float)
        if weights.size == 0:
            return cls()
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and >= 0")
        return cls(count=int(weights.size),
                   weight_sum=float(np.sum(weights)),
                   weight_sq_sum=float(np.sum(weights ** 2)),
                   max_weight=float(np.max(weights)))

    def merged(self, other: "WeightDiagnostics") -> "WeightDiagnostics":
        return WeightDiagnostics(
            count=self.count + other.count,
            weight_sum=self.weight_sum + other.weight_sum,
            weight_sq_sum=self.weight_sq_sum + other.weight_sq_sum,
            max_weight=max(self.max_weight, other.max_weight))

    @classmethod
    def merge_many(cls, parts: Iterable["WeightDiagnostics"],
                   ) -> "WeightDiagnostics":
        merged = cls()
        for part in parts:
            merged = merged.merged(part)
        return merged

    @property
    def ess(self) -> float:
        """Effective sample size ``(Σw)² / Σw²`` (0 for an empty set)."""
        if self.weight_sq_sum == 0.0:
            return 0.0
        return self.weight_sum ** 2 / self.weight_sq_sum

    @property
    def ess_fraction(self) -> float:
        """ESS / count — 1.0 for uniform weights, → 0 when degenerate."""
        if self.count == 0:
            return 0.0
        return self.ess / self.count

    @property
    def max_weight_fraction(self) -> float:
        """Largest single weight's share of the total weight."""
        if self.weight_sum == 0.0:
            return 0.0
        return self.max_weight / self.weight_sum

    def check(self, *, min_ess_fraction: float = 0.01,
              max_weight_share: float = 0.5) -> "WeightDiagnostics":
        """Raise :class:`WeightDegeneracyError` on a degenerate ensemble.

        Default gates: the weighted ensemble must be worth at least 1 %
        of its sample count, and no single sample may carry more than
        half the total weight.  Empty ensembles pass (nothing to judge).
        Returns ``self`` so call sites can chain.
        """
        if not (0.0 <= min_ess_fraction <= 1.0):
            raise ValueError("min_ess_fraction must be in [0, 1]")
        if not (0.0 < max_weight_share <= 1.0):
            raise ValueError("max_weight_share must be in (0, 1]")
        if self.count == 0:
            return self
        if self.ess_fraction < min_ess_fraction:
            self._journal_alarm("ess_collapse",
                                threshold=min_ess_fraction)
            raise WeightDegeneracyError(
                f"importance weights are degenerate: ESS "
                f"{self.ess:.1f} of {self.count} samples "
                f"({self.ess_fraction:.2%} < {min_ess_fraction:.2%}) — "
                f"the proposal tilt is too aggressive for this workload",
                self)
        if self.max_weight_fraction > max_weight_share:
            self._journal_alarm("weight_concentration",
                                threshold=max_weight_share)
            raise WeightDegeneracyError(
                f"one sample carries {self.max_weight_fraction:.1%} of the "
                f"total importance weight (> {max_weight_share:.0%}) — "
                f"error bars on this estimate are unreliable", self)
        return self

    def _journal_alarm(self, reason: str, *, threshold: float) -> None:
        """Flight-recorder leg of a degeneracy gate trip.

        The alarm lands in the journal *before* the typed raise, so an
        aborted accelerated campaign still carries the diagnostics that
        killed it (a no-op without an active journal).
        """
        from ..obs.events import journal_event  # lazy: keep stats light
        journal_event("degeneracy.alarm", reason=reason,
                      threshold=float(threshold), **self.to_dict())

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "weight_sum": self.weight_sum,
            "weight_sq_sum": self.weight_sq_sum,
            "max_weight": self.max_weight,
            "ess": self.ess,
            "ess_fraction": self.ess_fraction,
            "max_weight_fraction": self.max_weight_fraction,
        }


# ---------------------------------------------------------------------------
# Exact log-likelihood ratios for the tilted families the traffic layer
# draws from.  Each mirrors the *sampling code* of its distribution —
# clamps and floors introduce point masses, and the ratio at an atom is
# the ratio of the atom probabilities, not of densities.
# ---------------------------------------------------------------------------

ArrayLike = Union[float, np.ndarray]


def normal_cdf(x: ArrayLike) -> ArrayLike:
    """Standard normal CDF via ``erfc`` (no scipy needed on hot paths).

    ``0.5·erfc(-x/√2)`` rather than ``0.5·(1 + erf(x/√2))``: the erf form
    cancels catastrophically in the lower tail, and tail masses are
    exactly what the clamp-atom likelihood ratios divide.
    """
    if isinstance(x, np.ndarray):
        # np has no erfc; vectorise the math one (weight paths are short).
        return np.vectorize(lambda v: 0.5 * math.erfc(-v / _SQRT2),
                            otypes=[float])(x)
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_log_ratio(x: ArrayLike, *, mean_p: float, mean_q: float,
                     std: float) -> ArrayLike:
    """``log N(x; mean_p, std) - log N(x; mean_q, std)`` (shared std).

    The normalising constants cancel, so this is exact in one subtraction
    — the building block for mean-shift tilts.
    """
    if std <= 0:
        raise ValueError("std must be positive")
    x = np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else x
    return (-((x - mean_p) ** 2) + (x - mean_q) ** 2) / (2.0 * std ** 2)


def clamped_lognormal_log_ratio(x: ArrayLike, *, mu_p: float, mu_q: float,
                                sigma: float, clamp: float) -> ArrayLike:
    """Log-LR for ``max(Lognormal(mu, sigma), clamp)`` under a ``mu`` shift.

    The sampler clamps from below, so the law has an atom at ``clamp``
    with mass ``Φ((ln clamp - mu)/sigma)``; samples *at* the clamp are
    reweighted by the atom-mass ratio, samples above by the density
    ratio (whose ``1/(xσ√2π)`` factor cancels).  Matches
    :meth:`repro.traffic.encounters.EncounterGenerator.sample_class_batch`
    exactly.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if clamp <= 0:
        raise ValueError("clamp must be positive")
    log_clamp = math.log(clamp)
    atom_p = normal_cdf((log_clamp - mu_p) / sigma)
    atom_q = normal_cdf((log_clamp - mu_q) / sigma)
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.size and np.any(x < clamp):
            raise ValueError(f"samples below the clamp {clamp} are "
                             f"impossible under this law")
        log_x = np.log(np.maximum(x, clamp))  # guard: x==clamp exact
        density = normal_log_ratio(log_x, mean_p=mu_p, mean_q=mu_q,
                                   std=sigma)
        return _with_atom_ratio(x == clamp, atom_p, atom_q, density)
    if x < clamp:
        raise ValueError(f"samples below the clamp {clamp} are impossible "
                         f"under this law")
    if x == clamp:
        return _log_mass_ratio(atom_p, atom_q)
    return normal_log_ratio(math.log(x), mean_p=mu_p, mean_q=mu_q,
                            std=sigma)


def floored_normal_log_ratio(x: ArrayLike, *, mean_p: float, mean_q: float,
                             std: float) -> ArrayLike:
    """Log-LR for ``max(Normal(mean, std), 0)`` under a mean shift.

    The floor puts an atom at 0 with mass ``Φ(-mean/std)``; the ratio at
    the atom is the mass ratio, above it the density ratio.  A zero
    ``std`` means the law is a point mass — only an *identity* tilt is
    well defined there, and the ratio is 0 everywhere.
    """
    if std < 0:
        raise ValueError("std must be >= 0")
    if std == 0.0:
        if mean_p != mean_q:
            raise ValueError("a zero-std (point-mass) speed law cannot be "
                             "tilted: nominal and proposal means differ")
        return np.zeros_like(x, dtype=float) if isinstance(x, np.ndarray) \
            else 0.0
    atom_p = normal_cdf(-mean_p / std)
    atom_q = normal_cdf(-mean_q / std)
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.size and np.any(x < 0):
            raise ValueError("samples below the floor 0 are impossible "
                             "under this law")
        density = normal_log_ratio(x, mean_p=mean_p, mean_q=mean_q, std=std)
        return _with_atom_ratio(x == 0.0, atom_p, atom_q, density)
    if x < 0:
        raise ValueError("samples below the floor 0 are impossible under "
                         "this law")
    if x == 0.0:
        return _log_mass_ratio(atom_p, atom_q)
    return normal_log_ratio(x, mean_p=mean_p, mean_q=mean_q, std=std)


def bernoulli_log_ratio(outcome: Union[bool, np.ndarray], *, p_p: float,
                        p_q: float) -> ArrayLike:
    """Log-LR of a Bernoulli mark under a success-probability tilt.

    ``log(p_p/p_q)`` for a success, ``log((1-p_p)/(1-p_q))`` for a
    failure — the reweighting for rare discrete states proposed more
    often than nominal (e.g. the degraded-braking occupancy tilt).
    """
    for name, p in (("p_p", p_p), ("p_q", p_q)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    if isinstance(outcome, np.ndarray):
        outcome = np.asarray(outcome, dtype=bool)
        result = np.empty(outcome.shape, dtype=float)
        success = _log_mass_ratio(p_p, p_q) if outcome.any() else 0.0
        failure = _log_mass_ratio(1.0 - p_p, 1.0 - p_q) \
            if (~outcome).any() else 0.0
        result[outcome] = success
        result[~outcome] = failure
        return result
    if outcome:
        return _log_mass_ratio(p_p, p_q)
    return _log_mass_ratio(1.0 - p_p, 1.0 - p_q)


def _with_atom_ratio(on_atom: np.ndarray, mass_p: float, mass_q: float,
                     density: np.ndarray) -> np.ndarray:
    """``density`` with the atom's mass ratio on the rows that sit on it.

    The ratio is taken only when some row does: a mean far from the
    atom underflows its mass to 0, an error only for a sample on it.
    """
    atom = _log_mass_ratio(mass_p, mass_q) if on_atom.any() else 0.0
    return np.where(on_atom, atom, density)


def _log_mass_ratio(mass_p: float, mass_q: float) -> float:
    """``log(mass_p / mass_q)`` with the 0-mass conventions spelled out."""
    if mass_q <= 0.0:
        # The proposal cannot produce this atom; a sample here is a bug.
        raise ValueError("sample landed on an atom the proposal gives zero "
                         "mass — inconsistent tilt bookkeeping")
    if mass_p <= 0.0:
        return -math.inf
    return math.log(mass_p) - math.log(mass_q)
