"""Poisson rate estimation and demonstration statistics.

The QRN turns safety assurance into claims about *rates*: each safety goal
asserts an incident type occurs below ``f_I``.  Verifying such a claim from
operation or simulation is classical Poisson inference — incidents are rare
point events over exposure (operating hours).  This module provides:

* exact (gamma-quantile) confidence intervals for a Poisson rate;
* one-sided upper bounds — the safety-relevant direction (the claim
  "rate ≤ budget" is demonstrated when the *upper* confidence bound fits);
* demonstration planning: how much exposure is needed to demonstrate a
  budget, and the power of a demonstration campaign given a true rate.

These are the quantitative teeth behind Sec. V's "traditional mathematical
quantitative rules".

The gamma quantile and the Poisson CDF are the ``scipy.special`` functions
``scipy.stats`` evaluates for them (``gamma.ppf(q, a) == gammaincinv(a,
q)``, ``poisson.cdf(k, mu) == pdtr(k, mu)``, bit for bit), imported where
they are called, because importing ``scipy.stats`` costs ≈1 s (DESIGN §16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RateEstimate",
    "rate_mle",
    "rate_confidence_interval",
    "rate_upper_bound",
    "rate_lower_bound",
    "exposure_to_demonstrate",
    "demonstration_power",
    "max_acceptable_count",
]


def _check_inputs(count: int, exposure: float) -> None:
    if count < 0 or count != int(count):
        raise ValueError(f"count must be a non-negative integer, got {count}")
    if not (exposure > 0 and math.isfinite(exposure)):
        raise ValueError(f"exposure must be positive and finite, got {exposure}")


def _check_confidence(confidence: float) -> None:
    if not (0 < confidence < 1):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def _gamma_quantile(q: float, shape: float) -> float:
    """The ``q`` quantile of a unit-scale Gamma(``shape``) variable."""
    from scipy.special import gammaincinv

    return float(gammaincinv(shape, q))


@dataclass(frozen=True)
class RateEstimate:
    """A rate estimate with exact two-sided confidence bounds.

    ``point`` is the MLE ``count / exposure``; ``lower``/``upper`` the
    equal-tailed exact interval at ``confidence``.  All in events per one
    exposure unit.
    """

    count: int
    exposure: float
    point: float
    lower: float
    upper: float
    confidence: float

    def width_decades(self) -> float:
        """Interval width in decades; ``inf`` when the lower bound is 0."""
        if self.lower <= 0:
            return math.inf
        return math.log10(self.upper / self.lower)


def rate_mle(count: int, exposure: float) -> float:
    """Maximum-likelihood rate estimate ``count / exposure``."""
    _check_inputs(count, exposure)
    return count / exposure


def rate_upper_bound(count: int, exposure: float, confidence: float = 0.95) -> float:
    """Exact one-sided upper confidence bound for a Poisson rate.

    ``UCB = gammaincinv(count + 1, confidence) / exposure`` — for zero
    observed events this is the familiar ``-ln(1 - confidence)/exposure``
    ("rule of three" at 95 %: ≈ 3/exposure).
    """
    _check_inputs(count, exposure)
    _check_confidence(confidence)
    return _gamma_quantile(confidence, count + 1) / exposure


def rate_lower_bound(count: int, exposure: float, confidence: float = 0.95) -> float:
    """Exact one-sided lower confidence bound (0 when no events observed)."""
    _check_inputs(count, exposure)
    _check_confidence(confidence)
    if count == 0:
        return 0.0
    return _gamma_quantile(1.0 - confidence, count) / exposure


def rate_confidence_interval(count: int, exposure: float,
                             confidence: float = 0.95) -> RateEstimate:
    """Exact equal-tailed two-sided interval for a Poisson rate."""
    _check_inputs(count, exposure)
    _check_confidence(confidence)
    alpha = 1.0 - confidence
    lower = 0.0
    if count > 0:
        lower = _gamma_quantile(alpha / 2.0, count) / exposure
    upper = _gamma_quantile(1.0 - alpha / 2.0, count + 1) / exposure
    return RateEstimate(count=count, exposure=exposure,
                        point=count / exposure,
                        lower=lower, upper=upper, confidence=confidence)


def exposure_to_demonstrate(budget_rate: float, confidence: float = 0.95,
                            observed_count: int = 0) -> float:
    """Exposure needed so ``observed_count`` events still demonstrate a budget.

    The minimum exposure ``T`` with ``rate_upper_bound(count, T) <=
    budget_rate``.  For zero events at 95 % this is ≈ ``3 / budget_rate``
    — e.g. demonstrating a 1e-8/h fatality budget needs ≈ 3e8 incident-free
    hours, the well-known ADS validation burden that motivates
    simulation-supported arguments.
    """
    if budget_rate <= 0:
        raise ValueError("budget rate must be positive")
    _check_confidence(confidence)
    if observed_count < 0:
        raise ValueError("observed_count must be >= 0")
    return _gamma_quantile(confidence, observed_count + 1) / budget_rate


def max_acceptable_count(budget_rate: float, exposure: float,
                         confidence: float = 0.95) -> int:
    """Largest event count whose UCB still fits within the budget.

    Returns -1 when even zero events cannot demonstrate the budget at this
    exposure (the campaign is too short for any verdict).
    """
    if budget_rate <= 0:
        raise ValueError("budget rate must be positive")
    _check_inputs(0, exposure)
    _check_confidence(confidence)
    limit = budget_rate * exposure
    if _gamma_quantile(confidence, 1) > limit:
        return -1
    # The quantile grows ~linearly in n; binary search the cutoff.
    low, high = 0, max(8, int(2 * limit) + 8)
    while _gamma_quantile(confidence, high + 1) <= limit:
        high *= 2
    while low < high:
        mid = (low + high + 1) // 2
        if _gamma_quantile(confidence, mid + 1) <= limit:
            low = mid
        else:
            high = mid - 1
    return low


def demonstration_power(true_rate: float, budget_rate: float, exposure: float,
                        confidence: float = 0.95) -> float:
    """Probability a campaign demonstrates the budget, given the true rate.

    ``P[N ≤ n*]`` with ``N ~ Poisson(true_rate · exposure)`` and ``n*`` the
    :func:`max_acceptable_count`.  Used to plan verification effort: even a
    genuinely compliant system (true rate below budget) may fail to
    *demonstrate* compliance if exposure is too small.
    """
    if true_rate < 0:
        raise ValueError("true rate must be >= 0")
    cutoff = max_acceptable_count(budget_rate, exposure, confidence)
    if cutoff < 0:
        return 0.0
    from scipy.special import pdtr

    return float(pdtr(cutoff, true_rate * exposure))
