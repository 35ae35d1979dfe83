"""Norm-fulfilment verification against observed incident data.

The design-time side of the QRN (allocation, Eq. 1) says the *budgets* are
coherent; this module checks the *system* against the budgets, turning
observed incident counts over exposure into statistical verdicts:

* per safety goal: is the incident type's rate demonstrably below its
  allocated ``f_I``?
* per consequence class: does the total induced consequence rate fit the
  class budget — either propagated through contribution splits from type
  counts, or checked directly from observed consequence counts?

Verdicts are three-valued.  ``DEMONSTRATED`` means the one-sided upper
confidence bound fits under the budget; ``VIOLATED`` means even the point
estimate exceeds it; ``INCONCLUSIVE`` is the honest in-between, where more
exposure is needed (the report says how much).  This mirrors how a real
quantitative safety case must treat field data — absence of evidence is
not evidence of absence.

It is the package's one verdict rule: ``verify``, ``review``, the
dossier, and a campaign's manifest, ``status.json`` and ``budget.verdict``
journal events all read a :class:`VerificationReport`
(:meth:`VerificationReport.to_rows` is its table form).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..stats.poisson import (exposure_to_demonstrate, rate_mle,
                             rate_upper_bound)
from .allocation import Allocation
from .quantities import Frequency
from .safety_goals import SafetyGoalSet

__all__ = [
    "Verdict",
    "GoalVerdict",
    "ClassVerdict",
    "VerificationReport",
    "verify_against_counts",
    "verify_class_counts",
    "supportable_tightening",
]


class Verdict(enum.Enum):
    """Outcome of a statistical conformance check."""

    DEMONSTRATED = "demonstrated"
    """Upper confidence bound fits within the budget."""

    INCONCLUSIVE = "inconclusive"
    """Point estimate fits but the confidence bound does not — more
    exposure needed."""

    VIOLATED = "violated"
    """Even the point estimate exceeds the budget."""


def _judge(count: int, exposure_units: float, budget: Frequency,
           confidence: float) -> Tuple[Verdict, float, float]:
    """Return (verdict, point rate, upper bound) for one budget check."""
    point = rate_mle(count, exposure_units)
    upper = rate_upper_bound(count, exposure_units, confidence)
    if point > budget.rate * (1 + 1e-9):
        return Verdict.VIOLATED, point, upper
    if upper <= budget.rate * (1 + 1e-9):
        return Verdict.DEMONSTRATED, point, upper
    return Verdict.INCONCLUSIVE, point, upper


@dataclass(frozen=True)
class GoalVerdict:
    """Statistical verdict for one safety goal."""

    goal_id: str
    type_id: str
    budget: Frequency
    observed_count: int
    exposure: float
    point_rate: float
    upper_bound: float
    verdict: Verdict
    confidence: float

    @property
    def margin_decades(self) -> float:
        """How many decades of headroom the upper bound leaves (may be < 0)."""
        if self.upper_bound <= 0:
            return math.inf
        return math.log10(self.budget.rate / self.upper_bound)

    def additional_exposure_needed(self) -> float:
        """Extra exposure to demonstrate, assuming no further events.

        Zero when already demonstrated; ``inf`` when violated (no amount of
        clean exposure rescues a point estimate above budget without the
        count staying fixed — the returned figure assumes it does).
        """
        if self.verdict is Verdict.DEMONSTRATED:
            return 0.0
        needed = exposure_to_demonstrate(self.budget.rate, self.confidence,
                                         self.observed_count)
        return max(0.0, needed - self.exposure)


@dataclass(frozen=True)
class ClassVerdict:
    """Statistical verdict for one consequence class (Eq. 1 at run time)."""

    class_id: str
    budget: Frequency
    expected_load: float
    upper_bound: float
    verdict: Verdict
    confidence: float


@dataclass(frozen=True)
class VerificationReport:
    """Joint verdict over all goals and consequence classes."""

    goal_verdicts: Tuple[GoalVerdict, ...]
    class_verdicts: Tuple[ClassVerdict, ...]
    exposure: float
    confidence: float

    @property
    def all_demonstrated(self) -> bool:
        return (all(g.verdict is Verdict.DEMONSTRATED for g in self.goal_verdicts)
                and all(c.verdict is Verdict.DEMONSTRATED for c in self.class_verdicts))

    @property
    def any_violated(self) -> bool:
        return (any(g.verdict is Verdict.VIOLATED for g in self.goal_verdicts)
                or any(c.verdict is Verdict.VIOLATED for c in self.class_verdicts))

    def goal(self, goal_id: str) -> GoalVerdict:
        for verdict in self.goal_verdicts:
            if verdict.goal_id == goal_id:
                return verdict
        raise KeyError(f"no verdict for goal {goal_id!r}")

    def consequence_class(self, class_id: str) -> ClassVerdict:
        for verdict in self.class_verdicts:
            if verdict.class_id == class_id:
                return verdict
        raise KeyError(f"no verdict for class {class_id!r}")

    def summary(self) -> str:
        lines = [f"Verification over {self.exposure:g} exposure units at "
                 f"{self.confidence:.0%} confidence"]
        for g in self.goal_verdicts:
            lines.append(
                f"  {g.goal_id}: {g.observed_count} events, rate "
                f"{g.point_rate:.3g} (UCB {g.upper_bound:.3g}) vs budget "
                f"{g.budget} → {g.verdict.value.upper()}")
        for c in self.class_verdicts:
            lines.append(
                f"  {c.class_id}: expected load {c.expected_load:.3g} "
                f"(UCB {c.upper_bound:.3g}) vs budget {c.budget} → "
                f"{c.verdict.value.upper()}")
        overall = ("ALL DEMONSTRATED" if self.all_demonstrated
                   else "VIOLATIONS PRESENT" if self.any_violated
                   else "INCONCLUSIVE")
        lines.append(f"Overall: {overall}")
        return "\n".join(lines)

    def to_rows(self) -> List[Dict[str, object]]:
        """One plain row per incident type, then one per consequence class.

        The JSON form of every budget table a campaign writes: the run
        manifest, ``status.json`` and the ``budget.verdict`` journal
        events.  ``observed`` is a type's event count, or a class's
        split-propagated expected count (load × exposure); the
        ``utilisation`` fields are the rate and its one-sided upper
        bound divided by the budget.
        """
        def row(kind: str, budget_id: str, budget: Frequency,
                observed: float, rate: float, upper: float,
                verdict: Verdict) -> Dict[str, object]:
            return {
                "kind": kind,
                "budget_id": budget_id,
                "budget_rate": budget.rate,
                "observed": observed,
                "exposure": self.exposure,
                "rate": rate,
                "rate_upper": upper,
                "utilisation": rate / budget.rate,
                "utilisation_upper": upper / budget.rate,
                "confidence": self.confidence,
                "verdict": verdict.value,
            }

        return ([row("incident_type", g.type_id, g.budget,
                     float(g.observed_count), g.point_rate, g.upper_bound,
                     g.verdict) for g in self.goal_verdicts]
                + [row("consequence_class", c.class_id, c.budget,
                       c.expected_load * self.exposure, c.expected_load,
                       c.upper_bound, c.verdict)
                   for c in self.class_verdicts])


def verify_against_counts(goals: SafetyGoalSet,
                          counts: Mapping[str, int],
                          exposure: float,
                          *, confidence: float = 0.95) -> VerificationReport:
    """Verify every SG and class budget from per-type incident counts.

    ``counts`` maps incident-type id to observed occurrences over
    ``exposure`` (in the norm's exposure unit).  Types absent from
    ``counts`` are treated as zero observed events — but *unknown* keys in
    ``counts`` are an error, catching classification drift between the
    data pipeline and the goal set.

    Class verdicts are computed by propagating each type's observed count
    through its contribution split: the expected class load is
    ``Σ_k split_k[j] · count_k / exposure`` and its upper bound uses the
    conservative aggregation ``Σ_k split_k[j] · UCB_k`` (each term's bound
    holds marginally, so the sum bounds the sum).
    """
    if exposure <= 0 or not math.isfinite(exposure):
        raise ValueError(f"exposure must be positive and finite, got {exposure}")
    allocation = goals.allocation
    known = set(allocation.type_ids)
    unknown = set(counts) - known
    if unknown:
        raise KeyError(f"counts given for unknown incident types: {sorted(unknown)}")

    goal_verdicts = []
    upper_by_type: Dict[str, float] = {}
    point_by_type: Dict[str, float] = {}
    for goal in goals:
        count = int(counts.get(goal.type_id, 0))
        verdict, point, upper = _judge(count, exposure, goal.max_frequency,
                                       confidence)
        upper_by_type[goal.type_id] = upper
        point_by_type[goal.type_id] = point
        goal_verdicts.append(GoalVerdict(
            goal_id=goal.goal_id, type_id=goal.type_id,
            budget=goal.max_frequency, observed_count=count,
            exposure=exposure, point_rate=point, upper_bound=upper,
            verdict=verdict, confidence=confidence))

    class_verdicts = []
    for class_id in goals.norm.class_ids:
        budget = goals.norm.budget(class_id)
        load = sum(
            itype.split.fraction(class_id) * point_by_type[itype.type_id]
            for itype in allocation.types)
        upper = sum(
            itype.split.fraction(class_id) * upper_by_type[itype.type_id]
            for itype in allocation.types)
        if load > budget.rate * (1 + 1e-9):
            verdict = Verdict.VIOLATED
        elif upper <= budget.rate * (1 + 1e-9):
            verdict = Verdict.DEMONSTRATED
        else:
            verdict = Verdict.INCONCLUSIVE
        class_verdicts.append(ClassVerdict(
            class_id=class_id, budget=budget, expected_load=load,
            upper_bound=upper, verdict=verdict, confidence=confidence))

    return VerificationReport(tuple(goal_verdicts), tuple(class_verdicts),
                              exposure, confidence)


def verify_class_counts(allocation: Allocation,
                        class_counts: Mapping[str, int],
                        exposure: float,
                        *, confidence: float = 0.95,
                        ) -> Tuple[ClassVerdict, ...]:
    """Verify class budgets from directly observed consequence counts.

    The complement of :func:`verify_against_counts`: when field data
    records actual consequences (injury outcomes) rather than incident
    classifications, each class budget is checked as a plain Poisson rate
    claim with no split propagation.
    """
    if exposure <= 0 or not math.isfinite(exposure):
        raise ValueError(f"exposure must be positive and finite, got {exposure}")
    unknown = set(class_counts) - set(allocation.norm.class_ids)
    if unknown:
        raise KeyError(f"counts given for unknown classes: {sorted(unknown)}")
    verdicts = []
    for class_id in allocation.norm.class_ids:
        budget = allocation.norm.budget(class_id)
        count = int(class_counts.get(class_id, 0))
        verdict, point, upper = _judge(count, exposure, budget, confidence)
        verdicts.append(ClassVerdict(
            class_id=class_id, budget=budget, expected_load=point,
            upper_bound=upper, verdict=verdict, confidence=confidence))
    return tuple(verdicts)


def supportable_tightening(report: VerificationReport) -> float:
    """The largest uniform norm-tightening factor this evidence supports.

    The what-if question behind Sec. III-A's acceptance corridor: given
    the campaign's upper confidence bounds, by how much could every
    budget be multiplied (factor < 1 = tightened) with all goals and
    classes still DEMONSTRATED?  Formally::

        factor = max_j UCB_j / budget_j     over goals and classes

    A value above 1 means even the current norm is not demonstrated by
    this evidence; a value of 0.1 means society could have demanded a
    10x stricter norm and this campaign would still support it.  Returns
    ``inf`` when any budget is zero with a nonzero bound.
    """
    worst = 0.0
    for verdict in report.goal_verdicts:
        budget = verdict.budget.rate
        if budget <= 0.0:
            if verdict.upper_bound > 0.0:
                return math.inf
            continue
        worst = max(worst, verdict.upper_bound / budget)
    for verdict in report.class_verdicts:
        budget = verdict.budget.rate
        if budget <= 0.0:
            if verdict.upper_bound > 0.0:
                return math.inf
            continue
        worst = max(worst, verdict.upper_bound / budget)
    return worst
