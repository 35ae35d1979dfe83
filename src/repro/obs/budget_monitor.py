"""Live QRN budget-utilisation tracking with Poisson confidence intervals.

The QRN's frequency budgets ``f_I`` (per incident type, Sec. III-B) and
``f_v`` (per consequence class, Sec. III-A) are *quantitative contracts*:
a deployed or simulated fleet must continuously compare its observed
incident stream against them, not wait for a one-shot verification
report.  A :class:`BudgetMonitor` does exactly that:

* it accumulates streamed per-type incident counts and exposure
  (``observe_counts`` may be called once per chunk, per day, per
  campaign — accumulation is associative, exposures ``fsum``-pooled);
* :meth:`utilisation` maps the totals onto the budgets of a
  :class:`~repro.core.safety_goals.SafetyGoalSet` and reports, per
  incident type **and** per consequence class, the utilisation ratio
  ``observed rate / budget`` with exact Poisson confidence intervals
  (:mod:`repro.stats.poisson`); class rates are propagated through the
  contribution splits exactly as Eq. 1 composes them, bounds summed
  term-wise (each marginal bound holds, so the sum bounds the sum —
  the same conservative aggregation as
  :func:`repro.core.verification.verify_against_counts`).

A utilisation of 0.5 means the observed (point) rate consumes half the
budget; an *upper* utilisation above 1 means the campaign cannot yet
demonstrate the budget (cf. ``Verdict.INCONCLUSIVE``); a *point*
utilisation above 1 is a live budget violation.

The monitor is plain bookkeeping — it never touches an RNG stream and
is deliberately independent of the traffic layer: callers classify
records (e.g. via :func:`repro.traffic.incidents.type_counts`) and feed
integer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from ..stats.poisson import rate_confidence_interval
from .events import journal_event

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.safety_goals import SafetyGoalSet

__all__ = ["BudgetUtilisation", "BudgetUtilisationReport", "BudgetMonitor",
           "classified_counts"]


def classified_counts(result, types) -> Dict[str, int]:
    """Classify a ``SimulationResult`` into per-type incident counts.

    The single classification path shared by :meth:`BudgetMonitor.
    observe_result` and the flight recorder's journal entries — using
    one code path is what makes journal replay reproduce the monitor's
    table *exactly*.  Records matching no type are outside every budget
    and dropped (their completeness story belongs to the MECE
    certificate, not to the monitor).
    """
    from ..traffic.records import classify_block_counts  # lazy: avoid cycles

    counts, _ = classify_block_counts(result.record_block, list(types))
    return counts


@dataclass(frozen=True)
class BudgetUtilisation:
    """Utilisation of one frequency budget (incident type or class).

    ``observed`` is the integer event count for incident types; for
    consequence classes it is the *expected* class load propagated
    through contribution splits (generally fractional).  Rates are per
    exposure unit; ``utilisation_*`` are the rates divided by the budget.
    """

    kind: str  # "incident_type" | "consequence_class"
    budget_id: str
    budget_rate: float
    observed: float
    exposure: float
    rate: float
    rate_lower: float
    rate_upper: float
    confidence: float

    @property
    def utilisation(self) -> float:
        return self.rate / self.budget_rate

    @property
    def utilisation_lower(self) -> float:
        return self.rate_lower / self.budget_rate

    @property
    def utilisation_upper(self) -> float:
        return self.rate_upper / self.budget_rate

    @property
    def verdict_uncertainty(self) -> float:
        """CI width while this budget's verdict is still open, else 0.

        A budget is *settled* once its confidence interval no longer
        straddles the budget line: upper utilisation ≤ 1 demonstrates
        compliance, lower utilisation > 1 demonstrates violation.  Until
        then the open question is exactly the utilisation CI width, which
        the adaptive allocation uses as its per-budget score.
        """
        if self.utilisation_upper <= 1.0 or self.utilisation_lower > 1.0:
            return 0.0
        return self.utilisation_upper - self.utilisation_lower

    @property
    def verdict(self) -> str:
        """``"demonstrated"`` / ``"violated"`` / ``"inconclusive"``.

        The same settlement rule as :attr:`verdict_uncertainty`, named:
        the whole CI below the budget line demonstrates compliance, the
        whole CI above it demonstrates violation, anything straddling is
        still open.  The flight recorder journals every transition of
        this value (``budget.verdict`` events), so a journal replay can
        reconstruct when each budget settled.
        """
        if self.utilisation_upper <= 1.0:
            return "demonstrated"
        if self.utilisation_lower > 1.0:
            return "violated"
        return "inconclusive"

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "budget_id": self.budget_id,
            "budget_rate": self.budget_rate,
            "observed": self.observed,
            "exposure": self.exposure,
            "rate": self.rate,
            "rate_lower": self.rate_lower,
            "rate_upper": self.rate_upper,
            "utilisation": self.utilisation,
            "utilisation_lower": self.utilisation_lower,
            "utilisation_upper": self.utilisation_upper,
            "confidence": self.confidence,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class BudgetUtilisationReport:
    """The full per-type / per-class utilisation table at one instant."""

    rows: Tuple[BudgetUtilisation, ...]
    exposure: float
    confidence: float

    def row(self, budget_id: str) -> BudgetUtilisation:
        for row in self.rows:
            if row.budget_id == budget_id:
                return row
        raise KeyError(f"no utilisation row for {budget_id!r}")

    def type_rows(self) -> Tuple[BudgetUtilisation, ...]:
        return tuple(r for r in self.rows if r.kind == "incident_type")

    def class_rows(self) -> Tuple[BudgetUtilisation, ...]:
        return tuple(r for r in self.rows if r.kind == "consequence_class")

    def worst_utilisation(self) -> float:
        """The tightest budget's point utilisation (0 with no rows)."""
        return max((r.utilisation for r in self.rows), default=0.0)

    def verdict_uncertainty(self) -> Dict[str, float]:
        """Per-incident-type unresolved CI width (0 once settled).

        Only type rows contribute — class budgets are split-propagated
        combinations of the same counts, so steering effort by them would
        double-count the underlying types.
        """
        return {r.budget_id: r.verdict_uncertainty for r in self.type_rows()}

    def all_settled(self) -> bool:
        """True once every type budget's verdict no longer straddles 1."""
        return all(u == 0.0 for u in self.verdict_uncertainty().values())

    def to_rows(self) -> List[Dict[str, object]]:
        return [row.to_dict() for row in self.rows]

    def render(self) -> str:
        """Human-readable utilisation table for dossiers / stdout."""
        from ..reporting.tables import render_table  # lazy: avoid cycles

        def fmt(row: BudgetUtilisation) -> List[str]:
            observed = (f"{row.observed:g}" if row.kind == "incident_type"
                        else f"{row.observed:.3g}")
            return [
                row.budget_id,
                observed,
                f"{row.rate:.3g}",
                f"[{row.rate_lower:.3g}, {row.rate_upper:.3g}]",
                f"{row.budget_rate:.3g}",
                f"{row.utilisation:.2%}",
                f"{row.utilisation_upper:.2%}",
            ]

        header = ["budget", "observed", "rate /unit",
                  f"{self.confidence:.0%} CI", "budget rate",
                  "utilisation", "upper util."]
        lines = []
        type_rows = self.type_rows()
        if type_rows:
            lines.append(render_table(
                header, [fmt(r) for r in type_rows],
                title=f"Incident-type budget utilisation (f_I) over "
                      f"{self.exposure:g} exposure units"))
        class_rows = self.class_rows()
        if class_rows:
            lines.append(render_table(
                header, [fmt(r) for r in class_rows],
                title="Consequence-class budget utilisation (f_v, "
                      "split-propagated)"))
        return "\n\n".join(lines)


class BudgetMonitor:
    """Streamed incident counts → live budget utilisation.

    Construct once per campaign from the goal set whose budgets define
    "sufficiently safe", then feed ``observe_counts`` as data arrives.
    Accumulation is associative and order-independent: counts are exact
    integer sums, exposure parts are pooled with ``math.fsum`` at query
    time (the :meth:`SimulationResult.merge_many
    <repro.traffic.simulator.SimulationResult.merge_many>` discipline).
    """

    def __init__(self, goals: "SafetyGoalSet", *, confidence: float = 0.95):
        if not (0.0 < confidence < 1.0):
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self._goals = goals
        self._confidence = confidence
        self._counts: Dict[str, int] = {
            type_id: 0 for type_id in goals.allocation.type_ids}
        self._exposure_parts: List[float] = []
        # Last verdict seen per budget id, so utilisation() can journal
        # only *transitions* (budget.verdict events), not every query.
        self._verdicts: Dict[str, str] = {}

    @property
    def confidence(self) -> float:
        return self._confidence

    @property
    def exposure(self) -> float:
        """Total observed exposure so far (fsum-pooled)."""
        return math.fsum(self._exposure_parts)

    @property
    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def observe_counts(self, counts: Mapping[str, int],
                       exposure: float) -> None:
        """Accumulate one batch of classified counts over ``exposure``.

        Unknown incident-type keys are an error (classification drift
        must fail loudly, as in ``verify_against_counts``); types absent
        from ``counts`` contribute zero events but full exposure.
        """
        if exposure <= 0 or not math.isfinite(exposure):
            raise ValueError(
                f"exposure must be positive and finite, got {exposure}")
        unknown = set(counts) - set(self._counts)
        if unknown:
            raise KeyError(
                f"counts given for unknown incident types: {sorted(unknown)}")
        staged: Dict[str, int] = {}
        for type_id, count in counts.items():
            count = int(count)
            if count < 0:
                raise ValueError(
                    f"count for {type_id!r} must be >= 0, got {count}")
            staged[type_id] = count
        # Validate-then-commit, so a bad batch cannot half-apply.
        for type_id, count in staged.items():
            self._counts[type_id] += count
        self._exposure_parts.append(float(exposure))

    def observe_result(self, result, types) -> None:
        """Convenience: classify a ``SimulationResult`` and accumulate it.

        ``types`` are the incident types backing the goal set; records
        matching none are outside every budget and ignored here (their
        completeness story belongs to the MECE certificate, not to the
        monitor).
        """
        self.observe_counts(classified_counts(result, types), result.hours)

    def utilisation(self) -> BudgetUtilisationReport:
        """The utilisation table for everything observed so far."""
        exposure = self.exposure
        if exposure <= 0:
            raise ValueError("no exposure observed yet — feed "
                             "observe_counts() before asking for a report")
        confidence = self._confidence
        rows: List[BudgetUtilisation] = []
        estimates = {}
        for goal in self._goals:
            count = self._counts[goal.type_id]
            estimate = rate_confidence_interval(count, exposure, confidence)
            estimates[goal.type_id] = estimate
            rows.append(BudgetUtilisation(
                kind="incident_type", budget_id=goal.type_id,
                budget_rate=goal.max_frequency.rate,
                observed=float(count), exposure=exposure,
                rate=estimate.point, rate_lower=estimate.lower,
                rate_upper=estimate.upper, confidence=confidence))
        allocation = self._goals.allocation
        norm = self._goals.norm
        for class_id in norm.class_ids:
            budget = norm.budget(class_id).rate
            load = 0.0
            lower = 0.0
            upper = 0.0
            observed = 0.0
            for itype in allocation.types:
                fraction = itype.split.fraction(class_id)
                if fraction == 0.0:
                    continue
                estimate = estimates[itype.type_id]
                observed += fraction * estimate.count
                load += fraction * estimate.point
                lower += fraction * estimate.lower
                upper += fraction * estimate.upper
            rows.append(BudgetUtilisation(
                kind="consequence_class", budget_id=class_id,
                budget_rate=budget, observed=observed, exposure=exposure,
                rate=load, rate_lower=lower, rate_upper=upper,
                confidence=confidence))
        report = BudgetUtilisationReport(rows=tuple(rows), exposure=exposure,
                                         confidence=confidence)
        self._journal_transitions(report)
        return report

    def _journal_transitions(self, report: BudgetUtilisationReport) -> None:
        """Emit a ``budget.verdict`` journal event per verdict change.

        First sight of a budget counts as a transition from ``None`` —
        the journal then carries the complete verdict history, and a
        replay that recomputes the table sees the same transitions.
        A no-op (one global read) without an active journal.
        """
        for row in report.rows:
            previous = self._verdicts.get(row.budget_id)
            verdict = row.verdict
            if verdict == previous:
                continue
            self._verdicts[row.budget_id] = verdict
            journal_event(
                "budget.verdict", budget_id=row.budget_id, kind=row.kind,
                verdict=verdict, previous=previous,
                utilisation=row.utilisation,
                utilisation_lower=row.utilisation_lower,
                utilisation_upper=row.utilisation_upper,
                exposure=report.exposure)
