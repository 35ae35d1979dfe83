"""E11 — Sec. III-B: ethical constraints on allocation.

Reproduces the Ego<->Child discussion: an unconstrained optimiser
assigns fatality budget wherever it is cheapest — exactly the outcome
the paper calls "hardly acceptable".  Parity and share-cap constraints
restore exposure-normalised fairness at a measurable cost in total
budget.

Paper shape: unconstrained LP over-allocates to the harder-to-avoid
(cheaper per class unit) group; with RiskParity the protected group's
per-exposure risk is bounded by the reference group's; the constrained
optimum is no larger than the unconstrained one (fairness has a price).
"""

from __future__ import annotations

from repro.core import (ActorClass, ConsequenceClass, ConsequenceScale,
                        ContributionSplit, Frequency, GroupShareCap,
                        IncidentType, QuantitativeRiskNorm, RiskParity,
                        SpeedBand, allocate_lp, audit_allocation)
from repro.core.severity import UnifiedSeverity
from repro.reporting import render_table

CHILD_EXPOSURE = 0.1   # children are 10% of VRU encounters
ADULT_EXPOSURE = 0.9


def child_adult_problem():
    norm = QuantitativeRiskNorm("fatalities", ConsequenceScale([
        ConsequenceClass("vS3", UnifiedSeverity.LIFE_THREATENING,
                         Frequency.per_hour(1e-7)),
    ]))
    adult = IncidentType("Ego<->Adult", ActorClass.EGO, ActorClass.VRU,
                         SpeedBand(0.0, 70.0),
                         ContributionSplit({"vS3": 0.5}))
    # The child type's smaller fatality fraction makes it *cheaper* per
    # budget unit, so an unconstrained optimiser piles budget onto it —
    # the structural bias the paper's ethics discussion targets.
    child = IncidentType("Ego<->Child", ActorClass.EGO, ActorClass.VRU,
                         SpeedBand(70.0, 120.0),
                         ContributionSplit({"vS3": 0.25}))
    return norm, [adult, child]


def test_unconstrained_dumps_risk(benchmark, save_artifact):
    norm, types = child_adult_problem()

    def solve():
        return allocate_lp(norm, types)

    allocation = benchmark(solve)
    child_per_exposure = allocation.budget("Ego<->Child").rate / CHILD_EXPOSURE
    adult_per_exposure = allocation.budget("Ego<->Adult").rate / ADULT_EXPOSURE
    # The failure mode the paper warns about: per encounter, the child
    # group is accepted a higher risk.
    assert child_per_exposure > adult_per_exposure


def test_parity_restores_fairness_at_a_price(benchmark, save_artifact):
    norm, types = child_adult_problem()
    unconstrained = allocate_lp(norm, types)
    parity = RiskParity("Ego<->Child", "Ego<->Adult",
                        CHILD_EXPOSURE, ADULT_EXPOSURE, max_ratio=1.0)

    def solve():
        return allocate_lp(norm, types, constraints=[parity])

    constrained = benchmark(solve)

    child_pe = constrained.budget("Ego<->Child").rate / CHILD_EXPOSURE
    adult_pe = constrained.budget("Ego<->Adult").rate / ADULT_EXPOSURE
    # Shape 1: parity holds.
    assert child_pe <= adult_pe * (1 + 1e-6)
    # Shape 2: the audit confirms it independently of the optimiser.
    assert audit_allocation(constrained.budgets(), types, [parity],
                            norm.budgets()) == []
    # Shape 3: fairness costs total budget (or is free, never a gain).
    assert constrained.total_budget().rate <= \
        unconstrained.total_budget().rate * (1 + 1e-9)

    rows = []
    for tag, allocation in (("unconstrained", unconstrained),
                            ("with parity", constrained)):
        rows.append([
            tag,
            f"{allocation.budget('Ego<->Adult').rate:.3g}",
            f"{allocation.budget('Ego<->Child').rate:.3g}",
            f"{allocation.budget('Ego<->Adult').rate / ADULT_EXPOSURE:.3g}",
            f"{allocation.budget('Ego<->Child').rate / CHILD_EXPOSURE:.3g}",
            f"{allocation.total_budget().rate:.3g}",
        ])
    save_artifact("ethics_parity", render_table(
        ["allocation", "f_Adult (/h)", "f_Child (/h)",
         "adult risk per exposure", "child risk per exposure", "total"],
        rows,
        title="Sec. III-B: the Ego<->Child allocation with and without "
              "risk parity"))


def test_share_cap_equivalent_control(benchmark):
    """Capping the child group's share of the fatality class gives the
    same qualitative protection via a different constraint shape."""
    norm, types = child_adult_problem()
    cap = GroupShareCap(("Ego<->Child",), "vS3",
                        max_share=CHILD_EXPOSURE)

    def solve():
        return allocate_lp(norm, types, constraints=[cap])

    allocation = benchmark(solve)
    child = allocation.type_by_id("Ego<->Child")
    consumed = (allocation.budget("Ego<->Child").rate
                * child.split.fraction("vS3"))
    assert consumed <= CHILD_EXPOSURE * norm.budget("vS3").rate * (1 + 1e-6)
    assert allocation.is_feasible()
