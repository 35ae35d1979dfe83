"""E13 (ablation) — Sec. VI: the iterative predetermined HARA baseline.

The paper positions the QRN against its authors' own earlier iterative
method [12]: elicit hazardous events, refine the function when
realization is too hard, repeat.  The criticisms: completeness of
situations is still assumed, and convergence is bought with feature
scope.

Paper shape: the iterative loop converges only by restricting operation
(coverage < 1 whenever anything was too hard); on an all-hard problem it
dead-ends; the QRN on the same world keeps full scope because hardness
lands in budget allocation, not scope refinement.
"""

from __future__ import annotations

from repro.core import allocate_lp, derive_safety_goals, example_norm, \
    figure5_incident_types
from repro.core.severity import IsoSeverity
from repro.hara import Asil, ControllabilityClass, RatingModel
from repro.hara.hazard import GuideWord, VehicleFunction
from repro.hara.iterative import asil_threshold_assessor, run_iterative_hara
from repro.hara.situation import SituationCatalog, SituationDimension
from repro.reporting import render_table


def world():
    return SituationCatalog([
        SituationDimension("road", ("urban", "rural", "highway"),
                           (0.5, 0.3, 0.2)),
        SituationDimension("weather", ("clear", "rain", "snow"),
                           (0.6, 0.3, 0.1)),
        SituationDimension("lighting", ("day", "night"), (0.7, 0.3)),
    ])


def rating_model(hard_values):
    def severity(hazard, situation):
        values = {value for _, value in situation.assignment}
        return IsoSeverity.S3 if values & hard_values else IsoSeverity.S1

    return RatingModel(
        severity=severity,
        controllability=lambda hazard, situation: ControllabilityClass.C3,
    )


FUNCTIONS = [VehicleFunction(
    "braking", applicable_guidewords=(GuideWord.NO, GuideWord.LESS,
                                      GuideWord.LATE))]


def test_iterative_convergence_costs_scope(benchmark, save_artifact):
    # With three situational dimensions each situation's time fraction is
    # small, so S3 events land at ASIL C — the team's (assumed) pain
    # threshold here.
    model = rating_model({"snow", "night"})

    def run():
        return run_iterative_hara(FUNCTIONS, world(), model,
                                  asil_threshold_assessor(Asil.C))

    result = benchmark(run)
    assert result.converged
    # Convergence was achieved by restricting operation.
    assert result.final_coverage < 1.0
    assert result.scope_cost() > 0.05
    save_artifact("related_work_iterative", result.summary())


def test_iterative_dead_end_is_possible(benchmark):
    """When hardness is everywhere, refinement runs out of scope to
    give — the structural limit the QRN avoids."""
    everything = {"urban", "rural", "highway", "clear", "rain", "snow",
                  "day", "night"}
    model = rating_model(everything)

    def run():
        return run_iterative_hara(FUNCTIONS, world(), model,
                                  asil_threshold_assessor(Asil.C),
                                  max_rounds=10)

    result = benchmark(run)
    assert not result.converged


def test_qrn_keeps_full_scope(benchmark, save_artifact):
    """The comparison row: the QRN never restricts the ODD to make its
    goals derivable — difficulty shows up as tight budgets instead."""

    def derive():
        norm = example_norm()
        types = list(figure5_incident_types())
        return derive_safety_goals(allocate_lp(norm, types,
                                               objective="max-min"))

    goals = benchmark(derive)
    assert len(goals) == 3

    iterative = run_iterative_hara(
        FUNCTIONS, world(), rating_model({"snow", "night"}),
        asil_threshold_assessor(Asil.C))
    rows = [
        ["iterative HARA [12]",
         str(len(iterative.final_study.merged_safety_goals())),
         f"{iterative.final_coverage:.0%}",
         "assumed (situation catalog)"],
        ["QRN", str(len(goals)), "100%",
         "machine-checked (MECE certificate)"],
    ]
    save_artifact("related_work_comparison", render_table(
        ["method", "safety goals", "operating coverage kept",
         "completeness basis"],
        rows,
        title="Sec. VI: iterative predetermined HARA vs the QRN on one "
              "world"))
