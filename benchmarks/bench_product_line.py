"""E10 — Sec. VII: one risk norm, many variants.

Reproduces the product-line claim: "the same risk norm can be used for
many variants ... while there may be some variability in the frequency
allocation for each incident type the total acceptable risk for each
consequence class will be the same".

Paper shape: every variant's allocation is feasible against the shared
norm; allocations genuinely differ across variants; the per-class budget
ceiling is identical for all.
"""

from __future__ import annotations

from repro.core import (ActorClass, ContributionSplit, IncidentType,
                        LpObjective, ProductLine, SpeedBand, Variant,
                        allocate_lp, allocate_proportional, example_norm,
                        figure5_incident_types)
from repro.reporting import render_table


def variant_types(profile: str):
    """Different variants refine the taxonomy differently."""
    if profile == "urban":
        return list(figure5_incident_types())
    if profile == "highway":
        return [
            IncidentType("H1", ActorClass.EGO, ActorClass.CAR,
                         SpeedBand(0.0, 30.0),
                         ContributionSplit({"vQ3": 0.5, "vS1": 0.4})),
            IncidentType("H2", ActorClass.EGO, ActorClass.CAR,
                         SpeedBand(30.0, 130.0),
                         ContributionSplit({"vS1": 0.3, "vS2": 0.4,
                                            "vS3": 0.3})),
            IncidentType("H3", ActorClass.EGO, ActorClass.TRUCK,
                         SpeedBand(0.0, 130.0),
                         ContributionSplit({"vS2": 0.5, "vS3": 0.4})),
        ]
    if profile == "campus":
        return [
            IncidentType("C1", ActorClass.EGO, ActorClass.VRU,
                         SpeedBand(0.0, 15.0),
                         ContributionSplit({"vS1": 0.8, "vS2": 0.1})),
            IncidentType("C2", ActorClass.EGO, ActorClass.STATIC_OBJECT,
                         SpeedBand(0.0, 30.0),
                         ContributionSplit({"vQ3": 0.9})),
        ]
    raise ValueError(profile)


def build_line():
    norm = example_norm()
    line = ProductLine("family", norm)
    line.add_variant(Variant(
        "urban", allocate_lp(norm, variant_types("urban"),
                             objective=LpObjective.MAX_MIN)))
    line.add_variant(Variant(
        "highway", allocate_lp(norm, variant_types("highway"),
                               objective=LpObjective.MAX_MIN)))
    line.add_variant(Variant(
        "campus", allocate_proportional(norm, variant_types("campus"))))
    return line


def test_product_line_conformance(benchmark, save_artifact):
    line = benchmark(build_line)

    # Shape 1: every variant conformant against the shared norm.
    assert line.all_conformant()

    # Shape 2: allocations genuinely differ (different type sets, and
    # where classes are shared, different loads).
    loads_vs1 = {variant.name: variant.allocation.class_load("vS1").rate
                 for variant in line}
    assert len(set(loads_vs1.values())) > 1

    # Shape 3: the budget ceiling is one and the same object/values.
    spread = line.class_load_spread()
    for class_id, (low, high) in spread.items():
        assert high.within(line.norm.budget(class_id))

    rows = []
    for class_id, (low, high) in spread.items():
        rows.append([class_id, f"{low.rate:.3g}", f"{high.rate:.3g}",
                     f"{line.norm.budget(class_id).rate:.3g}"])
    save_artifact("product_line", line.summary() + "\n\n" + render_table(
        ["class", "min load", "max load", "shared budget"],
        rows,
        title="Sec. VII: loads vary by variant; budgets do not"))


def test_variant_goal_sets_derive_quickly(benchmark):
    line = build_line()

    def derive_all():
        return {variant.name: variant.safety_goals() for variant in line}

    goal_sets = benchmark(derive_all)
    assert {name: len(goals) for name, goals in goal_sets.items()} == \
        {"urban": 3, "highway": 3, "campus": 2}
