"""E16 (ablation) — Sec. IV: scenario analysis inside the solution domain.

"The need to analyze situations/scenarios is confined to the solution
domain, which seems appropriate given that what are relevant situations
is, to a large extent, implementation-dependent" (Sec. VII).

This bench runs the concrete scenario library against tactical policies
and produces the FSC diagnostic the paper sketches: which scenario
consumes how much of which safety-goal budget.

Paper shape: scenario risk is implementation-dependent (collision
probabilities move by an order of magnitude between cautious and
aggressive policies, i.e. the scenario analysis would have been *wrong*
as HARA input); the per-goal budget-consumption breakdown identifies the
dominant scenario per incident type.
"""

from __future__ import annotations

import numpy as np

from repro.core import Frequency, figure5_incident_types
from repro.reporting import render_table
from repro.traffic import (AnimalRunOut, BrakingSystem, CrossingPedestrian,
                           CutIn, LeadVehicleBraking, ObstacleBehindCurve,
                           ScenarioSuite, aggressive_policy,
                           cautious_policy, incident_rate_contributions,
                           nominal_policy, run_scenario)

ALL = [CrossingPedestrian(), LeadVehicleBraking(), CutIn(),
       ObstacleBehindCurve(), AnimalRunOut()]


def test_scenario_risk_is_implementation_dependent(benchmark, save_artifact):
    braking = BrakingSystem()

    def sweep():
        table = {}
        for policy in (cautious_policy(), nominal_policy(),
                       aggressive_policy()):
            for scenario in ALL:
                stats, _ = run_scenario(
                    scenario, policy, braking,
                    np.random.default_rng(41), replications=1200)
                table[(policy.name, scenario.name)] = stats
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Shape: total scenario risk ordered by policy; the spread is large.
    totals = {}
    for policy_name in ("cautious", "nominal", "aggressive"):
        totals[policy_name] = sum(
            table[(policy_name, scenario.name)].collision_probability
            for scenario in ALL)
    assert totals["cautious"] < totals["nominal"] < totals["aggressive"]
    assert totals["aggressive"] > 2 * totals["cautious"]

    rows = []
    for scenario in ALL:
        rows.append([scenario.name] + [
            f"{table[(policy, scenario.name)].collision_probability:.4f}"
            for policy in ("cautious", "nominal", "aggressive")])
    save_artifact("scenarios_policy_dependence", render_table(
        ["scenario", "P(collision) cautious", "nominal", "aggressive"],
        rows,
        title="Sec. IV/VII: scenario risk depends on the implementation — "
              "unusable as HARA input, essential as FSC tool"))


def test_budget_consumption_breakdown(benchmark, save_artifact):
    """The FSC diagnostic: per incident type, which scenario eats the
    budget."""
    suite = ScenarioSuite({
        CrossingPedestrian(): Frequency.per_hour(2.0),
        AnimalRunOut(): Frequency.per_hour(0.2),
        CutIn(): Frequency.per_hour(0.8),
        LeadVehicleBraking(): Frequency.per_hour(0.5),
        ObstacleBehindCurve(): Frequency.per_hour(0.1),
    })
    types = list(figure5_incident_types())

    def analyse():
        evaluation = suite.evaluate(nominal_policy(), BrakingSystem(),
                                    np.random.default_rng(43),
                                    replications=1500)
        return incident_rate_contributions(suite, evaluation, types)

    contributions = benchmark.pedantic(analyse, rounds=1, iterations=1)

    # Shape 1: the VRU goals are driven by the pedestrian scenario only
    # (the taxonomy keeps scenario attribution clean).
    for type_id in ("I1", "I2", "I3"):
        assert set(contributions[type_id]) <= {"crossing-pedestrian"}
    # Shape 2: something does land on the collision goals.
    assert contributions["I2"] or contributions["I3"]

    rows = []
    for type_id, per_scenario in contributions.items():
        if not per_scenario:
            rows.append([type_id, "—", "0"])
            continue
        for scenario_name, rate in sorted(per_scenario.items(),
                                          key=lambda kv: -kv[1]):
            rows.append([type_id, scenario_name, f"{rate:.3g}"])
    save_artifact("scenarios_budget_consumption", render_table(
        ["incident type", "contributing scenario", "expected rate (/h)"],
        rows,
        title="FSC diagnostic: expected budget consumption per scenario "
              "(nominal policy; VRU incident types)"))
