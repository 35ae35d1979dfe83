"""E7 — Sec. II-B-3: exposure is an output of tactical design.

The paper's braking worked example, run in the simulator: sweep tactical
proactivity and measure how often the physical situation 'needs to brake
harder than 4 m/s²' arises.  A conventional HARA would rate that
situation's exposure at design time; here its E-class flips with the
design under analysis (the circularity of Sec. II-B-2/3).  The QRN goals,
phrased over incidents, never move.

Paper shape: hard-braking-demand frequency falls monotonically (and by
orders of magnitude end-to-end) as proactivity rises; the derived HARA
exposure class drops at least one level across the sweep; capability
awareness neutralises the 4 m/s² degraded-braking fault.
"""

from __future__ import annotations

import numpy as np

from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                        figure5_incident_types)
from repro.hara.exposure import exposure_from_rate_per_hour
from repro.reporting import render_table
from repro.traffic import (BrakingSystem, EncounterGenerator,
                           default_context_profiles, default_perception,
                           nominal_policy, simulate_mix)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
HOURS = 1500.0
EPISODE_H = 10.0 / 3600.0

STANCES = [
    ("reactive", 0.0, 0.0, 1.4),
    ("nominal", 0.3, 0.6, 0.7),
    ("very-proactive", 0.7, 0.95, 0.45),
]


def sweep(seed: int = 7):
    world = EncounterGenerator(default_context_profiles())
    results = {}
    for label, slowdown, cue, sight in STANCES:
        policy = nominal_policy().with_proactivity(
            slowdown, cue, sight_margin=sight, name=label)
        run = simulate_mix(policy, world, default_perception(),
                           BrakingSystem(), MIX, HOURS,
                           np.random.default_rng(seed))
        results[label] = run
    return results


def test_tactical_proactivity_sweep(benchmark, save_artifact):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    demand = {label: run.hard_braking_rate_per_hour()
              for label, run in results.items()}
    exposure = {label: exposure_from_rate_per_hour(rate, EPISODE_H)
                for label, rate in demand.items()}

    # Shape 1: demand falls monotonically with proactivity.
    assert demand["reactive"] > demand["nominal"] > demand["very-proactive"]
    # Shape 2: by a large factor end to end.
    assert demand["reactive"] > 20 * demand["very-proactive"]
    # Shape 3: the HARA exposure class flips across the sweep.
    assert exposure["very-proactive"] < exposure["reactive"]

    rows = [[label, f"{demand[label]:.4f}", f"E{int(exposure[label])}",
             f"{run.collision_rate_per_hour():.2e}"]
            for label, run in results.items()]
    save_artifact("tactical_exposure", render_table(
        ["stance", ">4 m/s² demands per h", "derived HARA E-class",
         "collision rate (/h)"],
        rows,
        title="Sec. II-B-3: the exposure rating is a function of the "
              "design being analysed"))


def test_qrn_goals_policy_invariant(benchmark):
    """The QRN side of the argument: same goals whatever the policy."""

    def derive_twice():
        norm = example_norm()
        types = list(figure5_incident_types())
        return (derive_safety_goals(allocate_lp(norm, types)),
                derive_safety_goals(allocate_lp(norm, types)))

    goals_a, goals_b = benchmark(derive_twice)
    assert [g.max_frequency for g in goals_a] == \
        [g.max_frequency for g in goals_b]
    for goal in goals_a:
        text = goal.render().lower()
        assert "braking" not in text and "m/s" not in text


def test_capability_awareness_neutralises_fault(benchmark, save_artifact):
    """The 4 m/s² degraded-braking example (Sec. II-B-3)."""
    world = EncounterGenerator(default_context_profiles())

    def run_pair():
        out = {}
        for aware in (True, False):
            system = BrakingSystem(degraded_ms2=2.0,
                                   degradation_occupancy=0.5,
                                   reports_capability=aware)
            out[aware] = simulate_mix(
                nominal_policy(), world, default_perception(), system, MIX,
                1000.0, np.random.default_rng(23))
        return out

    runs = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    aware_rate = runs[True].collision_rate_per_hour()
    blind_rate = runs[False].collision_rate_per_hour()
    assert aware_rate <= blind_rate
    save_artifact("capability_awareness", "\n".join([
        "Degraded braking (2 m/s² fault, 50% occupancy):",
        f"  capability-aware policy: {aware_rate:.2e} collisions/h",
        f"  capability-blind policy: {blind_rate:.2e} collisions/h",
        "",
        "With awareness, no absolute braking capability needs to be "
        "safety-critical (Sec. II-B-3).",
    ]))
