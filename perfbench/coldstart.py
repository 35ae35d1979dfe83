"""Make one workload ready: import what its first op needs, build its inputs.

Run as a fresh interpreter (``python3 perfbench/coldstart.py WORKLOAD``)
this is one cold start of the benchmark's ``setup_s`` metric: it prints
``ready`` once the workload could start its first op and exits.
``run.py`` calls :func:`prepare` in-process for its own set-up, so both
build the same inputs through the same public functions.
"""

from __future__ import annotations

import sys

#: The packages each workload's first op imports (lazily imported
#: modules included, so the op itself imports nothing new).
IMPORTS = {
    "cli-session": ("repro.cli", "repro.core"),
    "campaign": ("repro.cli", "repro.traffic", "repro.core", "repro.obs"),
    "campaign-durable": ("repro.cli", "repro.traffic", "repro.core",
                         "repro.obs", "repro.reporting",
                         "repro.testing.chaos"),
    "rare-event": ("repro.traffic",),
}

SIM_SCALE = 1e4
"""Norm relaxation of the CLI's sim-scale goal set (``--scale`` default)."""


def sim_scale_goals():
    """The sim-scale goal set and incident types, from public functions."""
    from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                            figure4_taxonomy, figure5_incident_types)

    norm = example_norm().tightened(SIM_SCALE, name="sim-scale QRN")
    types = list(figure5_incident_types())
    allocation = allocate_lp(norm, types, objective="max-min")
    return derive_safety_goals(allocation, taxonomy=figure4_taxonomy()), types


def world():
    from repro.traffic import EncounterGenerator, default_context_profiles

    return EncounterGenerator(default_context_profiles())


def rare_event_stacks(generator):
    """The two estimator stacks of the ``rare-event`` workload.

    ``is``: the calibrated 1e-7/h fault-channel stack of
    ``benchmarks/bench_rare_event.py`` (healthy braking never collides,
    unreported degradation to 1 m/s² with occupancy 1e-7) under a 1e6
    degradation tilt, over the default context mix.  ``splitting``: the
    default stack, urban only.
    """
    from repro.traffic import (DEFAULT_MIX, BrakingSystem, PerceptionModel,
                               ProposalTilt, cautious_policy,
                               default_perception, nominal_policy)

    sharp = PerceptionModel(nominal_fraction=0.9, fraction_std=0.05,
                            miss_probability=0.0, late_fraction=0.25,
                            context_factors={})
    rare_braking = BrakingSystem(degradation_occupancy=1e-7,
                                 degraded_ms2=1.0, reports_capability=False)
    return {
        "is": dict(policy=cautious_policy(), generator=generator,
                   perception=sharp, braking=rare_braking,
                   weights=dict(DEFAULT_MIX),
                   tilt=ProposalTilt(degradation_scale=1e6)),
        "splitting": dict(policy=nominal_policy(), generator=generator,
                          perception=default_perception(),
                          braking=BrakingSystem(), weights={"urban": 1.0}),
    }


def prepare(workload: str) -> dict:
    """Import the workload's modules and build its inputs."""
    import importlib

    for name in IMPORTS[workload]:
        importlib.import_module(name)
    if workload in ("cli-session", "campaign-durable"):
        goals, types = sim_scale_goals()
        return {"goals": goals, "types": types}
    if workload == "campaign":
        return {"world": world()}
    generator = world()
    return {"world": generator, "stacks": rare_event_stacks(generator)}


if __name__ == "__main__":
    prepare(sys.argv[1])
    print("ready", flush=True)
