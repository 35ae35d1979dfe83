"""Hypothesis strategies shared by the property tests.

:func:`worlds` draws a whole simulated world — context profiles, a
tactical policy, braking and its fault occupancy, perception, the
simulation config, a context mix and campaign hours — over ranges wide
enough to reach every branch of the resolution chain (crossing and
same-direction classes, zero rates, degraded and unreported braking,
certain and impossible perception misses).  :func:`tilts` draws an
importance-sampling proposal valid for a given fault occupancy.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.core.taxonomy import ActorClass
from repro.traffic import (BrakingSystem, ContextProfile, EncounterGenerator,
                           PerceptionModel, ProposalTilt, TacticalPolicy)
from repro.traffic.simulator import SimulationConfig

CONTEXTS = ("urban", "rural", "night", "highway")
CLASSES = (ActorClass.VRU, ActorClass.CAR, ActorClass.TRUCK,
           ActorClass.ANIMAL, ActorClass.STATIC_OBJECT)


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def profiles(draw, name):
    classes = draw(st.lists(st.sampled_from(CLASSES), min_size=1,
                            max_size=len(CLASSES), unique=True))
    rates, sights, speeds = {}, {}, {}
    for counterpart in classes:
        rates[counterpart] = draw(st.one_of(
            st.just(0.0), st.floats(0.05, 40.0, **finite)))
        mean_d = draw(st.floats(2.0, 150.0, **finite))
        sights[counterpart] = (mean_d, draw(st.floats(0.02, 1.5, **finite))
                               * mean_d)
        mean_v = draw(st.floats(0.0, 110.0, **finite))
        std_v = draw(st.one_of(st.just(0.0), st.floats(0.5, 25.0,
                                                       **finite)))
        static = counterpart is ActorClass.STATIC_OBJECT
        speeds[counterpart] = (0.0, 0.0) if static else (mean_v, std_v)
    return ContextProfile(name=name, encounter_rates=rates,
                          sight_distance_m=sights,
                          counterpart_speed_kmh=speeds)


@st.composite
def worlds(draw):
    names = draw(st.lists(st.sampled_from(CONTEXTS), min_size=1,
                          max_size=len(CONTEXTS), unique=True))
    generator = EncounterGenerator({name: draw(profiles(name))
                                    for name in names})
    # One context in four carries no weight: it is skipped, no stream.
    weights = {name: draw(st.sampled_from([0.0, 1.0, 1.0, 1.0]))
               * draw(st.floats(0.05, 1.0, **finite)) for name in names}
    if not any(weights.values()):
        weights[names[0]] = 1.0
    total = math.fsum(weights.values())
    mix = {name: weight / total for name, weight in weights.items()}
    policy = TacticalPolicy(
        name="generated",
        target_speeds_kmh={name: draw(st.floats(10.0, 130.0, **finite))
                           for name in names},
        comfort_braking_ms2=draw(st.floats(1.5, 5.0, **finite)),
        reaction_time_s=draw(st.floats(0.0, 1.2, **finite)),
        proactive_slowdown=draw(st.floats(0.0, 1.0, **finite)),
        cue_probability=draw(st.floats(0.0, 1.0, **finite)),
        capability_aware=draw(st.booleans()),
        sight_margin=draw(st.floats(0.3, 2.0, **finite)))
    nominal = draw(st.floats(5.0, 10.0, **finite))
    braking = BrakingSystem(
        nominal_ms2=nominal,
        degraded_ms2=draw(st.floats(0.5, 1.0, **finite)) * nominal,
        degradation_occupancy=draw(st.sampled_from(
            [0.0, 1e-4, 0.05, 0.3, 1.0])),
        reports_capability=draw(st.booleans()))
    perception = PerceptionModel(
        nominal_fraction=draw(st.floats(0.3, 1.0, **finite)),
        fraction_std=draw(st.floats(0.0, 0.3, **finite)),
        miss_probability=draw(st.sampled_from([0.0, 1e-3, 0.2, 1.0])),
        late_fraction=draw(st.floats(0.05, 1.0, **finite)),
        context_factors={name: draw(st.floats(0.2, 1.0, **finite))
                         for name in names if draw(st.booleans())})
    config = SimulationConfig(
        near_miss_distance_m=draw(st.floats(0.5, 10.0, **finite)),
        near_miss_speed_kmh=draw(st.floats(0.0, 20.0, **finite)),
        hard_braking_threshold_ms2=draw(st.floats(1.0, 8.0, **finite)),
        follower_presence_probability=draw(st.sampled_from(
            [0.0, 0.3, 1.0])))
    hours = draw(st.floats(0.01, 20.0, **finite))
    return generator, mix, policy, braking, perception, config, hours


@st.composite
def tilts(draw, occupancy):
    if draw(st.booleans()):
        return ProposalTilt()
    ceiling = 0.99 / occupancy if occupancy > 0 else 100.0
    return ProposalTilt(
        rate_scale=draw(st.floats(0.5, 4.0, **finite)),
        sight_scale=draw(st.floats(0.3, 1.5, **finite)),
        speed_shift_kmh=draw(st.floats(-10.0, 10.0, **finite)),
        degradation_scale=draw(st.floats(min(0.5, ceiling),
                                         min(50.0, ceiling), **finite)))
