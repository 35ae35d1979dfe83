"""E1 — Fig. 1: the ISO 26262 risk model as a quantified waterfall.

Regenerates the figure's content: acceptable accident frequency falls
with severity (S0–S3); exposure limitation and controllability each buy
risk-reduction decades; the remainder is the E/E system's job, tracked by
the Table 4 ASIL.

Paper shape to reproduce: acceptance threshold monotonically decreasing
in severity; required E/E reduction (and the ASIL) increasing as E/C
credits shrink.
"""

from __future__ import annotations

import itertools

from repro.core.severity import IsoSeverity
from repro.hara.asil import risk_reduction_waterfall
from repro.hara.controllability import ControllabilityClass
from repro.hara.exposure import ExposureClass
from repro.reporting import figure1_waterfall


def build_waterfalls():
    combos = [
        (IsoSeverity.S0, ExposureClass.E4, ControllabilityClass.C3),
        (IsoSeverity.S1, ExposureClass.E4, ControllabilityClass.C3),
        (IsoSeverity.S2, ExposureClass.E4, ControllabilityClass.C3),
        (IsoSeverity.S3, ExposureClass.E4, ControllabilityClass.C3),
        (IsoSeverity.S3, ExposureClass.E2, ControllabilityClass.C3),
        (IsoSeverity.S3, ExposureClass.E4, ControllabilityClass.C1),
        (IsoSeverity.S3, ExposureClass.E1, ControllabilityClass.C1),
    ]
    return [risk_reduction_waterfall(*combo) for combo in combos]


def test_fig1_waterfall(benchmark, save_artifact):
    waterfalls = benchmark(build_waterfalls)

    # Shape 1: acceptable frequency falls monotonically with severity.
    by_severity = {w.severity: w.acceptable_frequency for w in waterfalls}
    ordered = [by_severity[s] for s in IsoSeverity]
    assert ordered == sorted(ordered, reverse=True)

    # Shape 2: with full E4/C3 (no credits), required E/E reduction grows
    # with severity.
    worst_case = [w for w in waterfalls
                  if w.exposure_reduction == 0 and
                  w.controllability_reduction == 0]
    reductions = sorted((int(w.severity), w.required_ee_reduction)
                        for w in worst_case)
    values = [r for _, r in reductions]
    assert values == sorted(values)

    # Shape 3: exposure and controllability credits cut the E/E burden.
    full_burden = next(w for w in waterfalls
                       if (w.severity, w.exposure_reduction,
                           w.controllability_reduction)
                       == (IsoSeverity.S3, 0.0, 0.0))
    credited = next(w for w in waterfalls
                    if w.severity is IsoSeverity.S3
                    and w.exposure_reduction > 0
                    and w.controllability_reduction > 0)
    assert credited.required_ee_reduction < full_burden.required_ee_reduction

    save_artifact("fig1_iso_risk_model", figure1_waterfall(waterfalls))


def test_fig1_full_sec_grid(benchmark, save_artifact):
    """The complete S×E×C grid — the quantified version of Table 4."""

    def build_grid():
        return [
            risk_reduction_waterfall(severity, exposure, controllability)
            for severity, exposure, controllability in itertools.product(
                IsoSeverity, ExposureClass, ControllabilityClass)
        ]

    grid = benchmark(build_grid)
    assert len(grid) == 4 * 5 * 4
    # The required reduction correlates with the assigned ASIL: averaged
    # per level, higher ASILs demand more decades from the E/E system.
    from collections import defaultdict
    per_level = defaultdict(list)
    for waterfall in grid:
        per_level[waterfall.asil].append(waterfall.required_ee_reduction)
    means = {level: sum(values) / len(values)
             for level, values in per_level.items()}
    levels = sorted(means, key=int)
    averaged = [means[level] for level in levels]
    assert averaged == sorted(averaged)
