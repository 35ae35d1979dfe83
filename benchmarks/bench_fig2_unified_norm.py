"""E2 — Fig. 2: the unified quality + safety acceptance curve.

Regenerates the widened severity axis: quality consequences (perceived
safety, emergency manoeuvres, material damage) and injury consequences in
one framework, with acceptable frequency monotonically decreasing along
the axis.

Paper shape: quality classes tolerate higher frequencies than safety
classes ("quality will be found on the left-hand side of the risk
acceptance diagram"); ISO 26262's scope covers only the right half.
"""

from __future__ import annotations

from repro.core.risk_norm import (example_norm, human_driver_baseline,
                                  norm_from_human_baseline)
from repro.core.severity import SeverityDomain, unified_to_iso, IsoSeverity
from repro.reporting import figure2_unified_axis


def build_norm():
    return norm_from_human_baseline("Fig. 2 norm", improvement_factor=10.0)


def test_fig2_unified_axis(benchmark, save_artifact):
    norm = benchmark(build_norm)

    budgets = [cls.budget.rate for cls in norm.classes()]
    severities = [cls.severity for cls in norm.classes()]

    # Shape 1: monotone non-increasing along the whole unified axis.
    assert budgets == sorted(budgets, reverse=True)

    # Shape 2: every quality class tolerates more than every safety class.
    quality = [cls.budget.rate for cls in norm.scale.quality_classes()]
    safety = [cls.budget.rate for cls in norm.scale.safety_classes()]
    assert min(quality) >= max(safety)

    # Shape 3: the ISO 26262 scope (Fig. 1) is exactly the safety half —
    # all quality levels project onto S0, injuries onto S1–S3.
    for severity in severities:
        iso = unified_to_iso(severity)
        if severity.domain is SeverityDomain.QUALITY:
            assert iso is IsoSeverity.S0
        else:
            assert iso is not IsoSeverity.S0

    save_artifact("fig2_unified_norm", figure2_unified_axis(norm))


def test_fig2_baseline_consistency(benchmark):
    """The human-driver anchor itself has the Fig. 2 shape."""
    baseline = benchmark(human_driver_baseline)
    ordered = [baseline[s].rate for s in sorted(baseline, key=int)]
    assert ordered == sorted(ordered, reverse=True)
    # Severity steps are order-of-magnitude-scale apart, as the figure's
    # log axis implies.
    assert ordered[0] / ordered[-1] >= 1e3


def test_fig2_example_norm_render(benchmark, save_artifact):
    norm = benchmark(example_norm)
    text = figure2_unified_axis(norm)
    assert "QUALITY" in text and "SAFETY" in text
    save_artifact("fig2_example_norm", text)
