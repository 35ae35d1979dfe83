"""The safety-case dossier: one document from all artefacts.

Assembles the complete design-time + verification story for one QRN
safety case into a single plain-text dossier — the deliverable a
confirmation review would read:

1. the risk norm with its rationale and acceptance corridors;
2. the incident classification with its MECE certificate (Fig. 4);
3. the allocation and per-class budget stacks (Figs. 3/5);
4. the safety goals in the paper's SG format;
5. the completeness & consistency argument;
6. (when verification data exists) the statistical verdicts and the
   rolled-up claim/argument/evidence tree;
7. (when the campaign ran with telemetry) its counters and span tree.

Everything comes from live objects, so the dossier can never drift from
the artefacts it documents.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.safety_goals import SafetyGoalSet
from ..core.verification import VerificationReport
from .figures import figure2_unified_axis, figure3_risk_norm, \
    figure5_assignment

__all__ = ["build_dossier"]

_RULE = "=" * 72


def _section(title: str) -> List[str]:
    return ["", _RULE, title, _RULE, ""]


def build_dossier(goals: SafetyGoalSet,
                  report: Optional[VerificationReport] = None,
                  *, title: Optional[str] = None,
                  telemetry=None) -> str:
    """Render the full dossier for one goal set (+ optional verification).

    A design-time dossier (no ``report``) states explicitly that
    statistical verification is outstanding — silence is not evidence.

    ``telemetry`` optionally attaches a
    :class:`~repro.obs.session.TelemetrySnapshot`, rendered as a
    "Runtime telemetry" section so the dossier documents *how* the
    evidence campaign ran, not only its verdicts; the verdicts are
    section 6's alone.
    """
    norm = goals.norm
    lines: List[str] = [
        _RULE,
        title if title is not None else
        f"SAFETY CASE DOSSIER — {norm.name}",
        _RULE,
    ]

    lines += _section("1. Quantitative risk norm")
    if norm.rationale:
        lines.append(f"Rationale: {norm.rationale}")
        lines.append("")
    lines.append(figure2_unified_axis(norm))
    corridor_lines = []
    for class_id in norm.class_ids:
        corridor = norm.corridor(class_id)
        if corridor is not None:
            corridor_lines.append(
                f"  {class_id}: budget {norm.budget(class_id)} within "
                f"[{corridor.state_of_art_lower}, "
                f"{corridor.political_upper}]")
    if corridor_lines:
        lines.append("")
        lines.append("Acceptance corridors (state of the art … political "
                     "upper limit):")
        lines.extend(corridor_lines)

    lines += _section("2. Incident classification and completeness evidence")
    if goals.certificate is not None:
        lines.append(goals.certificate.summary())
    else:
        lines.append("NO MECE CERTIFICATE ATTACHED — completeness of the "
                     "incident classification is not established.")

    lines += _section("3. Budget allocation (Eq. 1)")
    lines.append(figure3_risk_norm(goals.allocation))

    lines += _section("4. Safety goals")
    lines.append(figure5_assignment(goals))

    lines += _section("5. Completeness & consistency argument")
    lines.append(goals.completeness_argument())

    lines += _section("6. Verification status")
    if report is None:
        lines.append("Statistical verification OUTSTANDING: no operating or "
                     "simulation campaign has been evaluated against these "
                     "goals.  The design-time argument above does not claim "
                     "achieved rates.")
    else:
        lines.append(report.summary())
        from ..assurance.safety_case import build_qrn_safety_case
        case = build_qrn_safety_case(goals, report)
        lines.append("")
        lines.append(case.render())
        lines.append("")
        verdict = ("SUPPORTED" if case.is_supported()
                   else "NOT (YET) SUPPORTED")
        lines.append(f"Top claim: {verdict}.")

    if telemetry is not None:
        lines += _section("7. Runtime telemetry")
        counters = telemetry.metrics.counters()
        if counters:
            lines.append("Campaign counters:")
            for name, value in sorted(counters.items()):
                lines.append(f"  {name}: {value:g}")
            lines.append("")
        span_text = telemetry.spans.render()
        if span_text:
            lines.append("Span tree (wall clock, observability only):")
            lines.append(span_text)

    lines.append("")
    lines.append(_RULE)
    return "\n".join(lines)
