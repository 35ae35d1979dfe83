"""Plain-data serialisation of QRN artefacts.

A safety case is a configuration-managed document set: norms, incident
types, allocations and goals must round-trip through plain data (JSON,
YAML, a database) without loss, so that a design revision can be diffed
and an auditor can reconstruct exactly what was claimed.

Everything here is dict-in/dict-out with only JSON-safe values; the norm
itself already round-trips via
:meth:`~repro.core.risk_norm.QuantitativeRiskNorm.to_dict`.  Goal sets
serialise their completeness evidence as a *record* (the certificate's
findings), not as a live certificate — reloading a safety case does not
re-run the MECE check, it documents the one that ran, which is how audit
trails work.

Every ``*_from_dict`` loader is routed through the :mod:`repro.io`
artifact boundary (DESIGN §10): the payload's structure is validated
field-by-field before any object is constructed, and *every* failure —
missing keys, wrong types, non-finite numbers, unknown margin kinds,
dangling goal references — surfaces as a typed
:class:`~repro.errors.ArtifactError` subclass (still a ``ValueError``),
never a bare ``KeyError``/``TypeError``.  The payload carries every
field its ``*_to_dict`` writes and no other.  :func:`save_goal_set` /
:func:`load_goal_set` add the tagged, digest-signed, atomically-written
file form, and a stored file must carry both tag and digest.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping

from ..errors import ArtifactValidationError
from ..io.artifact import ARTIFACTS, ArtifactSchema, register_artifact
from ..io.validate import (Bool, Int, Json, ListOf, MapOf, NullOr, Number,
                           Record, Str, TaggedUnion)
from .allocation import Allocation
from .incident import (ContributionSplit, IncidentType, ProximityMargin,
                       SpeedBand)
from .quantities import Frequency
from .risk_norm import QuantitativeRiskNorm
from .safety_goals import SafetyGoal, SafetyGoalSet
from .taxonomy import ActorClass, MeceCertificate, MeceViolation

__all__ = [
    "incident_type_to_dict",
    "incident_type_from_dict",
    "allocation_to_dict",
    "allocation_from_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "goal_set_to_dict",
    "goal_set_from_dict",
    "load_goal_set",
    "save_goal_set",
    "INCIDENT_TYPE_SCHEMA_NAME",
    "ALLOCATION_SCHEMA_NAME",
    "CERTIFICATE_SCHEMA_NAME",
    "GOAL_SET_SCHEMA_NAME",
]

INCIDENT_TYPE_SCHEMA_NAME = "repro.incident-type"
ALLOCATION_SCHEMA_NAME = "repro.allocation"
CERTIFICATE_SCHEMA_NAME = "repro.mece-certificate"
GOAL_SET_SCHEMA_NAME = "repro.goal-set"


def incident_type_to_dict(itype: IncidentType) -> Dict[str, Any]:
    """One incident type as plain data."""
    if isinstance(itype.margin, SpeedBand):
        margin: Dict[str, Any] = {
            "kind": "speed_band",
            "low_kmh": itype.margin.low_kmh,
            "high_kmh": itype.margin.high_kmh,
        }
    else:
        margin = {
            "kind": "proximity",
            "max_distance_m": itype.margin.max_distance_m,
            "min_approach_speed_kmh": itype.margin.min_approach_speed_kmh,
        }
    return {
        "type_id": itype.type_id,
        "ego": itype.ego.value,
        "counterpart": itype.counterpart.value,
        "margin": margin,
        "split": {class_id: fraction
                  for class_id, fraction in itype.split.items()},
        "description": itype.description,
        "taxonomy_leaf": itype.taxonomy_leaf,
        "induced": itype.induced,
    }


def _build_incident_type(data: Mapping[str, Any]) -> IncidentType:
    margin_data = data["margin"]
    kind = margin_data["kind"]
    if kind == "speed_band":
        margin: "SpeedBand | ProximityMargin" = SpeedBand(
            float(margin_data["low_kmh"]), float(margin_data["high_kmh"]))
    elif kind == "proximity":
        margin = ProximityMargin(
            float(margin_data["max_distance_m"]),
            float(margin_data["min_approach_speed_kmh"]))
    else:  # pragma: no cover - the spec rejects unknown kinds first
        raise ValueError(f"unknown tolerance-margin kind {kind!r}")
    return IncidentType(
        type_id=str(data["type_id"]),
        ego=ActorClass(str(data["ego"])),
        counterpart=ActorClass(str(data["counterpart"])),
        margin=margin,
        split=ContributionSplit({str(k): float(v)
                                 for k, v in data["split"].items()}),
        description=str(data["description"]),
        taxonomy_leaf=(None if data["taxonomy_leaf"] is None
                       else str(data["taxonomy_leaf"])),
        induced=bool(data["induced"]),
    )


def incident_type_from_dict(data: Mapping[str, Any]) -> IncidentType:
    """Rebuild an incident type; unknown margin kinds fail loudly."""
    itype = ARTIFACTS.load_dict(data, INCIDENT_TYPE_SCHEMA_NAME,
                                require_tag=False)
    assert isinstance(itype, IncidentType)
    return itype


def allocation_to_dict(allocation: Allocation) -> Dict[str, Any]:
    """A full allocation: norm + types + budgets + strategy provenance."""
    return {
        "norm": allocation.norm.to_dict(),
        "types": [incident_type_to_dict(t) for t in allocation.types],
        "budgets": {type_id: budget.rate
                    for type_id, budget in allocation.budgets().items()},
        "strategy": allocation.strategy,
    }


def _build_allocation(data: Mapping[str, Any]) -> Allocation:
    norm = QuantitativeRiskNorm.from_dict(data["norm"])
    types = [_build_incident_type(entry) for entry in data["types"]]
    budgets = {str(type_id): Frequency(float(rate), norm.unit)
               for type_id, rate in data["budgets"].items()}
    return Allocation(norm, types, budgets, strategy=str(data["strategy"]))


def allocation_from_dict(data: Mapping[str, Any]) -> Allocation:
    """Rebuild an allocation (norm + types + budgets) from plain data."""
    allocation = ARTIFACTS.load_dict(data, ALLOCATION_SCHEMA_NAME,
                                     require_tag=False)
    assert isinstance(allocation, Allocation)
    return allocation


def certificate_to_dict(certificate: MeceCertificate) -> Dict[str, Any]:
    """A MECE certificate as an audit record (findings, counts, name)."""
    return {
        "taxonomy_name": certificate.taxonomy_name,
        "leaf_names": list(certificate.leaf_names),
        "structural_checks": certificate.structural_checks,
        "points_checked": certificate.points_checked,
        "violations": [
            {"kind": v.kind, "detail": v.detail,
             "point": dict(v.point) if v.point is not None else None}
            for v in certificate.violations
        ],
    }


def _build_certificate(data: Mapping[str, Any]) -> MeceCertificate:
    return MeceCertificate(
        taxonomy_name=str(data["taxonomy_name"]),
        leaf_names=tuple(str(n) for n in data["leaf_names"]),
        structural_checks=int(data["structural_checks"]),
        points_checked=int(data["points_checked"]),
        violations=tuple(
            MeceViolation(kind=str(v["kind"]), detail=str(v["detail"]),
                          point=v["point"])
            for v in data["violations"]
        ),
    )


def certificate_from_dict(data: Mapping[str, Any]) -> MeceCertificate:
    """Rebuild a stored MECE certificate record (no re-checking occurs)."""
    certificate = ARTIFACTS.load_dict(data, CERTIFICATE_SCHEMA_NAME,
                                      require_tag=False)
    assert isinstance(certificate, MeceCertificate)
    return certificate


def goal_set_to_dict(goals: SafetyGoalSet) -> Dict[str, Any]:
    """A complete goal set including its allocation and evidence record."""
    return {
        "allocation": allocation_to_dict(goals.allocation),
        "goals": [
            {"goal_id": goal.goal_id, "type_id": goal.type_id,
             "max_frequency_rate": goal.max_frequency.rate}
            for goal in goals
        ],
        "certificate": (certificate_to_dict(goals.certificate)
                        if goals.certificate is not None else None),
    }


def _build_goal_set(data: Mapping[str, Any]) -> SafetyGoalSet:
    allocation = _build_allocation(data["allocation"])
    by_type = {t.type_id: t for t in allocation.types}
    goals: List[SafetyGoal] = []
    for entry in data["goals"]:
        type_id = str(entry["type_id"])
        if type_id not in by_type:
            raise ValueError(
                f"goal {entry['goal_id']!r} references unknown incident "
                f"type {type_id!r}")
        goals.append(SafetyGoal(
            goal_id=str(entry["goal_id"]),
            incident_type=by_type[type_id],
            max_frequency=Frequency(float(entry["max_frequency_rate"]),
                                    allocation.norm.unit),
        ))
    certificate = (None if data["certificate"] is None
                   else _build_certificate(data["certificate"]))
    return SafetyGoalSet(goals, allocation.norm, allocation, certificate)


def goal_set_from_dict(data: Mapping[str, Any]) -> SafetyGoalSet:
    """Rebuild a goal set; goals must reference types in the allocation."""
    goals = ARTIFACTS.load_dict(data, GOAL_SET_SCHEMA_NAME,
                                require_tag=False)
    assert isinstance(goals, SafetyGoalSet)
    return goals


def load_goal_set(path: "Path | str") -> SafetyGoalSet:
    """Load a stored goal-set file through the artifact boundary.

    The file must be what :func:`save_goal_set` writes: tagged
    ``repro.goal-set/v1`` and digest-signed.  Every failure is a typed
    :class:`~repro.errors.ArtifactError`; an unsigned file is a
    :class:`~repro.errors.CorruptArtifactError`.
    """
    goals = ARTIFACTS.load(Path(path), GOAL_SET_SCHEMA_NAME)
    assert isinstance(goals, SafetyGoalSet)
    return goals


def save_goal_set(path: "Path | str", goals: SafetyGoalSet) -> Path:
    """Atomically write a tagged, digest-signed goal-set file."""
    return ARTIFACTS.save(Path(path), GOAL_SET_SCHEMA_NAME, goals)


# -- artifact schema registration ----------------------------------------

_MARGIN_SPEC = TaggedUnion("kind", {
    "speed_band": Record(required={
        "kind": Str(), "low_kmh": Number(), "high_kmh": Number()}),
    "proximity": Record(required={
        "kind": Str(), "max_distance_m": Number(),
        "min_approach_speed_kmh": Number()}),
})

_INCIDENT_TYPE_SPEC = Record(
    required={
        "type_id": Str(),
        "ego": Str(),
        "counterpart": Str(),
        "margin": _MARGIN_SPEC,
        "split": MapOf(Number()),
        "description": Str(),
        "taxonomy_leaf": NullOr(Str()),
        "induced": Bool(),
    })

_NORM_SPEC = Record(
    required={
        "name": Str(),
        "unit": Str(),
        "classes": ListOf(Record(
            required={"class_id": Str(), "severity": Str(),
                      "budget_rate": Number(), "description": Str()})),
        "rationale": Str(),
    })

_ALLOCATION_SPEC = Record(
    required={
        "norm": _NORM_SPEC,
        "types": ListOf(_INCIDENT_TYPE_SPEC),
        "budgets": MapOf(Number()),
        "strategy": Str(),
    })

_CERTIFICATE_SPEC = Record(required={
    "taxonomy_name": Str(),
    "leaf_names": ListOf(Str()),
    "structural_checks": Int(),
    "points_checked": Int(),
    "violations": ListOf(Record(
        required={"kind": Str(), "detail": Str(),
                  "point": NullOr(MapOf(Json()))})),
})

_GOAL_SET_SPEC = Record(required={
    "allocation": _ALLOCATION_SPEC,
    "goals": ListOf(Record(required={
        "goal_id": Str(), "type_id": Str(),
        "max_frequency_rate": Number()})),
    "certificate": NullOr(_CERTIFICATE_SPEC),
})


def _example_incident_type() -> IncidentType:
    return IncidentType(
        type_id="I1", ego=ActorClass.EGO, counterpart=ActorClass.VRU,
        margin=ProximityMargin(1.0, 10.0),
        split=ContributionSplit({"vQ1": 0.9, "vS1": 0.1}),
        description="ego close to a VRU above 10 km/h",
        taxonomy_leaf="vru_proximity", induced=False)


def _example_norm() -> QuantitativeRiskNorm:
    from .consequence import ConsequenceClass, ConsequenceScale
    from .quantities import ExposureBase, FrequencyUnit
    from .severity import UnifiedSeverity

    unit = FrequencyUnit(ExposureBase.OPERATING_HOUR)
    scale = ConsequenceScale([
        ConsequenceClass("vQ1", UnifiedSeverity.EMERGENCY_MANOEUVRE,
                         Frequency(1e-4, unit), "emergency manoeuvre"),
        ConsequenceClass("vS1", UnifiedSeverity.LIGHT_INJURY,
                         Frequency(1e-6, unit), "light injury"),
    ])
    return QuantitativeRiskNorm("example-io-norm", scale,
                                rationale="deterministic fuzz example")


def _example_allocation() -> Allocation:
    norm = _example_norm()
    itype = _example_incident_type()
    return Allocation(norm, [itype],
                      {"I1": Frequency(1e-6, norm.unit)},
                      strategy="manual")


def _example_certificate() -> MeceCertificate:
    return MeceCertificate(
        taxonomy_name="fig4-example",
        leaf_names=("vru_proximity", "low_speed_collision"),
        structural_checks=2, points_checked=100,
        violations=(MeceViolation(kind="gap",
                                  detail="uncovered corner case",
                                  point={"delta_v_kmh": 71.0}),))


def _example_goal_set() -> SafetyGoalSet:
    allocation = _example_allocation()
    itype = allocation.types[0]
    goal = SafetyGoal(goal_id="SG-I1", incident_type=itype,
                      max_frequency=allocation.budget("I1"))
    return SafetyGoalSet([goal], allocation.norm, allocation,
                         _example_certificate())


def _dicts_equal(to_dict):
    """Structural equality via the dumper (for classes without ``__eq__``)."""
    def equal(a: object, b: object) -> bool:
        return to_dict(a) == to_dict(b)
    return equal


register_artifact(ArtifactSchema(
    name=INCIDENT_TYPE_SCHEMA_NAME, version=1,
    spec=_INCIDENT_TYPE_SPEC, load=_build_incident_type,
    dump=incident_type_to_dict, label="incident type",
    example=_example_incident_type))

register_artifact(ArtifactSchema(
    name=ALLOCATION_SCHEMA_NAME, version=1,
    spec=_ALLOCATION_SPEC, load=_build_allocation,
    dump=allocation_to_dict, label="allocation",
    example=_example_allocation,
    equal=_dicts_equal(allocation_to_dict)))

register_artifact(ArtifactSchema(
    name=CERTIFICATE_SCHEMA_NAME, version=1,
    spec=_CERTIFICATE_SPEC, load=_build_certificate,
    dump=certificate_to_dict, label="MECE certificate",
    example=_example_certificate))

register_artifact(ArtifactSchema(
    name=GOAL_SET_SCHEMA_NAME, version=1,
    spec=_GOAL_SET_SPEC, load=_build_goal_set,
    dump=goal_set_to_dict, label="goal set",
    example=_example_goal_set,
    equal=_dicts_equal(goal_set_to_dict)))


# Re-exported for introspection/tests: the boundary error the loaders
# raise on structural failure (kept here so ``from repro.core.serialize
# import ArtifactValidationError`` works at the point of use).
_ = ArtifactValidationError
