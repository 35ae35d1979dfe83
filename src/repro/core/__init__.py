"""The paper's primary contribution: the quantitative risk norm (QRN).

The pipeline, end to end (Sec. III):

1. Define consequence classes with frequency budgets — a
   :class:`~repro.core.risk_norm.QuantitativeRiskNorm` over a
   :class:`~repro.core.consequence.ConsequenceScale` (Figs. 2–3).
2. Classify all conceivable incidents MECE —
   :class:`~repro.core.taxonomy.IncidentTaxonomy` (Fig. 4) — and refine
   leaves into :class:`~repro.core.incident.IncidentType`\\ s with
   tolerance margins and contribution splits (Fig. 5).
3. Allocate budgets so Eq. 1 holds —
   :mod:`~repro.core.allocation`, optionally under
   :mod:`~repro.core.ethics` constraints.
4. Emit one safety goal per incident type —
   :func:`~repro.core.safety_goals.derive_safety_goals`.
5. Verify against data — :mod:`~repro.core.verification` — and refine
   budgets into the architecture — :mod:`~repro.core.refinement` (Sec. V).
"""

from .banding import (BandingResult, GranularityPoint,
                      band_dispersion, bands_to_incident_types,
                      distinguishability, granularity_tradeoff,
                      propose_bands)
from .allocation import (Allocation, AllocationError,
                         InfeasibleAllocationError, LpObjective, allocate_lp,
                         allocate_proportional, allocate_uniform_scaling)
from .consequence import ConsequenceClass, ConsequenceScale, example_scale
from .ethics import (BudgetCeiling, BudgetFloor, ConstraintViolation,
                     EthicalConstraint, GroupShareCap, RiskParity,
                     audit_allocation)
from .incident import (ContributionSplit, IncidentRecord, IncidentType,
                       ProximityMargin, SpeedBand, classify_records,
                       figure5_incident_types, induced_follower_type)
from .product_line import ProductLine, Variant, VariantConformance
from .quantities import (PER_HOUR, PER_KM, PER_MISSION, ExposureBase,
                         ExposureProfile, Frequency, FrequencyBand,
                         FrequencyUnit, UnitMismatchError, sum_frequencies)
from .refinement import (Combination, ElementRequirement, RefinementError,
                         RefinementNode, apportion_or, combine_and,
                         combine_k_of_n, combine_or, drivable_area_example,
                         required_leaf_rate_and)
from .review import Finding, Severity, confirmation_review
from .risk_norm import (AcceptanceCorridor, QuantitativeRiskNorm,
                        example_norm, human_driver_baseline,
                        norm_from_human_baseline, societal_impact)
from .safety_goals import SafetyGoal, SafetyGoalSet, derive_safety_goals
from .serialize import (allocation_from_dict, allocation_to_dict,
                        certificate_from_dict, certificate_to_dict,
                        goal_set_from_dict, goal_set_to_dict,
                        incident_type_from_dict, incident_type_to_dict,
                        load_goal_set, save_goal_set)
from .severity import (IsoSeverity, SeverityDomain, UnifiedSeverity,
                       iso_to_unified, unified_to_iso)
from .taxonomy import (ActorClass, CategoricalAttribute, CategoryBranch,
                       ClassificationNode, ContinuousAttribute,
                       IncidentTaxonomy, IntervalBranch, Leaf,
                       MeceCertificate, MeceViolation, Region,
                       TaxonomyError, Universe, ego_vru_universe,
                       figure4_taxonomy)
from .verification import (ClassVerdict, GoalVerdict, VerificationReport,
                           Verdict, supportable_tightening,
                           verify_against_counts, verify_class_counts)

__all__ = [
    # quantities
    "Frequency", "FrequencyUnit", "FrequencyBand", "ExposureBase",
    "ExposureProfile", "UnitMismatchError", "PER_HOUR", "PER_KM",
    "PER_MISSION", "sum_frequencies",
    # severity / consequence
    "SeverityDomain", "IsoSeverity", "UnifiedSeverity", "iso_to_unified",
    "unified_to_iso", "ConsequenceClass", "ConsequenceScale", "example_scale",
    # norm
    "QuantitativeRiskNorm", "AcceptanceCorridor", "example_norm",
    "human_driver_baseline", "norm_from_human_baseline", "societal_impact",
    # taxonomy
    "ActorClass", "Universe", "CategoricalAttribute", "ContinuousAttribute",
    "CategoryBranch", "IntervalBranch", "ClassificationNode", "Leaf", "Region",
    "IncidentTaxonomy", "MeceCertificate", "MeceViolation", "TaxonomyError",
    "figure4_taxonomy", "ego_vru_universe",
    # incidents
    "IncidentType", "IncidentRecord", "SpeedBand", "ProximityMargin",
    "ContributionSplit", "classify_records", "figure5_incident_types",
    "induced_follower_type",
    # allocation & ethics
    "Allocation", "AllocationError", "InfeasibleAllocationError",
    "LpObjective", "allocate_lp", "allocate_proportional",
    "allocate_uniform_scaling", "EthicalConstraint", "BudgetFloor",
    "BudgetCeiling", "RiskParity", "GroupShareCap", "ConstraintViolation",
    "audit_allocation",
    # goals & verification
    "SafetyGoal", "SafetyGoalSet", "derive_safety_goals", "Verdict",
    "GoalVerdict", "ClassVerdict", "VerificationReport",
    "verify_against_counts", "verify_class_counts", "supportable_tightening",
    # refinement (Sec. V)
    "Combination", "ElementRequirement", "RefinementNode", "RefinementError",
    "combine_and", "combine_or", "combine_k_of_n", "apportion_or",
    "required_leaf_rate_and", "drivable_area_example",
    # product line (Sec. VII)
    "ProductLine", "Variant", "VariantConformance",
    # banding (Sec. III-B granularity)
    "BandingResult", "GranularityPoint", "band_dispersion",
    "bands_to_incident_types", "distinguishability",
    "granularity_tradeoff", "propose_bands",
    # serialisation
    "incident_type_to_dict", "incident_type_from_dict",
    "allocation_to_dict", "allocation_from_dict",
    "certificate_to_dict", "certificate_from_dict",
    "goal_set_to_dict", "goal_set_from_dict",
    "load_goal_set", "save_goal_set",
    # confirmation review
    "Finding", "Severity", "confirmation_review",
]
