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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".quantities": ("Frequency", "FrequencyUnit", "FrequencyBand",
                    "ExposureBase", "ExposureProfile", "UnitMismatchError",
                    "PER_HOUR", "PER_KM", "PER_MISSION", "sum_frequencies"),
    ".severity": ("SeverityDomain", "IsoSeverity", "UnifiedSeverity",
                  "iso_to_unified", "unified_to_iso"),
    ".consequence": ("ConsequenceClass", "ConsequenceScale", "example_scale"),
    ".risk_norm": ("QuantitativeRiskNorm", "AcceptanceCorridor",
                   "example_norm", "human_driver_baseline",
                   "norm_from_human_baseline", "societal_impact"),
    ".taxonomy": ("ActorClass", "Universe", "CategoricalAttribute",
                  "ContinuousAttribute", "CategoryBranch", "IntervalBranch",
                  "ClassificationNode", "Leaf", "Region", "IncidentTaxonomy",
                  "MeceCertificate", "MeceViolation", "TaxonomyError",
                  "figure4_taxonomy", "ego_vru_universe"),
    ".incident": ("IncidentType", "IncidentRecord", "SpeedBand",
                  "ProximityMargin", "ContributionSplit", "classify_records",
                  "figure5_incident_types", "induced_follower_type"),
    ".allocation": ("Allocation", "AllocationError",
                    "InfeasibleAllocationError", "LpObjective", "allocate_lp",
                    "allocate_proportional", "allocate_uniform_scaling"),
    ".ethics": ("EthicalConstraint", "BudgetFloor", "BudgetCeiling",
                "RiskParity", "GroupShareCap", "ConstraintViolation",
                "audit_allocation"),
    ".safety_goals": ("SafetyGoal", "SafetyGoalSet", "derive_safety_goals"),
    ".verification": ("Verdict", "GoalVerdict", "ClassVerdict",
                      "VerificationReport", "verify_against_counts",
                      "verify_class_counts", "supportable_tightening"),
    ".refinement": ("Combination", "ElementRequirement", "RefinementNode",
                    "RefinementError", "combine_and", "combine_or",
                    "combine_k_of_n", "apportion_or",
                    "required_leaf_rate_and", "drivable_area_example"),
    ".product_line": ("ProductLine", "Variant", "VariantConformance"),
    ".banding": ("BandingResult", "GranularityPoint", "band_dispersion",
                 "bands_to_incident_types", "distinguishability",
                 "granularity_tradeoff", "propose_bands"),
    ".serialize": ("incident_type_to_dict", "incident_type_from_dict",
                   "allocation_to_dict", "allocation_from_dict",
                   "certificate_to_dict", "certificate_from_dict",
                   "goal_set_to_dict", "goal_set_from_dict", "load_goal_set",
                   "save_goal_set"),
    ".review": ("Finding", "Severity", "confirmation_review"),
})
