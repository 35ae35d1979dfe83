"""ISO 26262:2018 HARA baseline — the method the QRN tailors away.

Implemented faithfully so the paper's critiques (Sec. II-B) and the
quantitative-vs-ASIL comparison (Sec. V) can be demonstrated against a
real implementation rather than a straw man: S/E/C rating classes, the
ASIL determination table, HAZOP hazard derivation, cross-product situation
enumeration, the full study pipeline, and the decomposition/inheritance
rules including their large-design breakdown.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".asil": ("Asil", "determine_asil", "determine_asil_sum_rule",
              "asil_rate_band", "frequency_to_asil_band",
              "RiskReductionWaterfall", "risk_reduction_waterfall"),
    ".exposure": ("ExposureClass", "exposure_from_fraction",
                  "exposure_from_rate_per_hour"),
    ".controllability": ("ControllabilityClass",
                         "controllability_from_probability",
                         "ads_controllability"),
    ".hazard": ("GuideWord", "VehicleFunction", "Hazard", "derive_hazards"),
    ".hazardous_event": ("SecRating", "HazardousEvent", "IsoSafetyGoal"),
    ".situation": ("SituationDimension", "OperationalSituation",
                   "SituationCatalog", "standard_dimensions"),
    ".hara": ("RatingModel", "HaraStudy", "run_hara"),
    ".decomposition": ("DECOMPOSITION_SCHEMES", "valid_decompositions",
                       "is_valid_decomposition", "DecompositionError",
                       "decompose", "DecomposedRequirement",
                       "inheritance_effective_rate", "InheritanceAnalysis",
                       "analyse_inheritance"),
    ".iterative": ("IterationRound", "IterativeHaraResult",
                   "asil_threshold_assessor", "run_iterative_hara"),
})
