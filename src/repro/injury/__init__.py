"""Injury-severity substrate: risk curves and consequence classification.

Stands in for the accident statistics (e.g. national traffic databases)
the paper assumes when assigning incident types to consequence classes:
logistic severity-vs-Δv dose–response curves per counterpart
(:mod:`.risk_curves`) and the derivation of contribution splits and
per-incident consequence draws from them (:mod:`.classifier`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".risk_curves": ("LogisticCurve", "InjuryRiskModel", "default_risk_model",
                     "severity_distribution"),
    ".classifier": ("split_for_speed_band", "split_for_proximity",
                    "derive_splits", "classify_record_severity",
                    "sample_consequence_class"),
})
