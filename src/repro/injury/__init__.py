"""Injury-severity substrate: risk curves and consequence classification.

Stands in for the accident statistics (e.g. national traffic databases)
the paper assumes when assigning incident types to consequence classes:
logistic severity-vs-Δv dose–response curves per counterpart
(:mod:`.risk_curves`) and the derivation of contribution splits and
per-incident consequence draws from them (:mod:`.classifier`).
"""

from .classifier import (classify_record_severity, derive_splits,
                         sample_consequence_class, split_for_proximity,
                         split_for_speed_band)
from .risk_curves import (InjuryRiskModel, LogisticCurve, default_risk_model,
                          severity_distribution)

__all__ = [
    "LogisticCurve",
    "InjuryRiskModel",
    "default_risk_model",
    "severity_distribution",
    "split_for_speed_band",
    "split_for_proximity",
    "derive_splits",
    "classify_record_severity",
    "sample_consequence_class",
]
