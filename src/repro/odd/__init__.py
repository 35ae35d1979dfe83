"""Operational design domain: definitions, contextual exposure, restriction.

The ODD bounds where the QRN safety case must hold (Sec. III-A); the
contextual exposure model carries the Sec. II-B-4 argument that situation
frequencies are time/place-dependent; restriction quantifies the Sec. IV
trade between feature coverage and verification burden.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".definition": ("OperationalDesignDomain", "OddParameter",
                    "CategoricalOddParameter", "RangeOddParameter"),
    ".exposure": ("ContextDimension", "ExposureModel",
                  "default_exposure_model"),
    ".restriction": ("RestrictionEffect", "coverage_of",
                     "evaluate_restriction"),
    ".monitor": ("Excursion", "OddMonitor"),
})
