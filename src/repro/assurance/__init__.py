"""Assurance substrate: fault trees, architectures, safety cases, comparisons.

The solution-domain machinery of Secs. IV–V: compose cause-agnostic
violation rates through fault trees (:mod:`.fault_tree`), allocate refined
requirements to architectural elements (:mod:`.architecture`), assemble
the claim/argument/evidence safety case (:mod:`.safety_case`), and run the
quantitative-vs-ASIL comparisons of Sec. V (:mod:`.comparison`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fault_tree": ("BasicEvent", "Gate", "GateKind", "FaultTree", "CutSet",
                    "FaultTreeError"),
    ".architecture": ("Element", "Subsystem", "AllocatedRequirement",
                      "AllocationLedger", "LedgerEntry"),
    ".safety_case": ("CaseNode", "NodeKind", "SafetyCase",
                     "build_qrn_safety_case"),
    ".comparison": ("RedundancyComparison", "compare_redundancy",
                    "InheritanceComparison", "compare_inheritance"),
    ".trade_study": ("TradeOption", "TradeAxis", "TradeStudy",
                     "CandidateResult"),
    ".common_cause": ("CommonCauseAnalysis", "analyse_common_cause",
                      "combine_and_with_common_cause", "max_tolerable_beta"),
    ".markov": ("ApproximationCheck", "approximation_error",
                "exact_group_violation_rate", "stationary_distribution"),
})
