"""Reporting: plain-text tables and regenerated paper figures."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".tables": ("render_table", "render_bar", "format_rate"),
    ".figures": ("log_bar", "figure1_waterfall", "figure2_unified_axis",
                 "figure3_risk_norm", "figure4_tree", "figure5_assignment"),
    ".dossier": ("build_dossier",),
})
