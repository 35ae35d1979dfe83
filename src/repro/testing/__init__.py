"""Test-support substrate shipped with the package.

Deliberately importable from production code paths' *tests* only — the
runtime never imports this package.  It holds the deterministic chaos
harness (:mod:`.chaos`) that the ``chaos`` test tier drives the
fault-tolerant campaign engine with, and the seed-stable artifact
corruption fuzzer (:mod:`.fuzz`) behind the ``fuzz`` tier's ≥500
mutations-per-schema guarantee (DESIGN §10).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".chaos": ("CHAOS_FAULT_KINDS", "ChaosError", "ChaosScript",
               "ChaosWorker", "replace_with_garbage"),
    ".fuzz": ("ArtifactFuzzer", "FuzzCase", "BYTE_MUTATORS",
              "STRUCTURAL_MUTATORS"),
})
