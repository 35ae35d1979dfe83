"""repro — reproduction of "The Quantitative Risk Norm" (Warg et al., DSN-W 2020).

A production-quality implementation of the QRN tailoring of HARA for
automated driving systems, plus every substrate it presumes:

* :mod:`repro.core` — the QRN itself: consequence classes, MECE incident
  taxonomies, budget allocation (Eq. 1), safety-goal synthesis,
  statistical verification, quantitative refinement (Sec. V), product
  lines (Sec. VII).
* :mod:`repro.hara` — the ISO 26262:2018 HARA baseline the paper tailors:
  S/E/C rating, the ASIL determination table, situation enumeration,
  HAZOP-style hazard derivation, ASIL decomposition/inheritance.
* :mod:`repro.traffic` — a stochastic driving substrate standing in for
  fleet data: tactical policies, encounter generation, incident detection.
* :mod:`repro.injury` — injury-severity risk curves mapping collisions to
  consequence classes (contribution splits).
* :mod:`repro.stats` — Poisson inference, Monte-Carlo harness, stratified
  rare-event estimation.
* :mod:`repro.odd` — operational design domain model and contextual
  exposure.
* :mod:`repro.assurance` — architectures, fault trees, safety-case trees,
  quantitative-vs-ASIL comparison.
* :mod:`repro.reporting` — ASCII/markdown rendering of the paper's
  figures, shared by benchmarks and examples.
* :mod:`repro.errors` / :mod:`repro.io` — the typed error taxonomy
  (every CLI-visible failure maps to one diagnostic line and exit
  code 4) and the hardened artifact boundary: loaders that read only
  the signed, schema-tagged format this build writes, declarative
  validation and atomic durable writes (DESIGN.md §10).

Quickstart::

    from repro.core import (example_norm, figure5_incident_types,
                            allocate_lp, derive_safety_goals)

    norm = example_norm()
    types = list(figure5_incident_types())
    allocation = allocate_lp(norm, types)
    goals = derive_safety_goals(allocation)
    print(goals.render_all())
"""

__version__ = "1.0.0"

__all__ = ["core", "hara", "traffic", "injury", "stats", "odd",
           "assurance", "reporting", "errors", "io", "__version__"]
