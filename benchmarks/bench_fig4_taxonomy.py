"""E4 — Fig. 4: the MECE incident classification and its certificate.

Regenerates the example classification tree (ego-involved vs induced
incidents, by counterpart / actor pair) and machine-checks the property
the paper's completeness argument rests on: mutual exclusivity and
collective exhaustiveness over the declared universe.

Paper shape: the classification is complete by construction — the
certificate decides every elementary cell of the universe (96 for Fig. 4)
and reports zero violations; splits one ulp off are rejected.
"""

from __future__ import annotations

import math
import random

from repro.core.taxonomy import (CategoricalAttribute, CategoryBranch,
                                 ClassificationNode, ContinuousAttribute,
                                 IncidentTaxonomy, IntervalBranch,
                                 TaxonomyError, Universe, figure4_taxonomy)
from repro.reporting import figure4_tree


def test_fig4_tree_and_certificate(benchmark, save_artifact):
    taxonomy = figure4_taxonomy()
    certificate = benchmark(taxonomy.mece_certificate)
    assert certificate.is_mece
    assert len(certificate.leaf_names) == 14
    assert certificate.points_checked == 96  # 2 × 6 × 8 categorical cells
    save_artifact("fig4_taxonomy", figure4_tree(taxonomy))


def test_fig4_classification_throughput(benchmark):
    """Classifying incident descriptions is cheap enough to run inline in
    a data pipeline (thousands per second)."""
    taxonomy = figure4_taxonomy()
    universe = taxonomy.universe
    domains = {name: sorted(universe[name].domain)
               for name in universe.attribute_names}
    draw = random.Random(2)
    points = [{name: draw.choice(domain) for name, domain in domains.items()}
              for _ in range(500)]

    def classify_all():
        return [taxonomy.classify(point).name for point in points]

    names = benchmark(classify_all)
    assert len(names) == 500
    assert set(names) <= set(taxonomy.leaf_names)


def test_fig4_broken_taxonomies_rejected(benchmark):
    """The completeness argument is load-bearing: non-MECE splits must
    fail fast at construction, not at audit time."""
    universe = Universe([
        CategoricalAttribute("kind", frozenset({"a", "b", "c"})),
        ContinuousAttribute("dv", 0.0, 70.0),
    ])

    def try_broken():
        failures = 0
        # Gap: category c uncovered.
        try:
            ClassificationNode("kind", [
                (CategoryBranch(frozenset({"a"})), "A"),
                (CategoryBranch(frozenset({"b"})), "B"),
            ], universe=universe)
        except TaxonomyError:
            failures += 1
        # Overlap: 10 km/h in both bands.
        try:
            ClassificationNode("dv", [
                (IntervalBranch(0.0, 12.0), "low"),
                (IntervalBranch(10.0, 70.0), "high"),
            ], universe=universe)
        except TaxonomyError:
            failures += 1
        # Gap in the continuous tiling.
        try:
            ClassificationNode("dv", [
                (IntervalBranch(0.0, 10.0), "low"),
                (IntervalBranch(20.0, 70.0), "high"),
            ], universe=universe)
        except TaxonomyError:
            failures += 1
        # One-ulp gap at 10 km/h: 10 itself is in neither band.
        try:
            ClassificationNode("dv", [
                (IntervalBranch(0.0, 10.0), "low"),
                (IntervalBranch(math.nextafter(10.0, math.inf), 70.0), "high"),
            ], universe=universe)
        except TaxonomyError:
            failures += 1
        # One-ulp overlap at 10 km/h: 10 itself is in both bands.
        try:
            ClassificationNode("dv", [
                (IntervalBranch(0.0, math.nextafter(10.0, math.inf)), "low"),
                (IntervalBranch(10.0, 70.0), "high"),
            ], universe=universe)
        except TaxonomyError:
            failures += 1
        return failures

    assert benchmark(try_broken) == 5
