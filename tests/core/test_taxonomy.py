"""Tests for MECE classification trees (Fig. 4)."""

from __future__ import annotations

import itertools
import math
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import taxonomy as taxonomy_module
from repro.core.taxonomy import (CategoricalAttribute, CategoryBranch,
                                 ClassificationNode, ContinuousAttribute,
                                 IncidentTaxonomy, IntervalBranch, Region,
                                 TaxonomyError, Universe, ego_vru_universe)


def cat(*values):
    return CategoryBranch(frozenset(values))


@pytest.fixture
def simple_universe():
    return Universe([
        CategoricalAttribute("kind", frozenset({"a", "b", "c"})),
        ContinuousAttribute("x", 0.0, 10.0),
    ])


class TestUniverse:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(TaxonomyError, match="duplicate"):
            Universe([CategoricalAttribute("a", frozenset({"x"})),
                      CategoricalAttribute("a", frozenset({"y"}))])

    def test_empty_categorical_domain_rejected(self):
        with pytest.raises(TaxonomyError, match="empty domain"):
            CategoricalAttribute("a", frozenset())

    def test_empty_continuous_domain_rejected(self):
        with pytest.raises(TaxonomyError, match="empty domain"):
            ContinuousAttribute("x", 5.0, 5.0)

    def test_validate_point(self, simple_universe):
        simple_universe.validate_point({"kind": "a", "x": 3.0})

    def test_validate_point_missing_attribute(self, simple_universe):
        with pytest.raises(ValueError, match="missing"):
            simple_universe.validate_point({"kind": "a"})

    def test_validate_point_out_of_domain(self, simple_universe):
        with pytest.raises(ValueError, match="outside"):
            simple_universe.validate_point({"kind": "z", "x": 3.0})
        with pytest.raises(ValueError, match="outside"):
            simple_universe.validate_point({"kind": "a", "x": 10.0})


class TestPartitionValidation:
    def test_overlapping_categories_rejected(self, simple_universe):
        with pytest.raises(TaxonomyError, match="exclusivity"):
            ClassificationNode("kind", [
                (cat("a", "b"), "L1"),
                (cat("b", "c"), "L2"),
            ], universe=simple_universe)

    def test_uncovered_categories_rejected(self, simple_universe):
        with pytest.raises(TaxonomyError, match="exhaustiveness"):
            ClassificationNode("kind", [
                (cat("a"), "L1"),
                (cat("b"), "L2"),
            ], universe=simple_universe)

    def test_overlapping_intervals_rejected(self, simple_universe):
        with pytest.raises(TaxonomyError, match="exclusivity"):
            ClassificationNode("x", [
                (IntervalBranch(0.0, 6.0), "L1"),
                (IntervalBranch(5.0, 10.0), "L2"),
            ], universe=simple_universe)

    def test_interval_gap_rejected(self, simple_universe):
        with pytest.raises(TaxonomyError, match="exhaustiveness"):
            ClassificationNode("x", [
                (IntervalBranch(0.0, 4.0), "L1"),
                (IntervalBranch(6.0, 10.0), "L2"),
            ], universe=simple_universe)

    def test_interval_shortfall_rejected(self, simple_universe):
        with pytest.raises(TaxonomyError, match="exhaustiveness"):
            ClassificationNode("x", [
                (IntervalBranch(0.0, 4.0), "L1"),
                (IntervalBranch(4.0, 9.0), "L2"),
            ], universe=simple_universe)

    def test_single_branch_rejected(self, simple_universe):
        with pytest.raises(TaxonomyError, match="two branches"):
            ClassificationNode("kind", [(cat("a", "b", "c"), "L1")],
                               universe=simple_universe)

    def test_wrong_branch_kind_rejected(self, simple_universe):
        with pytest.raises(TaxonomyError, match="categorical"):
            ClassificationNode("kind", [
                (IntervalBranch(0, 1), "L1"),
                (IntervalBranch(1, 2), "L2"),
            ], universe=simple_universe)

    @pytest.mark.parametrize("cut, high", [(math.nan, 10.0), (5.0, math.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_endpoint_rejected(self, simple_universe, cut, high):
        with pytest.raises(TaxonomyError, match="finite"):
            ClassificationNode("x", [
                (IntervalBranch(0.0, 5.0), "L1"),
                (IntervalBranch(cut, high), "L2"),
            ], universe=simple_universe)

    @pytest.mark.parametrize("first_high, second_low", [
        (5.0, math.nextafter(5.0, math.inf)),
        (math.nextafter(5.0, math.inf), 5.0),
    ], ids=["gap", "overlap"])
    def test_one_ulp_defect_names_both_endpoints(self, simple_universe,
                                                 first_high, second_low):
        with pytest.raises(TaxonomyError) as caught:
            ClassificationNode("x", [
                (IntervalBranch(0.0, first_high), "L1"),
                (IntervalBranch(second_low, 10.0), "L2"),
            ], universe=simple_universe)
        numbers = re.findall(r"-?\d+\.\d+(?:e[-+]?\d+)?", str(caught.value))
        assert repr(first_high) in numbers and repr(second_low) in numbers

    def test_valid_tiling_accepted(self, simple_universe):
        node = ClassificationNode("x", [
            (IntervalBranch(0.0, 5.0), "low"),
            (IntervalBranch(5.0, 10.0), "high"),
        ], universe=simple_universe)
        assert node.classify({"kind": "a", "x": 4.999}).name == "low"
        assert node.classify({"kind": "a", "x": 5.0}).name == "high"


class TestNestedSplits:
    def test_nested_interval_split_respects_scope(self, simple_universe):
        inner = ClassificationNode("x", [
            (IntervalBranch(0.0, 2.0), "a-low"),
            (IntervalBranch(2.0, 10.0), "a-high"),
        ], universe=simple_universe)
        tree = ClassificationNode("kind", [
            (cat("a"), inner),
            (cat("b", "c"), "others"),
        ], universe=simple_universe)
        taxonomy = IncidentTaxonomy("nested", simple_universe, tree)
        assert taxonomy.classify({"kind": "a", "x": 1.0}).name == "a-low"
        assert taxonomy.classify({"kind": "b", "x": 1.0}).name == "others"
        assert taxonomy.mece_certificate().is_mece

    def test_re_splitting_same_attribute_refines(self, simple_universe):
        # Refining an attribute already constrained upstream requires the
        # subtree to declare its scope via ``region``.
        scope = Region().constrain("x", IntervalBranch(0.0, 5.0))
        inner = ClassificationNode("x", [
            (IntervalBranch(0.0, 2.0), "low-low"),
            (IntervalBranch(2.0, 5.0), "low-high"),
        ], universe=simple_universe, region=scope)
        outer = ClassificationNode("x", [
            (IntervalBranch(0.0, 5.0), inner),
            (IntervalBranch(5.0, 10.0), "high"),
        ], universe=simple_universe)
        taxonomy = IncidentTaxonomy("refine", simple_universe, outer)
        assert taxonomy.mece_certificate().is_mece

    def test_re_splitting_without_scope_fails_fast(self, simple_universe):
        with pytest.raises(TaxonomyError, match="exhaustiveness"):
            ClassificationNode("x", [
                (IntervalBranch(0.0, 2.0), "low-low"),
                (IntervalBranch(2.0, 5.0), "low-high"),
            ], universe=simple_universe)

    def test_duplicate_leaf_names_rejected(self, simple_universe):
        tree = ClassificationNode("kind", [
            (cat("a"), "same"),
            (cat("b", "c"), "same"),
        ], universe=simple_universe)
        with pytest.raises(TaxonomyError, match="duplicate leaf"):
            IncidentTaxonomy("dupes", simple_universe, tree)


class TestRegion:
    def test_constrain_and_contains(self):
        region = Region().constrain("kind", cat("a", "b"))
        assert region.contains({"kind": "a", "x": 1.0})
        assert not region.contains({"kind": "c", "x": 1.0})

    def test_intersecting_constraints(self):
        region = (Region()
                  .constrain("x", IntervalBranch(0.0, 5.0))
                  .constrain("x", IntervalBranch(2.0, 10.0)))
        assert region.contains({"x": 3.0})
        assert not region.contains({"x": 1.0})

    def test_disjoint_intersection_rejected(self):
        with pytest.raises(TaxonomyError, match="disjoint"):
            (Region()
             .constrain("x", IntervalBranch(0.0, 2.0))
             .constrain("x", IntervalBranch(5.0, 10.0)))

    def test_label(self):
        assert Region().label() == "⊤"
        assert "kind" in Region().constrain("kind", cat("a")).label()


class TestFigure4:
    def test_leaf_count(self, fig4_taxonomy):
        # 6 ego-involved counterparts + 8 induced pairs (Fig. 4).
        assert len(fig4_taxonomy.leaves) == 14

    def test_certificate_is_mece(self, fig4_taxonomy):
        certificate = fig4_taxonomy.mece_certificate()
        assert certificate.is_mece
        assert certificate.points_checked == 96
        assert certificate.structural_checks == 3

    def test_classify_ego_vru(self, fig4_taxonomy):
        leaf = fig4_taxonomy.classify({
            "involvement": "ego_involved",
            "counterpart": "vru",
            "induced_pair": "car-vru",
        })
        assert leaf.name == "Ego<->VRU"

    def test_classify_induced(self, fig4_taxonomy):
        leaf = fig4_taxonomy.classify({
            "involvement": "induced",
            "counterpart": "car",
            "induced_pair": "other-other",
        })
        assert leaf.name == "Induced:Other<->Other"

    def test_render_mentions_all_leaves(self, fig4_taxonomy):
        rendering = fig4_taxonomy.render()
        for name in fig4_taxonomy.leaf_names:
            assert name in rendering

    def test_unknown_leaf_lookup(self, fig4_taxonomy):
        with pytest.raises(KeyError):
            fig4_taxonomy.leaf("Ego<->Dragon")

    def test_ego_vru_universe_bounds(self):
        universe = ego_vru_universe(max_delta_v_kmh=70.0)
        with pytest.raises(ValueError):
            universe.validate_point({
                "contact": "collision", "delta_v_kmh": 75.0,
                "distance_m": 0.0, "approach_speed_kmh": 50.0})


@st.composite
def interval_partitions(draw):
    """Random tilings of [0, 100) into 2-6 half-open intervals."""
    cuts = draw(st.lists(st.floats(min_value=1.0, max_value=99.0,
                                   allow_nan=False),
                         min_size=1, max_size=5, unique=True))
    edges = [0.0] + sorted(cuts) + [100.0]
    return [IntervalBranch(lo, hi) for lo, hi in zip(edges, edges[1:])]


class TestMeceProperty:
    @given(partition=interval_partitions(),
           probe=st.floats(min_value=0.0, max_value=99.999,
                           allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_random_interval_partition_is_mece(self, partition, probe):
        """Any valid tiling classifies every point to exactly one leaf."""
        universe = Universe([ContinuousAttribute("x", 0.0, 100.0)])
        node = ClassificationNode(
            "x", [(branch, f"leaf{i}") for i, branch in enumerate(partition)],
            universe=universe)
        taxonomy = IncidentTaxonomy("random", universe, node)
        owners = [leaf.name for leaf in taxonomy.leaves
                  if leaf.region.contains({"x": probe})]
        assert len(owners) == 1
        assert taxonomy.classify({"x": probe}).name == owners[0]


# -- decided MECE over random trees ----------------------------------------------
#
# A tree spec is ``(attribute, region, [(branch, child spec or leaf name)])``.
# Specs are drawn, then built in the test body, so construction (and its
# validation) happens where the test can catch or patch it.

UP, DOWN = math.inf, -math.inf


@st.composite
def _attributes(draw, continuous_first=False):
    """1–3 attributes: categorical domains of 2–3 labels, or finite ranges."""
    attributes = []
    for index in range(draw(st.integers(1, 3))):
        if (continuous_first and index == 0) or draw(st.booleans()):
            low = draw(st.floats(-1e3, 1e3))
            width = draw(st.floats(1e-6, 1e3))
            attributes.append(ContinuousAttribute(f"x{index}", low, low + width))
        else:
            size = draw(st.integers(2, 3))
            attributes.append(CategoricalAttribute(
                f"c{index}", frozenset(f"v{k}" for k in range(size))))
    return attributes


def _scope(attr, region):
    """The categories, or the ``(low, high)`` range, ``attr`` has in ``region``."""
    constraint = region.constraint_on(attr.name)
    if isinstance(attr, CategoricalAttribute):
        return constraint.categories if constraint else attr.domain
    return (constraint.low, constraint.high) if constraint else (attr.low, attr.high)


def _splittable(attr, region):
    scope = _scope(attr, region)
    if isinstance(attr, CategoricalAttribute):
        return len(scope) >= 2
    return math.nextafter(scope[0], UP) < scope[1]


@st.composite
def _category_split(draw, categories):
    order = draw(st.permutations(sorted(categories)))
    inner = draw(st.lists(st.integers(1, len(order) - 1), min_size=1,
                          max_size=2, unique=True))
    edges = [0, *sorted(inner), len(order)]
    return [CategoryBranch(frozenset(order[a:b])) for a, b in zip(edges, edges[1:])]


@st.composite
def _interval_split(draw, low, high):
    """2–3 intervals tiling ``[low, high)``; neighbouring edges may be one
    ulp apart."""
    inside = st.floats(low, high, exclude_min=True, exclude_max=True)
    cut = draw(st.one_of(inside, st.sampled_from(
        [math.nextafter(low, UP), math.nextafter(high, DOWN)])))
    cuts = {cut}
    if draw(st.booleans()):
        extra = draw(st.one_of(inside, st.sampled_from(
            [math.nextafter(cut, DOWN), math.nextafter(cut, UP)])))
        if low < extra < high:
            cuts.add(extra)
    edges = [low, *sorted(cuts), high]
    return [IntervalBranch(a, b) for a, b in zip(edges, edges[1:])]


@st.composite
def _tree_specs(draw, max_depth=3, continuous_first=False):
    """``(universe, spec, cells)`` of a random valid tree nested up to
    ``max_depth`` splits; ``cells`` counts its elementary cells from the
    endpoints drawn, independently of the certificate."""
    attributes = draw(_attributes(continuous_first))
    universe = Universe(attributes)
    cuts = {a.name: {a.low} for a in attributes
            if isinstance(a, ContinuousAttribute)}
    names = itertools.count()

    def node(region, depth):
        options = [a for a in attributes if _splittable(a, region)]
        if depth > max_depth or not options or (depth > 1 and draw(st.booleans())):
            return f"L{next(names)}"
        attr = draw(st.sampled_from(options))
        if isinstance(attr, CategoricalAttribute):
            branches = draw(_category_split(_scope(attr, region)))
        else:
            branches = draw(_interval_split(*_scope(attr, region)))
            cuts[attr.name].update(branch.low for branch in branches)
        return (attr.name, region,
                [(branch, node(region.constrain(attr.name, branch), depth + 1))
                 for branch in branches])

    spec = node(Region(), 1)
    cells = math.prod(len(cuts[a.name]) if a.name in cuts else len(a.domain)
                      for a in attributes)
    return universe, spec, cells


def _leaf_slots(spec):
    """``(children, index, region)`` of every leaf in a spec."""
    attribute, region, children = spec
    for index, (branch, child) in enumerate(children):
        if isinstance(child, str):
            yield children, index, region.constrain(attribute, branch)
        else:
            yield from _leaf_slots(child)


@st.composite
def _broken_specs(draw, defects=("gap", "overlap", "escape")):
    """``(universe, spec, defect)``: a valid tree with one leaf split on
    ``x0`` into intervals one ulp off — a gap, an overlap, or an escape
    from the leaf's scope."""
    universe, spec, _ = draw(_tree_specs(max_depth=2, continuous_first=True))
    children, index, region = draw(st.sampled_from(list(_leaf_slots(spec))))
    low, high = _scope(universe["x0"], region)
    assume(math.nextafter(low, UP) < high)
    cut = draw(st.floats(low, high, exclude_min=True, exclude_max=True))
    defect = draw(st.sampled_from(defects))
    if defect == "gap":
        edges = [(low, cut), (math.nextafter(cut, UP), high)]
    elif defect == "overlap":
        edges = [(low, math.nextafter(cut, UP)), (cut, high)]
    elif draw(st.booleans()):
        edges = [(math.nextafter(low, DOWN), cut), (cut, high)]
    else:
        edges = [(low, cut), (cut, math.nextafter(high, UP))]
    assume(all(a < b for a, b in edges))
    branch = children[index][0]
    children[index] = (branch, ("x0", region, [
        (IntervalBranch(a, b), f"defect{k}") for k, (a, b) in enumerate(edges)]))
    return universe, spec, defect


def _build(spec, universe):
    if isinstance(spec, str):
        return spec
    attribute, region, children = spec
    return ClassificationNode(
        attribute, [(branch, _build(child, universe)) for branch, child in children],
        universe=universe, region=region)


def _probes(taxonomy):
    """Every cell corner, and per continuous axis ``nextafter(corner, +inf)``
    and ``nextafter(next_cut, -inf)``, with cuts read off the leaves."""
    axes = []
    for name in taxonomy.universe.attribute_names:
        attr = taxonomy.universe[name]
        if isinstance(attr, CategoricalAttribute):
            axes.append(sorted(attr.domain))
            continue
        edges = {attr.low, attr.high}
        for leaf in taxonomy.leaves:
            branch = leaf.region.constraint_on(name)
            if branch is not None:
                edges |= {branch.low, branch.high}
        edges = sorted(edges)
        values = set()
        for corner, following in zip(edges, edges[1:]):
            values.update(value for value in (corner, math.nextafter(corner, UP),
                                              math.nextafter(following, DOWN))
                          if value < following)
        axes.append(sorted(values))
    names = taxonomy.universe.attribute_names
    return [dict(zip(names, combo)) for combo in itertools.product(*axes)]


def _owners(taxonomy, point):
    return [leaf.name for leaf in taxonomy.leaves if leaf.region.contains(point)]


class TestDecidedCertificate:
    """The certificate decides MECE cell by cell; brute force agrees."""

    @given(tree=_tree_specs())
    @settings(max_examples=80, deadline=None)
    def test_valid_tree_is_mece_at_every_cell(self, tree):
        universe, spec, cells = tree
        taxonomy = IncidentTaxonomy("random", universe, _build(spec, universe))
        certificate = taxonomy.mece_certificate()
        assert certificate.is_mece, certificate.violations[:3]
        assert certificate.points_checked == cells
        for point in _probes(taxonomy):
            owners = _owners(taxonomy, point)
            assert len(owners) == 1, (point, owners)
            assert taxonomy.classify(point).name == owners[0]

    @given(broken=_broken_specs())
    @settings(max_examples=80, deadline=None)
    def test_one_ulp_defect_fails_construction(self, broken):
        universe, spec, defect = broken
        expected = {"gap": "gap", "overlap": "overlap", "escape": "escapes scope"}
        with pytest.raises(TaxonomyError, match=expected[defect]):
            _build(spec, universe)

    @given(broken=_broken_specs(defects=("gap", "overlap")))
    @settings(max_examples=80, deadline=None)
    def test_certificate_decides_without_construction_checks(self, broken):
        universe, spec, defect = broken
        with mock.patch.object(taxonomy_module, "_validate_partition",
                               lambda *args: None):
            taxonomy = IncidentTaxonomy("broken", universe, _build(spec, universe))
        certificate = taxonomy.mece_certificate()
        assert not certificate.is_mece
        for violation in certificate.violations:
            assert violation.kind == defect
            assert len(_owners(taxonomy, violation.point)) != 1


class TestRefineLeaf:
    @pytest.fixture
    def coarse(self):
        universe = Universe([
            CategoricalAttribute("kind", frozenset({"a", "b"})),
            ContinuousAttribute("dv", 0.0, 70.0),
        ])
        root = ClassificationNode("kind", [
            (cat("a"), "A"),
            (cat("b"), "B"),
        ], universe=universe)
        return IncidentTaxonomy("coarse", universe, root)

    def test_refinement_preserves_mece(self, coarse):
        refined = coarse.refine_leaf("A", "dv", [
            (IntervalBranch(0.0, 10.0), "A-low"),
            (IntervalBranch(10.0, 70.0), "A-high"),
        ])
        assert set(refined.leaf_names) == {"A-low", "A-high", "B"}
        assert refined.mece_certificate().is_mece

    def test_original_untouched(self, coarse):
        coarse.refine_leaf("A", "dv", [
            (IntervalBranch(0.0, 10.0), "A-low"),
            (IntervalBranch(10.0, 70.0), "A-high"),
        ])
        assert coarse.leaf_names == ("A", "B")
        assert coarse.mece_certificate().is_mece

    def test_refined_classification_routes_correctly(self, coarse):
        refined = coarse.refine_leaf("A", "dv", [
            (IntervalBranch(0.0, 10.0), "A-low"),
            (IntervalBranch(10.0, 70.0), "A-high"),
        ])
        assert refined.classify({"kind": "a", "dv": 5.0}).name == "A-low"
        assert refined.classify({"kind": "a", "dv": 30.0}).name == "A-high"
        assert refined.classify({"kind": "b", "dv": 30.0}).name == "B"

    def test_invalid_subsplit_rejected(self, coarse):
        with pytest.raises(TaxonomyError, match="exhaustiveness"):
            coarse.refine_leaf("A", "dv", [
                (IntervalBranch(0.0, 10.0), "A-low"),
                (IntervalBranch(20.0, 70.0), "A-high"),
            ])

    def test_unknown_leaf_rejected(self, coarse):
        with pytest.raises(KeyError):
            coarse.refine_leaf("C", "dv", [
                (IntervalBranch(0.0, 35.0), "x"),
                (IntervalBranch(35.0, 70.0), "y"),
            ])

    def test_nested_refinement(self, coarse):
        """Refining twice (including re-splitting the refined attribute)
        keeps the certificate clean."""
        once = coarse.refine_leaf("A", "dv", [
            (IntervalBranch(0.0, 10.0), "A-low"),
            (IntervalBranch(10.0, 70.0), "A-high"),
        ])
        twice = once.refine_leaf("A-high", "dv", [
            (IntervalBranch(10.0, 40.0), "A-mid"),
            (IntervalBranch(40.0, 70.0), "A-top"),
        ])
        assert set(twice.leaf_names) == {"A-low", "A-mid", "A-top", "B"}
        assert twice.mece_certificate().is_mece
        assert twice.classify({"kind": "a", "dv": 50.0}).name == "A-top"

    def test_fig4_leaf_refinement(self, fig4_taxonomy):
        """The paper's own flow: Fig. 4's Ego<->VRU leaf is elaborated
        (into Fig. 5's types); here via the induced_pair axis analogue —
        split an induced leaf by its attribute's remaining scope."""
        refined = fig4_taxonomy.refine_leaf(
            "Ego<->VRU", "induced_pair",
            [(CategoryBranch(frozenset({"car-vru", "car-car", "car-truck",
                                        "car-road_user"})), "Ego<->VRU/a"),
             (CategoryBranch(frozenset({"car-non_human", "truck-road_user",
                                        "car-other", "other-other"})),
              "Ego<->VRU/b")])
        assert refined.mece_certificate().is_mece
        assert len(refined.leaves) == len(fig4_taxonomy.leaves) + 1
