"""MECE incident classification trees.

Implements Sec. III-B / Fig. 4.  The QRN approach replaces the HARA's open
list of hazards×situations with a *classification* of incidents, and gains
its completeness argument from the classification being **MECE** — mutually
exclusive and collectively exhaustive — "so that any possible conceivable
incident falls into one of the classes".

Completeness must be *checkable*, not asserted, so the tree here is built
from machine-verifiable splits over a declared attribute universe:

* a :class:`Universe` names the attributes an incident description has
  (categorical sets and continuous ranges);
* every internal :class:`ClassificationNode` splits on exactly one
  attribute, and the split is validated to partition that attribute's
  remaining domain (pairwise disjoint, jointly covering);
* hence every leaf corresponds to a product region, and the leaf regions
  partition the universe — MECE *by construction*, with
  :meth:`IncidentTaxonomy.mece_certificate` producing the audit trail and an
  independent, cell-by-cell decision that every incident has one owner.

The Fig. 4 example tree (Ego↔road-user / Ego↔non-human / induced incidents
among third parties) is reconstructed by :func:`figure4_taxonomy`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import (Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

__all__ = [
    "ActorClass",
    "CategoricalAttribute",
    "ContinuousAttribute",
    "Universe",
    "Region",
    "CategoryBranch",
    "IntervalBranch",
    "ClassificationNode",
    "Leaf",
    "IncidentTaxonomy",
    "MeceCertificate",
    "MeceViolation",
    "TaxonomyError",
    "figure4_taxonomy",
    "ego_vru_universe",
]


class TaxonomyError(ValueError):
    """Raised when a tree fails structural or MECE validation."""


class ActorClass(Enum):
    """Traffic actor categories used in the Fig. 4 example classification."""

    EGO = "ego"
    CAR = "car"
    TRUCK = "truck"
    VRU = "vru"              #: vulnerable road user (pedestrian, cyclist, ...)
    ANIMAL = "animal"        #: the paper's elk
    STATIC_OBJECT = "static_object"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class CategoricalAttribute:
    """A finite-domain attribute of an incident description."""

    name: str
    domain: FrozenSet[str]

    def __post_init__(self) -> None:
        if not self.domain:
            raise TaxonomyError(f"attribute {self.name!r} has an empty domain")


@dataclass(frozen=True)
class ContinuousAttribute:
    """A bounded real-valued attribute, domain ``[low, high)``.

    Tolerance margins (impact speed, distance) are intervals over these.
    The upper bound is the edge of what the classification claims to cover;
    exhaustiveness is proven relative to it, so it should be chosen
    generously (e.g. max credible Δv inside the ODD).
    """

    name: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise TaxonomyError(f"attribute {self.name!r} bounds must be finite")
        if self.low >= self.high:
            raise TaxonomyError(
                f"attribute {self.name!r} has empty domain [{self.low}, {self.high})"
            )


Attribute = Union[CategoricalAttribute, ContinuousAttribute]


class Universe:
    """The declared space of all conceivable incidents.

    The exhaustiveness half of MECE is only meaningful relative to a stated
    universe; this object is that statement.  An incident description is a
    mapping from attribute name to a category label or a float.
    """

    def __init__(self, attributes: Sequence[Attribute]):
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise TaxonomyError("duplicate attribute names in universe")
        self._attributes: Dict[str, Attribute] = {a.name: a for a in attributes}

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(self._attributes)

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._attributes[name]
        except KeyError:
            raise KeyError(
                f"unknown attribute {name!r}; known: {sorted(self._attributes)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._attributes

    def validate_point(self, point: Mapping[str, object]) -> None:
        """Check a point lies inside the universe; raise ``ValueError`` if not."""
        missing = set(self._attributes) - set(point)
        if missing:
            raise ValueError(f"point missing attributes: {sorted(missing)}")
        for name, attr in self._attributes.items():
            value = point[name]
            if isinstance(attr, CategoricalAttribute):
                if value not in attr.domain:
                    raise ValueError(
                        f"{name}={value!r} outside domain {sorted(attr.domain)}"
                    )
            else:
                if not isinstance(value, (int, float)):
                    raise ValueError(f"{name} must be numeric, got {value!r}")
                if not (attr.low <= float(value) < attr.high):
                    raise ValueError(
                        f"{name}={value} outside [{attr.low}, {attr.high})"
                    )


# -- branch matchers ---------------------------------------------------------


@dataclass(frozen=True)
class CategoryBranch:
    """A branch of a categorical split: matches a subset of categories."""

    categories: FrozenSet[str]

    def __post_init__(self) -> None:
        if not self.categories:
            raise TaxonomyError("a category branch must match at least one category")

    def matches(self, value: object) -> bool:
        return value in self.categories

    def label(self) -> str:
        return "|".join(sorted(self.categories))


@dataclass(frozen=True)
class IntervalBranch:
    """A branch of a continuous split: matches ``[low, high)``.

    Half-open intervals make exclusivity at shared boundaries exact — the
    paper's "below or above 10 km/h" bands are ``[0, 10)`` and ``[10, 70)``.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise TaxonomyError(
                f"interval endpoints must be finite, got [{self.low}, {self.high})")
        if self.low >= self.high:
            raise TaxonomyError(f"empty interval [{self.low}, {self.high})")

    def matches(self, value: object) -> bool:
        return isinstance(value, (int, float)) and self.low <= float(value) < self.high

    def label(self) -> str:
        return f"[{self.low:g},{self.high:g})"


Branch = Union[CategoryBranch, IntervalBranch]


# -- tree nodes ---------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A terminal class of the taxonomy — one incident type candidate.

    ``region`` is the product of constraints accumulated from the root;
    ``name`` is the human identifier (e.g. ``"Ego<->VRU"``).
    """

    name: str
    region: "Region"
    description: str = ""


@dataclass(frozen=True)
class Region:
    """A product region of the universe: per-attribute constraints.

    Attributes not mentioned are unconstrained.  Regions are how leaves
    state, checkably, which incidents they own.
    """

    constraints: Tuple[Tuple[str, Branch], ...] = ()

    def constrain(self, attribute: str, branch: Branch) -> "Region":
        """This region further restricted on ``attribute`` by ``branch``."""
        existing = dict(self.constraints)
        if attribute in existing:
            prior = existing[attribute]
            merged = _intersect_branches(prior, branch)
            if merged is None:
                raise TaxonomyError(
                    f"re-splitting {attribute!r} with disjoint constraint "
                    f"{branch.label()} under {prior.label()}"
                )
            existing[attribute] = merged
        else:
            existing[attribute] = branch
        return Region(tuple(sorted(existing.items())))

    def contains(self, point: Mapping[str, object]) -> bool:
        return all(branch.matches(point[name]) for name, branch in self.constraints)

    def constraint_on(self, attribute: str) -> Optional[Branch]:
        return dict(self.constraints).get(attribute)

    def label(self) -> str:
        if not self.constraints:
            return "⊤"
        return " & ".join(f"{name}∈{branch.label()}" for name, branch in self.constraints)


def _intersect_branches(a: Branch, b: Branch) -> Optional[Branch]:
    """Intersection of two branches on the same attribute, or ``None`` if empty."""
    if isinstance(a, CategoryBranch) and isinstance(b, CategoryBranch):
        common = a.categories & b.categories
        return CategoryBranch(common) if common else None
    if isinstance(a, IntervalBranch) and isinstance(b, IntervalBranch):
        low, high = max(a.low, b.low), min(a.high, b.high)
        return IntervalBranch(low, high) if low < high else None
    raise TaxonomyError("cannot mix categorical and interval constraints on one attribute")


class ClassificationNode:
    """An internal node: a validated partition of one attribute.

    The constructor checks the *local* MECE property of the split —
    branches are pairwise disjoint and jointly cover the attribute's
    remaining domain under this node — so a fully built tree is MECE by
    induction.  Invalid splits fail fast at construction, not at audit.
    """

    def __init__(self, attribute: str,
                 branches: Sequence[Tuple[Branch, "ClassificationNode | Leaf | str"]],
                 *, universe: Universe, region: Optional[Region] = None):
        if len(branches) < 2:
            raise TaxonomyError(f"split on {attribute!r} needs at least two branches")
        self.attribute = attribute
        self.region = region if region is not None else Region()
        attr = universe[attribute]
        branch_objs = [b for b, _ in branches]
        _validate_partition(attr, self.region.constraint_on(attribute), branch_objs)
        self.children: List[Tuple[Branch, Union["ClassificationNode", Leaf]]] = []
        for branch, child in branches:
            child_region = self.region.constrain(attribute, branch)
            if isinstance(child, str):
                resolved: Union[ClassificationNode, Leaf] = Leaf(child, child_region)
            elif isinstance(child, Leaf):
                resolved = Leaf(child.name, child_region, child.description)
            else:
                child._rebase(child_region, universe)
                resolved = child
            self.children.append((branch, resolved))

    def _rebase(self, region: Region, universe: Universe) -> None:
        """Push an updated ancestor region down through this subtree."""
        rebuilt: List[Tuple[Branch, Union[ClassificationNode, Leaf]]] = []
        attr = universe[self.attribute]
        _validate_partition(attr, region.constraint_on(self.attribute),
                            [b for b, _ in self.children])
        for branch, child in self.children:
            child_region = region.constrain(self.attribute, branch)
            if isinstance(child, Leaf):
                rebuilt.append((branch, Leaf(child.name, child_region, child.description)))
            else:
                child._rebase(child_region, universe)
                rebuilt.append((branch, child))
        self.region = region
        self.children = rebuilt

    def classify(self, point: Mapping[str, object]) -> Leaf:
        value = point[self.attribute]
        for branch, child in self.children:
            if branch.matches(value):
                if isinstance(child, Leaf):
                    return child
                return child.classify(point)
        raise TaxonomyError(
            f"point escaped validated split on {self.attribute!r} "
            f"(value {value!r}) — universe/point mismatch"
        )

    def leaves(self) -> Iterator[Leaf]:
        for _, child in self.children:
            if isinstance(child, Leaf):
                yield child
            else:
                yield from child.leaves()


def _validate_partition(attr: Attribute, scope: Optional[Branch],
                        branches: Sequence[Branch]) -> None:
    """Check branches partition the attribute's domain restricted to ``scope``.

    Interval endpoints are compared exactly: one ulp apart is a gap or an
    overlap, never a tolerance.
    """
    if isinstance(attr, CategoricalAttribute):
        domain = attr.domain if scope is None else attr.domain & scope.categories  # type: ignore[union-attr]
        cat_branches: List[CategoryBranch] = []
        for branch in branches:
            if not isinstance(branch, CategoryBranch):
                raise TaxonomyError(
                    f"attribute {attr.name!r} is categorical but got interval branch"
                )
            stray = branch.categories - domain
            if stray:
                raise TaxonomyError(
                    f"branch on {attr.name!r} references categories outside its "
                    f"scope: {sorted(stray)}"
                )
            cat_branches.append(branch)
        seen: set = set()
        for branch in cat_branches:
            overlap = seen & branch.categories
            if overlap:
                raise TaxonomyError(
                    f"branches on {attr.name!r} overlap on {sorted(overlap)} "
                    "(mutual exclusivity violated)"
                )
            seen |= branch.categories
        uncovered = domain - seen
        if uncovered:
            raise TaxonomyError(
                f"branches on {attr.name!r} do not cover {sorted(uncovered)} "
                "(collective exhaustiveness violated)"
            )
    else:
        low = attr.low if scope is None else max(attr.low, scope.low)  # type: ignore[union-attr]
        high = attr.high if scope is None else min(attr.high, scope.high)  # type: ignore[union-attr]
        intervals: List[IntervalBranch] = []
        for branch in branches:
            if not isinstance(branch, IntervalBranch):
                raise TaxonomyError(
                    f"attribute {attr.name!r} is continuous but got category branch"
                )
            if branch.low < low or branch.high > high:
                raise TaxonomyError(
                    f"interval {_exact(branch.low, branch.high)} on "
                    f"{attr.name!r} escapes scope {_exact(low, high)}"
                )
            intervals.append(branch)
        intervals.sort(key=lambda b: b.low)
        for first, second in zip(intervals, intervals[1:]):
            if second.low < first.high:
                raise TaxonomyError(
                    f"intervals {_exact(first.low, first.high)} and "
                    f"{_exact(second.low, second.high)} on {attr.name!r} "
                    "overlap (mutual exclusivity violated)"
                )
            if second.low > first.high:
                raise TaxonomyError(
                    f"gap {_exact(first.high, second.low)} on {attr.name!r} "
                    "uncovered (collective exhaustiveness violated)"
                )
        if intervals[0].low != low or intervals[-1].high != high:
            raise TaxonomyError(
                f"intervals on {attr.name!r} cover "
                f"{_exact(intervals[0].low, intervals[-1].high)} but scope is "
                f"{_exact(low, high)} (collective exhaustiveness violated)"
            )


def _exact(low: float, high: float) -> str:
    """``[low, high)`` with each endpoint in its shortest round-trip form."""
    return f"[{float(low)!r}, {float(high)!r})"


# -- certificate ---------------------------------------------------------------


@dataclass(frozen=True)
class MeceViolation:
    """One detected violation of mutual exclusivity or exhaustiveness."""

    kind: str            #: "overlap" | "gap"
    detail: str
    point: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class MeceCertificate:
    """The completeness evidence attached to a set of safety goals.

    ``structural_checks`` counts the per-split partition validations (which
    hold by construction); ``points_checked`` counts the elementary cells
    the certificate decided, each of which must lie in exactly one leaf.
    An empty ``violations`` list is the certificate of Sec. III-B's
    "complete by definition" claim, now machine-checked.
    """

    taxonomy_name: str
    leaf_names: Tuple[str, ...]
    structural_checks: int
    points_checked: int
    violations: Tuple[MeceViolation, ...]

    @property
    def is_mece(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "MECE" if self.is_mece else f"{len(self.violations)} VIOLATION(S)"
        return (f"{self.taxonomy_name}: {len(self.leaf_names)} leaves, "
                f"{self.structural_checks} split validations, "
                f"{self.points_checked} cells decided → {status}")


class IncidentTaxonomy:
    """A complete classification tree over a declared universe (Fig. 4)."""

    def __init__(self, name: str, universe: Universe, root: ClassificationNode):
        self.name = name
        self.universe = universe
        self.root = root
        leaves = list(root.leaves())
        names = [leaf.name for leaf in leaves]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TaxonomyError(f"duplicate leaf names: {dupes}")
        self._leaves: Dict[str, Leaf] = {leaf.name: leaf for leaf in leaves}
        self._splits = _count_splits(root)

    @property
    def leaves(self) -> Tuple[Leaf, ...]:
        return tuple(self._leaves.values())

    @property
    def leaf_names(self) -> Tuple[str, ...]:
        return tuple(self._leaves)

    def leaf(self, name: str) -> Leaf:
        try:
            return self._leaves[name]
        except KeyError:
            raise KeyError(
                f"unknown leaf {name!r}; known: {sorted(self._leaves)}"
            ) from None

    def classify(self, point: Mapping[str, object]) -> Leaf:
        """Assign an incident description to its unique leaf."""
        self.universe.validate_point(point)
        return self.root.classify(point)

    def mece_certificate(self) -> MeceCertificate:
        """Decide the completeness certificate, independently of construction.

        Every leaf region, and every branch ``classify`` takes, is constant
        on each elementary cell of :meth:`_cell_corners`, so one point per
        cell decides the whole universe: the cell's lower corner must lie in
        exactly one leaf region, and ``classify`` must route it to that
        leaf.  A violation carries the corner as its witness.
        """
        violations: List[MeceViolation] = []
        corners = self._cell_corners()
        for point in corners:
            owners = [leaf.name for leaf in self._leaves.values()
                      if leaf.region.contains(point)]
            if len(owners) == 0:
                violations.append(MeceViolation("gap", "no leaf owns point", point))
            elif len(owners) > 1:
                violations.append(MeceViolation(
                    "overlap", f"leaves {owners} all own point", point))
            else:
                routed = self.root.classify(point)
                if routed.name != owners[0]:
                    violations.append(MeceViolation(
                        "overlap",
                        f"classify routed to {routed.name} but region owner is {owners[0]}",
                        point))
        return MeceCertificate(
            taxonomy_name=self.name,
            leaf_names=self.leaf_names,
            structural_checks=self._splits,
            points_checked=len(corners),
            violations=tuple(violations),
        )

    def _cell_corners(self) -> List[Dict[str, object]]:
        """The lower corner of every elementary cell of the universe.

        Each category is a cell; a continuous attribute is cut at its low
        end and at every leaf interval endpoint in ``[low, high)``, which
        includes every branch endpoint on the way to a leaf.
        """
        names = self.universe.attribute_names
        axes: List[List[object]] = []
        for name in names:
            attr = self.universe[name]
            if isinstance(attr, CategoricalAttribute):
                axes.append(sorted(attr.domain))
                continue
            cuts = {attr.low}
            for leaf in self._leaves.values():
                branch = leaf.region.constraint_on(name)
                if isinstance(branch, IntervalBranch):
                    cuts.update(edge for edge in (branch.low, branch.high)
                                if attr.low <= edge < attr.high)
            axes.append(sorted(cuts))
        return [dict(zip(names, corner)) for corner in itertools.product(*axes)]

    def refine_leaf(self, leaf_name: str, attribute: str,
                    branches: Sequence[Tuple[Branch, "ClassificationNode | Leaf | str"]],
                    *, name: Optional[str] = None) -> "IncidentTaxonomy":
        """A new taxonomy with one leaf split into a validated sub-partition.

        This is how a classification evolves during development (Sec.
        III-B: choosing incident types is partly a design activity):
        start coarse, split a leaf when the refined requirements can
        exploit the distinction.  The split is validated against the
        leaf's accumulated region, so MECE is preserved by construction;
        the original taxonomy is untouched.
        """
        target = self.leaf(leaf_name)
        replacement = ClassificationNode(attribute, list(branches),
                                         universe=self.universe,
                                         region=target.region)
        new_root = _copy_with_replacement(self.root, leaf_name, replacement,
                                          self.universe)
        return IncidentTaxonomy(
            name if name is not None else f"{self.name} (refined)",
            self.universe, new_root)

    def render(self) -> str:
        """ASCII rendering of the tree (reproduces the shape of Fig. 4)."""
        lines: List[str] = [self.name]
        _render_node(self.root, lines, prefix="")
        return "\n".join(lines)


def _copy_with_replacement(node: ClassificationNode, leaf_name: str,
                           replacement: ClassificationNode,
                           universe: Universe) -> ClassificationNode:
    """Rebuild a tree with one named leaf swapped for a subtree.

    Fresh nodes are constructed throughout (construction re-validates and
    re-bases regions), so the source tree is never mutated.
    """
    children: List[Tuple[Branch, "ClassificationNode | Leaf"]] = []
    for branch, child in node.children:
        if isinstance(child, Leaf):
            if child.name == leaf_name:
                children.append((branch, replacement))
            else:
                children.append((branch, Leaf(child.name, child.region,
                                              child.description)))
        else:
            children.append((branch, _copy_with_replacement(
                child, leaf_name, replacement, universe)))
    return ClassificationNode(node.attribute, children, universe=universe,
                              region=node.region)


def _count_splits(node: ClassificationNode) -> int:
    total = 1
    for _, child in node.children:
        if isinstance(child, ClassificationNode):
            total += _count_splits(child)
    return total


def _render_node(node: ClassificationNode, lines: List[str], prefix: str) -> None:
    for index, (branch, child) in enumerate(node.children):
        last = index == len(node.children) - 1
        connector = "└─" if last else "├─"
        tag = f"{node.attribute}∈{branch.label()}"
        if isinstance(child, Leaf):
            lines.append(f"{prefix}{connector} {tag} → {child.name}")
        else:
            lines.append(f"{prefix}{connector} {tag}")
            _render_node(child, lines, prefix + ("   " if last else "│  "))


# -- the paper's example trees -------------------------------------------------


_ACTOR_CATEGORIES = frozenset(a.value for a in ActorClass if a is not ActorClass.EGO)


def figure4_taxonomy() -> IncidentTaxonomy:
    """Reconstruct the example incident classification of Fig. 4.

    Top split: is the ego vehicle itself involved, or is it (only) a
    causing factor in an incident among other road users ("induced")?
    Ego-involved incidents split by counterpart (road user vs non-human,
    then by concrete type); induced incidents split by the actor pair.
    """
    universe = Universe([
        CategoricalAttribute("involvement", frozenset({"ego_involved", "induced"})),
        CategoricalAttribute("counterpart", _ACTOR_CATEGORIES),
        CategoricalAttribute("induced_pair", frozenset({
            "car-road_user", "car-vru", "car-car", "car-truck", "car-non_human",
            "truck-road_user", "car-other", "other-other",
        })),
    ])

    def cat(*values: str) -> CategoryBranch:
        return CategoryBranch(frozenset(values))

    ego_side = ClassificationNode(
        "counterpart",
        [
            (cat("car"), "Ego<->Car"),
            (cat("truck"), "Ego<->Truck"),
            (cat("vru"), "Ego<->VRU"),
            (cat("other"), "Ego<->OtherRU"),
            (cat("animal"), "Ego<->Animal"),
            (cat("static_object"), "Ego<->StaticObject"),
        ],
        universe=universe,
    )
    induced_side = ClassificationNode(
        "induced_pair",
        [
            (cat("car-vru"), "Induced:Car<->VRU"),
            (cat("car-car"), "Induced:Car<->Car"),
            (cat("car-truck"), "Induced:Car<->Truck"),
            (cat("car-road_user"), "Induced:Car<->RoadUser"),
            (cat("car-non_human"), "Induced:Car<->NonHuman"),
            (cat("truck-road_user"), "Induced:Truck<->RoadUser"),
            (cat("car-other"), "Induced:Car<->Other"),
            (cat("other-other"), "Induced:Other<->Other"),
        ],
        universe=universe,
    )
    root = ClassificationNode(
        "involvement",
        [
            (cat("ego_involved"), ego_side),
            (cat("induced"), induced_side),
        ],
        universe=universe,
    )
    return IncidentTaxonomy("Incident classification (Fig. 4)", universe, root)


def ego_vru_universe(max_delta_v_kmh: float = 70.0,
                     max_distance_m: float = 50.0) -> Universe:
    """Universe for the Ego↔VRU elaboration of Fig. 5.

    Attributes: whether contact occurred, the collision Δv (0 for
    non-collisions), and the minimum separation distance (0 for
    collisions).  ``max_delta_v_kmh`` bounds the claimed coverage — the
    paper's I₃ stops at 70 km/h, which is an ODD statement.
    """
    return Universe([
        CategoricalAttribute("contact", frozenset({"collision", "near_miss"})),
        ContinuousAttribute("delta_v_kmh", 0.0, max_delta_v_kmh),
        ContinuousAttribute("distance_m", 0.0, max_distance_m),
        ContinuousAttribute("approach_speed_kmh", 0.0, 200.0),
    ])
