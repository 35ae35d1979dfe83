"""Quantitative refinement of safety-goal budgets into an architecture.

Implements Sec. V, "A Quantitative Assurance Framework".  A QRN safety goal
carries a numeric maximum violation frequency; refining it onto an
architecture is then ordinary probability arithmetic instead of the ASIL
decomposition/inheritance rules:

* **ANY_VIOLATES** (series / OR): the parent requirement is violated when
  any child is — frequencies add (union bound; exact for disjoint causes).
* **ALL_VIOLATE** (redundancy / AND): the parent is violated only while
  *all* children are simultaneously in violation.  With per-child
  violation rates ``λ_i`` and a common exposure window ``τ`` (how long a
  violation persists before detection/recovery), the coincidence rate for
  ``n`` independent children is approximately::

      f ≈ n · τ^(n-1) · Π λ_i        (valid for λ_i τ ≪ 1)

  derived as Σ_i λ_i · Π_{j≠i} (λ_j τ): any child fails last while the
  others are already failed.
* **K_OF_N voted**: violated when at least ``n − k + 1`` of ``n`` children
  are simultaneously violated; computed by summing the AND formula over
  all minimal failing subsets.

This module is exactly the paper's drivable-area argument made executable:
"when decomposing this in several redundant sensing and prediction blocks,
these can each get frequency attributes of a value that in traditionally
ISO 26262 only would be in the QM range", yet the composed vehicle-level
rate meets a tough budget (:func:`drivable_area_example`).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .quantities import Frequency

__all__ = [
    "Combination",
    "ElementRequirement",
    "RefinementNode",
    "RefinementError",
    "combine_and",
    "combine_or",
    "combine_k_of_n",
    "apportion_or",
    "required_leaf_rate_and",
    "drivable_area_example",
]


class RefinementError(ValueError):
    """Raised for ill-formed refinement structures or invalid regimes."""


class Combination(enum.Enum):
    """How child violations compose into a parent violation."""

    ANY_VIOLATES = "any"
    ALL_VIOLATE = "all"
    K_OF_N = "k-of-n"


_RARE_EVENT_LIMIT = 0.1
"""Validity bound for the coincidence approximation: require λ·τ below this."""


def combine_or(rates: Sequence[Frequency]) -> Frequency:
    """Series composition: any child violation violates the parent."""
    if not rates:
        raise RefinementError("OR combination needs at least one child")
    unit = rates[0].unit
    total = Frequency.zero(unit)
    for rate in rates:
        total = total + rate
    return total


def combine_and(rates: Sequence[Frequency], exposure_window: float) -> Frequency:
    """Redundancy composition: all children must be violated simultaneously.

    ``exposure_window`` (τ) is in the unit of exposure matching the rates
    (hours for per-hour rates): how long one child's violation persists
    undetected.  Raises when any ``λ_i·τ`` is large enough (> 0.1) that the
    rare-event approximation would be misleading — at that point the
    'redundancy' is not earning its keep and a proper Markov model is
    needed.
    """
    if len(rates) < 2:
        raise RefinementError("AND combination needs at least two children")
    if exposure_window <= 0 or not math.isfinite(exposure_window):
        raise RefinementError(
            f"exposure window must be positive and finite, got {exposure_window}")
    unit = rates[0].unit
    product = 1.0
    for rate in rates:
        if not rate.unit.compatible_with(unit):
            raise RefinementError("AND children must share an exposure base")
        occupancy = rate.rate * exposure_window
        if occupancy > _RARE_EVENT_LIMIT:
            raise RefinementError(
                f"child occupancy λ·τ = {occupancy:.3g} exceeds "
                f"{_RARE_EVENT_LIMIT}; coincidence approximation invalid")
        product *= rate.rate
    n = len(rates)
    return Frequency(n * (exposure_window ** (n - 1)) * product, unit)


def combine_k_of_n(rates: Sequence[Frequency], k: int,
                   exposure_window: float) -> Frequency:
    """Voted composition: the parent needs ``k`` of ``n`` children healthy.

    Violated when any ``n − k + 1`` children are simultaneously violated.
    Computed as the union bound over all minimal failing subsets, each via
    :func:`combine_and` — conservative (upper bound), which is the safe
    direction for a violation-frequency claim.
    """
    n = len(rates)
    if not (1 <= k <= n):
        raise RefinementError(f"k must be in [1, {n}], got {k}")
    m = n - k + 1
    if m == 1:
        return combine_or(rates)
    unit = rates[0].unit
    total = Frequency.zero(unit)
    for subset in itertools.combinations(range(n), m):
        total = total + combine_and([rates[i] for i in subset], exposure_window)
    return total


def apportion_or(budget: Frequency, weights: Sequence[float]) -> List[Frequency]:
    """Split a parent budget across OR-composed children by weight.

    The children's rates add, so any weights summing to 1 produce a valid
    apportionment; this is the quantitative analogue of requirement
    decomposition without ASIL bookkeeping.
    """
    if not weights:
        raise RefinementError("apportionment needs at least one weight")
    if any(w <= 0 or not math.isfinite(w) for w in weights):
        raise RefinementError("weights must be positive and finite")
    total = sum(weights)
    return [budget * (w / total) for w in weights]


def required_leaf_rate_and(budget: Frequency, n: int,
                           exposure_window: float) -> Frequency:
    """Max identical per-child rate so ``n``-redundant AND meets ``budget``.

    Inverts the coincidence formula: ``λ = (f / (n·τ^{n-1}))^{1/n}``.  This
    is the headline arithmetic of Sec. V: a 1e-7/h vehicle budget over
    three redundant blocks with a 1-second window allows each block a rate
    that "in traditionally ISO 26262 only would be in the QM range".
    """
    if n < 2:
        raise RefinementError("redundancy needs n >= 2")
    if exposure_window <= 0:
        raise RefinementError("exposure window must be positive")
    if budget.rate <= 0:
        raise RefinementError("budget must be positive to invert")
    lam = (budget.rate / (n * exposure_window ** (n - 1))) ** (1.0 / n)
    if lam * exposure_window > _RARE_EVENT_LIMIT:
        raise RefinementError(
            "inverted rate leaves the rare-event regime; "
            "use a shorter exposure window or more redundancy")
    return Frequency(lam, budget.unit)


@dataclass(frozen=True)
class ElementRequirement:
    """A leaf of the refinement tree: one element's violation-rate claim.

    ``claimed_rate`` is what the element's own evidence (testing, process
    arguments, field data) supports.  The paper's point is that this claim
    is *cause-agnostic*: "one budget to be met by all contributing causes,
    regardless whether they could be described as systematic faults ...
    random hardware faults; or as performance limitations" (Sec. V).
    """

    name: str
    claimed_rate: Frequency
    evidence: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise RefinementError("element requirement must be named")


@dataclass(frozen=True)
class RefinementNode:
    """An internal node of the refinement tree.

    ``exposure_window`` is required for AND / K_OF_N nodes and must be
    absent for OR nodes (it has no meaning there).
    """

    name: str
    combination: Combination
    children: Tuple["RefinementNode | ElementRequirement", ...]
    exposure_window: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.children:
            raise RefinementError(f"node {self.name!r} has no children")
        if self.combination is Combination.ANY_VIOLATES:
            if self.exposure_window is not None:
                raise RefinementError(
                    f"node {self.name!r}: OR nodes take no exposure window")
            if self.k is not None:
                raise RefinementError(f"node {self.name!r}: k is only for K_OF_N")
        else:
            if self.exposure_window is None:
                raise RefinementError(
                    f"node {self.name!r}: AND/K_OF_N nodes need an exposure window")
            if self.combination is Combination.K_OF_N and self.k is None:
                raise RefinementError(f"node {self.name!r}: K_OF_N needs k")
            if self.combination is Combination.ALL_VIOLATE and self.k is not None:
                raise RefinementError(f"node {self.name!r}: k is only for K_OF_N")

    def composed_rate(self) -> Frequency:
        """The violation frequency this subtree's claims compose to."""
        child_rates = [
            child.composed_rate() if isinstance(child, RefinementNode)
            else child.claimed_rate
            for child in self.children
        ]
        if self.combination is Combination.ANY_VIOLATES:
            return combine_or(child_rates)
        if self.combination is Combination.ALL_VIOLATE:
            return combine_and(child_rates, self.exposure_window)  # type: ignore[arg-type]
        return combine_k_of_n(child_rates, self.k, self.exposure_window)  # type: ignore[arg-type]

    def meets(self, budget: Frequency, *, rel_tol: float = 1e-9) -> bool:
        """Whether the composed rate fits the safety-goal budget."""
        return self.composed_rate().within(budget, rel_tol=rel_tol)

    def leaves(self) -> Iterator[ElementRequirement]:
        for child in self.children:
            if isinstance(child, ElementRequirement):
                yield child
            else:
                yield from child.leaves()

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def render(self, budget: Optional[Frequency] = None) -> str:
        """Human-readable tree with composed rates at every node."""
        lines: List[str] = []
        self._render_into(lines, prefix="", budget=budget)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], prefix: str,
                     budget: Optional[Frequency]) -> None:
        rate = self.composed_rate()
        head = f"{prefix}{self.name} [{self.combination.value}] → {rate}"
        if budget is not None:
            head += f"  (budget {budget}: {'OK' if self.meets(budget) else 'EXCEEDED'})"
        lines.append(head)
        for child in self.children:
            if isinstance(child, ElementRequirement):
                lines.append(f"{prefix}  - {child.name}: {child.claimed_rate}")
            else:
                child._render_into(lines, prefix + "  ", budget=None)


def drivable_area_example(*, vehicle_budget: Optional[Frequency] = None,
                          redundancy: int = 3,
                          exposure_window_h: float = 1.0 / 3600.0,
                          ) -> Tuple[RefinementNode, Frequency]:
    """The Sec. V worked example: drivable area free from VRUs.

    A safety requirement on the aggregated sensing+prediction block is "not
    to overestimate such an area, with a very tough integrity attribute".
    The function builds ``redundancy`` independent perception channels,
    each claimed at the *maximum* rate allowed by the inverted coincidence
    formula, and returns the tree plus the per-channel claim.  With the
    defaults — 1e-7/h vehicle budget, 3 channels, 1 s window — each channel
    may violate about 0.03 times per hour: far into what ISO 26262 would
    call the QM range, which is the paper's headline observation.
    """
    if vehicle_budget is None:
        vehicle_budget = Frequency.per_hour(1e-7)
    per_channel = required_leaf_rate_and(vehicle_budget, redundancy,
                                         exposure_window_h)
    channels = tuple(
        ElementRequirement(
            name=f"perception-channel-{i + 1}",
            claimed_rate=per_channel,
            evidence="channel-level testing; cause-agnostic rate claim",
        )
        for i in range(redundancy)
    )
    tree = RefinementNode(
        name="do-not-overestimate-drivable-area",
        combination=Combination.ALL_VIOLATE,
        children=channels,
        exposure_window=exposure_window_h,
    )
    return tree, per_channel
