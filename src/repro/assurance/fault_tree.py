"""Fault trees over violation frequencies.

The general engine behind Sec. V's "traditional mathematical quantitative
rules": basic events carry cause-agnostic violation rates (systematic,
random-hardware, or performance-limitation — the budget does not care),
gates combine them, and the top event's composed rate is compared against
a safety-goal budget.

Gates:

* ``OR`` — any input violates the output (rates add, union bound);
* ``AND`` — all inputs violated simultaneously within an exposure window
  (coincidence approximation, see :mod:`repro.core.refinement`);
* ``KOFN`` — at least ``m`` of the inputs simultaneously violated.

Beyond evaluation, the module computes **minimal cut sets** (which basic-
event combinations suffice to violate the top event) and cut-set
**contributions** — the diagnostic a safety engineer reads to see where a
blown budget comes from.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.quantities import Frequency
from ..core.refinement import combine_and, combine_k_of_n, combine_or

__all__ = ["GateKind", "BasicEvent", "Gate", "FaultTree", "CutSet",
           "FaultTreeError"]


class FaultTreeError(ValueError):
    """Raised for structurally invalid fault trees."""


class GateKind(enum.Enum):
    """Combination semantics of a gate: OR, AND (coincidence), KOFN."""

    OR = "or"
    AND = "and"
    KOFN = "k-of-n"


@dataclass(frozen=True)
class BasicEvent:
    """A leaf cause with a cause-agnostic violation rate."""

    name: str
    rate: Frequency
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultTreeError("basic event must be named")


@dataclass(frozen=True)
class Gate:
    """An internal node combining children (gates or basic events)."""

    name: str
    kind: GateKind
    children: Tuple["Gate | BasicEvent", ...]
    exposure_window: Optional[float] = None
    k: Optional[int] = None
    """For KOFN: violated when at least ``len(children) - k + 1`` children
    are violated (``k`` = how many healthy children the gate needs)."""

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultTreeError("gate must be named")
        if not self.children:
            raise FaultTreeError(f"gate {self.name!r} has no children")
        if self.kind is GateKind.OR:
            if self.exposure_window is not None or self.k is not None:
                raise FaultTreeError(
                    f"gate {self.name!r}: OR gates take no window or k")
        else:
            if self.exposure_window is None or self.exposure_window <= 0:
                raise FaultTreeError(
                    f"gate {self.name!r}: AND/KOFN gates need a positive "
                    "exposure window")
            if self.kind is GateKind.KOFN:
                if self.k is None or not (1 <= self.k <= len(self.children)):
                    raise FaultTreeError(
                        f"gate {self.name!r}: k must be in [1, "
                        f"{len(self.children)}]")
            elif self.k is not None:
                raise FaultTreeError(f"gate {self.name!r}: k only for KOFN")
            if self.kind is GateKind.AND and len(self.children) < 2:
                raise FaultTreeError(
                    f"gate {self.name!r}: AND needs at least two children")


@dataclass(frozen=True)
class CutSet:
    """One minimal combination of basic events violating the top event."""

    events: FrozenSet[str]
    rate: Frequency

    def order(self) -> int:
        """Cut-set order (1 = single-point cause)."""
        return len(self.events)


class FaultTree:
    """A validated fault tree with evaluation and cut-set analysis."""

    def __init__(self, top: Gate):
        self.top = top
        names: List[str] = []
        self._collect_names(top, names, seen_gates=set())
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise FaultTreeError(f"duplicate basic-event names: {duplicates}")

    def _collect_names(self, node: Gate, names: List[str], seen_gates: set) -> None:
        if node.name in seen_gates:
            raise FaultTreeError(
                f"gate {node.name!r} appears twice — trees must not share "
                "gates (shared causes belong in shared basic events)")
        seen_gates.add(node.name)
        for child in node.children:
            if isinstance(child, BasicEvent):
                names.append(child.name)
            else:
                self._collect_names(child, names, seen_gates)

    # -- evaluation --------------------------------------------------------

    def top_event_rate(self) -> Frequency:
        """Composed violation frequency of the top event."""
        return self._rate(self.top)

    def _rate(self, node: "Gate | BasicEvent") -> Frequency:
        if isinstance(node, BasicEvent):
            return node.rate
        child_rates = [self._rate(child) for child in node.children]
        if node.kind is GateKind.OR:
            return combine_or(child_rates)
        if node.kind is GateKind.AND:
            return combine_and(child_rates, node.exposure_window)  # type: ignore[arg-type]
        return combine_k_of_n(child_rates, node.k, node.exposure_window)  # type: ignore[arg-type]

    def meets(self, budget: Frequency) -> bool:
        """Whether the top-event rate fits the safety-goal budget."""
        return self.top_event_rate().within(budget)

    # -- cut sets -----------------------------------------------------------

    def minimal_cut_sets(self) -> List[CutSet]:
        """All minimal cut sets, ordered by descending rate contribution.

        Cut-set rates use an exposure window for multi-event sets; for
        sets spanning nested AND gates the *widest* window on the path is
        used — a wider window overestimates the coincidence rate, which is
        the conservative direction for a violation-frequency claim.
        """
        sets = self._cut_sets(self.top, window=None)
        minimal: List[Tuple[FrozenSet[str], Optional[float]]] = []
        for events, window in sets:
            dominated = any(other < events for other, _ in sets)
            if not dominated:
                minimal.append((events, window))
        unique: Dict[FrozenSet[str], Optional[float]] = {}
        for events, window in minimal:
            if events in unique:
                prior = unique[events]
                if window is not None and (prior is None or window > prior):
                    unique[events] = window
            else:
                unique[events] = window
        rates = {event.name: event.rate for event in self.basic_events()}
        out: List[CutSet] = []
        for events, window in unique.items():
            member_rates = [rates[name] for name in events]
            if len(member_rates) == 1:
                rate = member_rates[0]
            else:
                if window is None:
                    raise FaultTreeError(
                        "multi-event cut set without an exposure window")
                rate = combine_and(member_rates, window)
            out.append(CutSet(events, rate))
        out.sort(key=lambda cs: cs.rate.rate, reverse=True)
        return out

    def _cut_sets(self, node: "Gate | BasicEvent", window: Optional[float],
                  ) -> List[Tuple[FrozenSet[str], Optional[float]]]:
        if isinstance(node, BasicEvent):
            return [(frozenset({node.name}), window)]
        if node.kind is GateKind.OR:
            result: List[Tuple[FrozenSet[str], Optional[float]]] = []
            for child in node.children:
                result.extend(self._cut_sets(child, window))
            return result
        effective = (node.exposure_window if window is None
                     else max(window, node.exposure_window))  # type: ignore[arg-type]
        if node.kind is GateKind.AND:
            groups = [self._cut_sets(child, effective)
                      for child in node.children]
            return _cross_union(groups, effective)
        # KOFN: union over minimal failing subsets of size n-k+1.
        m = len(node.children) - node.k + 1  # type: ignore[operator]
        result = []
        for subset in itertools.combinations(node.children, m):
            groups = [self._cut_sets(child, effective) for child in subset]
            if len(groups) == 1:
                result.extend(groups[0])
            else:
                result.extend(_cross_union(groups, effective))
        return result

    def single_point_causes(self) -> List[str]:
        """Basic events that alone violate the top event (order-1 cut sets)."""
        return sorted(
            next(iter(cs.events))
            for cs in self.minimal_cut_sets() if cs.order() == 1)

    def basic_events(self) -> List[BasicEvent]:
        events: List[BasicEvent] = []
        self._collect_events(self.top, events)
        return events

    def _collect_events(self, node: Gate, out: List[BasicEvent]) -> None:
        for child in node.children:
            if isinstance(child, BasicEvent):
                out.append(child)
            else:
                self._collect_events(child, out)

    def render(self, budget: Optional[Frequency] = None) -> str:
        lines: List[str] = []
        self._render(self.top, lines, prefix="")
        rate = self.top_event_rate()
        head = f"top event rate: {rate}"
        if budget is not None:
            head += f" vs budget {budget} → {'OK' if self.meets(budget) else 'EXCEEDED'}"
        lines.append(head)
        return "\n".join(lines)

    def _render(self, node: "Gate | BasicEvent", lines: List[str],
                prefix: str) -> None:
        if isinstance(node, BasicEvent):
            lines.append(f"{prefix}- {node.name}: {node.rate}")
            return
        tag = node.kind.value
        if node.kind is GateKind.KOFN:
            tag = f"{node.k}oo{len(node.children)}"
        lines.append(f"{prefix}[{tag}] {node.name}")
        for child in node.children:
            self._render(child, lines, prefix + "  ")


def _cross_union(groups: Sequence[List[Tuple[FrozenSet[str], Optional[float]]]],
                 window: float) -> List[Tuple[FrozenSet[str], Optional[float]]]:
    """Cartesian union of per-child cut sets under an AND gate."""
    result: List[Tuple[FrozenSet[str], Optional[float]]] = []
    for combo in itertools.product(*groups):
        events: FrozenSet[str] = frozenset()
        effective = window
        for member_events, member_window in combo:
            events = events | member_events
            if member_window is not None:
                effective = max(effective, member_window)
        result.append((events, effective))
    return result
