"""Ethical side-constraints on budget allocation.

Sec. III-B: "defining the incident types to a certain extent will entail
ethical considerations.  For instance, even if the total acceptable
frequency of fatalities is low ... it will hardly be acceptable to create a
set of SGs where all of these fatalities are assigned to an I: Ego<->Child,
if it turns out to be more difficult to design for avoidance of collisions
with children compared to adults."

The allocation engine (:mod:`repro.core.allocation`) optimises budgets
subject to Eq. 1; without further constraints an optimiser will do exactly
what the paper warns about — dump risk on whichever incident type is
cheapest to budget for.  This module provides *linear* ethical constraints
that plug into the LP:

* :class:`BudgetFloor` / :class:`BudgetCeiling` — absolute bounds on one
  type's budget;
* :class:`RiskParity` — exposure-normalised parity between a protected and
  a reference incident type (per-encounter risk for children may not
  exceed ρ× that for adults);
* :class:`GroupShareCap` — a group of types may consume at most a share of
  one consequence class's budget.

Every constraint renders itself into ``A_ub x <= b_ub`` rows for the LP and
also offers a direct :meth:`check` on a finished allocation, so audits do
not depend on the optimiser path.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .incident import IncidentType
from .quantities import Frequency

__all__ = [
    "EthicalConstraint",
    "BudgetFloor",
    "BudgetCeiling",
    "RiskParity",
    "GroupShareCap",
    "ConstraintViolation",
    "audit_allocation",
]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class ConstraintViolation:
    """One failed ethical-constraint check in an audit."""

    constraint: str
    detail: str


class EthicalConstraint(abc.ABC):
    """A linear constraint over incident-type budgets.

    ``lp_rows`` renders the constraint into ``A_ub x <= b_ub`` rows, each
    a list of float coefficients over the budget vector ordered as
    ``type_ids``.  ``class_budgets`` maps class id to the norm's
    acceptable rate and ``splits`` maps type id to its per-class
    contribution fractions — some constraints (share caps) need both.
    """

    @abc.abstractmethod
    def lp_rows(self, type_ids: Sequence[str],
                class_budgets: Mapping[str, float],
                splits: Mapping[str, Mapping[str, float]],
                ) -> Tuple[List[List[float]], List[float]]:
        """Render into LP inequality rows over the budget vector."""

    @abc.abstractmethod
    def check(self, budgets: Mapping[str, Frequency],
              types: Mapping[str, IncidentType],
              class_budgets: Mapping[str, Frequency]) -> List[ConstraintViolation]:
        """Directly audit a finished allocation."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable form for the safety-case ethics appendix."""

    @staticmethod
    def _index(type_ids: Sequence[str], type_id: str) -> int:
        try:
            return list(type_ids).index(type_id)
        except ValueError:
            raise KeyError(
                f"constraint references unknown incident type {type_id!r}"
            ) from None


@dataclass(frozen=True)
class BudgetFloor(EthicalConstraint):
    """``f_I >= minimum`` — a type may not be starved to zero.

    Floors keep the optimiser from revoking budget from types whose
    occurrences are physically irreducible (some residual rate will occur
    no matter the design, so a zero budget is an unfulfillable SG).
    """

    type_id: str
    minimum: Frequency

    def lp_rows(self, type_ids, class_budgets, splits):
        row = [0.0] * len(type_ids)
        row[self._index(type_ids, self.type_id)] = -1.0
        return [row], [-self.minimum.rate]

    def check(self, budgets, types, class_budgets):
        budget = budgets.get(self.type_id)
        if budget is None:
            return [ConstraintViolation(self.describe(),
                                        f"type {self.type_id} absent from allocation")]
        if budget.rate < self.minimum.rate * (1 - _REL_TOL):
            return [ConstraintViolation(
                self.describe(), f"budget {budget} below floor {self.minimum}")]
        return []

    def describe(self) -> str:
        return f"floor: f_{self.type_id} >= {self.minimum}"


@dataclass(frozen=True)
class BudgetCeiling(EthicalConstraint):
    """``f_I <= maximum`` — a hard cap independent of class budgets."""

    type_id: str
    maximum: Frequency

    def lp_rows(self, type_ids, class_budgets, splits):
        row = [0.0] * len(type_ids)
        row[self._index(type_ids, self.type_id)] = 1.0
        return [row], [self.maximum.rate]

    def check(self, budgets, types, class_budgets):
        budget = budgets.get(self.type_id)
        if budget is None:
            return []
        if budget.rate > self.maximum.rate * (1 + _REL_TOL):
            return [ConstraintViolation(
                self.describe(), f"budget {budget} exceeds ceiling {self.maximum}")]
        return []

    def describe(self) -> str:
        return f"ceiling: f_{self.type_id} <= {self.maximum}"


@dataclass(frozen=True)
class RiskParity(EthicalConstraint):
    """Exposure-normalised parity between two incident types.

    Let ``e_p`` and ``e_r`` be the exposure shares (encounter rates) of the
    protected and reference types.  The constraint is::

        f_protected / e_p  <=  max_ratio * f_reference / e_r

    i.e. the *per-encounter* accepted risk of the protected group may not
    exceed ``max_ratio`` times the reference group's.  ``max_ratio = 1``
    demands strict parity; the paper's Ego<->Child example is children
    protected relative to adults with ``max_ratio`` at or near 1.
    Linear form: ``e_r * f_p - max_ratio * e_p * f_r <= 0``.
    """

    protected_type: str
    reference_type: str
    protected_exposure: float
    reference_exposure: float
    max_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.protected_exposure <= 0 or self.reference_exposure <= 0:
            raise ValueError("exposure shares must be positive")
        if self.max_ratio <= 0:
            raise ValueError("max_ratio must be positive")
        if self.protected_type == self.reference_type:
            raise ValueError("parity between a type and itself is vacuous")

    def lp_rows(self, type_ids, class_budgets, splits):
        row = [0.0] * len(type_ids)
        row[self._index(type_ids, self.protected_type)] = self.reference_exposure
        row[self._index(type_ids, self.reference_type)] = (
            -self.max_ratio * self.protected_exposure)
        return [row], [0.0]

    def check(self, budgets, types, class_budgets):
        protected = budgets.get(self.protected_type)
        reference = budgets.get(self.reference_type)
        if protected is None or reference is None:
            missing = [t for t, b in ((self.protected_type, protected),
                                      (self.reference_type, reference)) if b is None]
            return [ConstraintViolation(self.describe(),
                                        f"types absent from allocation: {missing}")]
        lhs = protected.rate / self.protected_exposure
        rhs = self.max_ratio * reference.rate / self.reference_exposure
        if lhs > rhs + _REL_TOL * max(lhs, rhs, 1e-300):
            return [ConstraintViolation(
                self.describe(),
                f"per-exposure risk {lhs:.3g} exceeds {self.max_ratio:g}x "
                f"reference {rhs:.3g}")]
        return []

    def describe(self) -> str:
        return (f"parity: f_{self.protected_type}/{self.protected_exposure:g} <= "
                f"{self.max_ratio:g} * f_{self.reference_type}/{self.reference_exposure:g}")


@dataclass(frozen=True)
class GroupShareCap(EthicalConstraint):
    """A group of types may consume at most ``max_share`` of one class budget.

    Directly encodes "not all fatalities on Ego<->Child": cap the group
    ``("Ego<->Child",)``'s share of ``vS3`` at, say, its population
    exposure share.  Linear form::

        Σ_{k in group} split_k[class] * f_k <= max_share * f_class^(acceptable)
    """

    group: Tuple[str, ...]
    class_id: str
    max_share: float

    def __post_init__(self) -> None:
        if not self.group:
            raise ValueError("group must be non-empty")
        if len(set(self.group)) != len(self.group):
            raise ValueError("group contains duplicate type ids")
        if not (0 < self.max_share <= 1):
            raise ValueError("max_share must be in (0, 1]")

    def lp_rows(self, type_ids, class_budgets, splits):
        if self.class_id not in class_budgets:
            raise KeyError(f"share cap references unknown class {self.class_id!r}")
        row = [0.0] * len(type_ids)
        for type_id in self.group:
            coefficient = splits.get(type_id, {}).get(self.class_id, 0.0)
            row[self._index(type_ids, type_id)] = coefficient
        return [row], [self.max_share * class_budgets[self.class_id]]

    def check(self, budgets, types, class_budgets):
        class_budget = class_budgets.get(self.class_id)
        if class_budget is None:
            return [ConstraintViolation(
                self.describe(), f"class {self.class_id} absent from norm")]
        consumed = sum(
            budgets[type_id].rate * types[type_id].split.fraction(self.class_id)
            for type_id in self.group
            if type_id in budgets and type_id in types
        )
        cap = self.max_share * class_budget.rate
        if consumed > cap * (1 + _REL_TOL):
            return [ConstraintViolation(
                self.describe(),
                f"group consumes {consumed:.3g} of {self.class_id} (cap {cap:.3g})")]
        return []

    def describe(self) -> str:
        return (f"share cap: {'+'.join(self.group)} <= "
                f"{self.max_share:.0%} of {self.class_id}")


def audit_allocation(budgets: Mapping[str, Frequency],
                     types: Sequence[IncidentType],
                     constraints: Sequence[EthicalConstraint],
                     class_budgets: Mapping[str, Frequency]) -> List[ConstraintViolation]:
    """Audit a finished allocation against all ethical constraints.

    Independent of the optimiser: runs each constraint's direct check so a
    hand-edited allocation gets the same scrutiny as an LP solution.
    """
    by_id: Dict[str, IncidentType] = {t.type_id: t for t in types}
    violations: List[ConstraintViolation] = []
    for constraint in constraints:
        violations.extend(constraint.check(budgets, by_id, class_budgets))
    return violations
