"""Budget allocation: distributing class budgets over incident types.

Implements the allocation process of Sec. III-B: "we can regard
determination of the incident types and their integrity attributes (the
limit frequencies) as an allocation process, where we must make sure that
the budget we set on each I must be such that the total allowed frequency
is fulfilled for all v" — i.e. find per-type budgets ``f_I`` such that
Eq. 1 holds for every consequence class ``j``::

    Σ_k  split_k[j] · f_{I_k}  ≤  f_{v_j}^(acceptable)

Three strategies are provided, from simplest to most capable:

* :func:`allocate_uniform_scaling` — scale a reference budget vector by
  the largest feasible ``t`` (closed form, no optimiser);
* :func:`allocate_proportional` — split each class budget among the types
  touching it in proportion to weights, then take each type's tightest
  implied budget (feasible by construction);
* :func:`allocate_lp` — exact linear programming over ``Fraction``
  (:mod:`repro.core.simplex`) under Eq. 1 and arbitrary
  :class:`~repro.core.ethics.EthicalConstraint` rows: the leximin point
  of the weighted budgets (``max-min``), or the leximin point among the
  allocations of maximal weighted total (``max-total``).  Both are
  unique, come with a checked dual certificate that names what binds
  each budget, and an empty polytope comes with a Farkas certificate.

The result is an immutable :class:`Allocation` carrying budgets, per-class
loads and slacks (the stacked bars of Figs. 3 and 5), and reallocation
helpers for the paper's "improve f_I2 ⇒ freed budget elsewhere ⇒ tougher
SG for I2" experiment.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from .ethics import EthicalConstraint
from .incident import IncidentType
from .quantities import Frequency, sum_frequencies
from .risk_norm import QuantitativeRiskNorm

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Allocation",
    "AllocationError",
    "InfeasibleAllocationError",
    "allocate_uniform_scaling",
    "allocate_proportional",
    "allocate_lp",
    "LpObjective",
]


class AllocationError(ValueError):
    """Raised for malformed allocation problems."""


class InfeasibleAllocationError(AllocationError):
    """Raised when no budget vector can satisfy Eq. 1 and the constraints.

    ``diagnosis`` names the rows that conflict: those with a positive
    weight in the checked Farkas certificate, classes by id and ethical
    constraints by their description.
    """

    def __init__(self, message: str, diagnosis: Sequence[str] = ()):  # noqa: D107
        super().__init__(message)
        self.diagnosis: Tuple[str, ...] = tuple(diagnosis)


def _validate_problem(norm: QuantitativeRiskNorm,
                      types: Sequence[IncidentType]) -> None:
    if not types:
        raise AllocationError("allocation needs at least one incident type")
    ids = [t.type_id for t in types]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise AllocationError(f"duplicate incident type ids: {dupes}")
    for itype in types:
        itype.split.validate_against(norm.scale)


def _split_rows(norm: QuantitativeRiskNorm,
                types: Sequence[IncidentType]) -> List[List[float]]:
    """Rows ``S[j][k] = split_k[class_j]`` (classes × types)."""
    return [[float(itype.split.fraction(class_id)) for itype in types]
            for class_id in norm.class_ids]


class Allocation:
    """An immutable assignment of frequency budgets to incident types.

    The central data artefact between the norm and the safety goals: Fig. 5
    is exactly the :meth:`contribution_matrix` of such an allocation, and
    each safety goal's integrity attribute is one of its budgets.
    """

    def __init__(self, norm: QuantitativeRiskNorm,
                 types: Sequence[IncidentType],
                 budgets: Mapping[str, Frequency],
                 *, strategy: str = "manual"):
        _validate_problem(norm, types)
        missing = {t.type_id for t in types} - set(budgets)
        if missing:
            raise AllocationError(f"budgets missing for incident types: {sorted(missing)}")
        extra = set(budgets) - {t.type_id for t in types}
        if extra:
            raise AllocationError(f"budgets given for unknown types: {sorted(extra)}")
        for type_id, budget in budgets.items():
            if not budget.unit.compatible_with(norm.unit):
                raise AllocationError(
                    f"budget for {type_id} is {budget.unit} but norm is {norm.unit}")
        self.norm = norm
        self.types: Tuple[IncidentType, ...] = tuple(types)
        self._budgets: Dict[str, Frequency] = {
            t.type_id: budgets[t.type_id] for t in self.types}
        self.strategy = strategy
        self._binding: Optional[Dict[str, Tuple[str, ...]]] = None

    # -- basic queries -------------------------------------------------------

    @property
    def type_ids(self) -> Tuple[str, ...]:
        return tuple(t.type_id for t in self.types)

    def budget(self, type_id: str) -> Frequency:
        """The allocated ``f_I`` for one incident type."""
        try:
            return self._budgets[type_id]
        except KeyError:
            raise KeyError(
                f"unknown incident type {type_id!r}; known: {sorted(self._budgets)}"
            ) from None

    def budgets(self) -> Dict[str, Frequency]:
        return dict(self._budgets)

    def binding(self) -> Optional[Dict[str, Tuple[str, ...]]]:
        """Per type, the rows that set its budget; ``None`` unless solved.

        For an :func:`allocate_lp` result: the class ids and constraint
        descriptions (for ``max-total`` also "the max-total optimum")
        whose multipliers were positive in the filling round that fixed
        the type.  Manual and restored allocations carry no certificate,
        so they return ``None``.
        """
        return None if self._binding is None else dict(self._binding)

    def type_by_id(self, type_id: str) -> IncidentType:
        for itype in self.types:
            if itype.type_id == type_id:
                return itype
        raise KeyError(f"unknown incident type {type_id!r}")

    # -- Eq. 1 arithmetic ------------------------------------------------------

    def contribution(self, class_id: str, type_id: str) -> Frequency:
        """``f_{v_j, I_k}`` — one term of Eq. 1's left-hand side."""
        itype = self.type_by_id(type_id)
        return self.budget(type_id) * itype.split.fraction(class_id)

    def class_load(self, class_id: str) -> Frequency:
        """Total committed frequency for one consequence class."""
        if class_id not in self.norm.scale:
            raise KeyError(f"unknown consequence class {class_id!r}")
        return sum_frequencies(
            (self.contribution(class_id, t.type_id) for t in self.types),
            self.norm.unit,
        )

    def class_loads(self) -> Dict[str, Frequency]:
        return {cid: self.class_load(cid) for cid in self.norm.class_ids}

    def slack(self, class_id: str) -> Frequency:
        """Unused budget of a class: ``f_v^(acceptable) − load``.

        Negative slack is clamped by ``Frequency`` non-negativity; use
        :meth:`violations` to see overcommitted classes.
        """
        budget = self.norm.budget(class_id)
        load = self.class_load(class_id)
        if load > budget:
            return Frequency.zero(self.norm.unit)
        return budget - load

    def utilisation(self, class_id: str) -> float:
        """Load / budget for a class (may exceed 1 when infeasible)."""
        budget = self.norm.budget(class_id)
        if budget.is_zero():
            return math.inf if self.class_load(class_id).rate > 0 else 0.0
        return self.class_load(class_id) / budget

    def violations(self, *, rel_tol: float = 1e-9) -> Dict[str, Frequency]:
        """Classes whose load exceeds budget, with the excess frequency."""
        out: Dict[str, Frequency] = {}
        for class_id in self.norm.class_ids:
            load = self.class_load(class_id)
            budget = self.norm.budget(class_id)
            if not load.within(budget, rel_tol=rel_tol):
                out[class_id] = load - budget
        return out

    def is_feasible(self, *, rel_tol: float = 1e-9) -> bool:
        """Whether Eq. 1 holds for every consequence class."""
        return not self.violations(rel_tol=rel_tol)

    def contribution_matrix(self) -> Tuple[np.ndarray, Tuple[str, ...], Tuple[str, ...]]:
        """``(M, class_ids, type_ids)`` with ``M[j, k] = f_{v_j, I_k}``.

        This is the content of Fig. 5's right-hand diagram — each column a
        consequence class's stacked incident contributions.
        """
        import numpy as np

        class_ids = self.norm.class_ids
        type_ids = self.type_ids
        matrix = np.zeros((len(class_ids), len(type_ids)))
        for j, class_id in enumerate(class_ids):
            for k, type_id in enumerate(type_ids):
                matrix[j, k] = self.contribution(class_id, type_id).rate
        return matrix, class_ids, type_ids

    def total_budget(self) -> Frequency:
        """Sum of all incident-type budgets (total tolerated incident rate)."""
        return sum_frequencies(self._budgets.values(), self.norm.unit)

    # -- derivation ------------------------------------------------------------

    def with_budget(self, type_id: str, budget: Frequency) -> "Allocation":
        """A copy with one type's budget replaced (e.g. after improvement)."""
        self.type_by_id(type_id)
        updated = dict(self._budgets)
        updated[type_id] = budget
        return Allocation(self.norm, self.types, updated,
                          strategy=f"{self.strategy}+manual({type_id})")

    def with_improved_type(self, type_id: str, achieved: Frequency,
                           *, redistribute: bool = True,
                           constraints: Sequence[EthicalConstraint] = (),
                           ) -> "Allocation":
        """The Fig. 5 reallocation experiment.

        The implementation has improved incident type ``type_id`` so its
        frequency is now at most ``achieved`` (below its old budget).  The
        type's budget is tightened to ``achieved`` — "an SG ... which will
        be more challenging for the implementation" — and, when
        ``redistribute`` is true, the freed class budget is re-offered to
        the remaining types by re-running the LP with this type pinned.
        """
        old = self.budget(type_id)
        if achieved > old:
            raise AllocationError(
                f"improved frequency {achieved} exceeds current budget {old}; "
                "improvement must tighten, not relax")
        pinned = self.with_budget(type_id, achieved)
        if not redistribute:
            return pinned
        from .ethics import BudgetCeiling, BudgetFloor
        pin = [BudgetFloor(type_id, achieved), BudgetCeiling(type_id, achieved)]
        return allocate_lp(self.norm, self.types,
                           objective=LpObjective.MAX_TOTAL,
                           constraints=list(constraints) + pin)

    def describe(self) -> str:
        """Multi-line human-readable summary (budgets, loads, slacks)."""
        lines = [f"Allocation[{self.strategy}] under norm {self.norm.name!r}"]
        for itype in self.types:
            lines.append(f"  {itype.describe()}  f = {self.budget(itype.type_id)}")
        for class_id in self.norm.class_ids:
            lines.append(
                f"  {class_id}: load {self.class_load(class_id)} / "
                f"budget {self.norm.budget(class_id)} "
                f"(util {self.utilisation(class_id):.1%})")
        return "\n".join(lines)


# -- strategies ------------------------------------------------------------------


def _reference_weights(types: Sequence[IncidentType],
                       weights: Optional[Mapping[str, float]]) -> List[float]:
    if weights is None:
        return [1.0] * len(types)
    vector = []
    for itype in types:
        try:
            weight = float(weights[itype.type_id])
        except KeyError:
            raise AllocationError(
                f"weight missing for incident type {itype.type_id!r}") from None
        if weight <= 0 or not math.isfinite(weight):
            raise AllocationError(
                f"weight for {itype.type_id!r} must be positive and finite")
        vector.append(weight)
    return vector


def allocate_uniform_scaling(norm: QuantitativeRiskNorm,
                             types: Sequence[IncidentType],
                             *, weights: Optional[Mapping[str, float]] = None,
                             ) -> Allocation:
    """Scale a reference budget shape to the largest feasible size.

    With reference weights ``w`` (default: uniform), set ``f_k = t·w_k``
    with the maximal ``t`` keeping Eq. 1: ``t = min_j budget_j / (S w)_j``
    over classes with nonzero induced load.  Exactly one class ends up
    saturated (the binding class); this is the simplest defensible
    allocation and the baseline for the LP strategies.
    """
    import numpy as np

    _validate_problem(norm, types)
    w = np.array(_reference_weights(types, weights))
    S = np.array(_split_rows(norm, types))
    induced = S @ w
    budgets = np.array([norm.budget(cid).rate for cid in norm.class_ids])
    with np.errstate(divide="ignore"):
        ratios = np.where(induced > 0, budgets / np.where(induced > 0, induced, 1.0),
                          np.inf)
    t = float(np.min(ratios))
    if not math.isfinite(t):
        raise AllocationError(
            "no incident type contributes to any consequence class; "
            "allocation is unconstrained and meaningless")
    final = {itype.type_id: Frequency(t * w[k], norm.unit)
             for k, itype in enumerate(types)}
    return Allocation(norm, types, final, strategy="uniform-scaling")


def allocate_proportional(norm: QuantitativeRiskNorm,
                          types: Sequence[IncidentType],
                          *, weights: Optional[Mapping[str, float]] = None,
                          ) -> Allocation:
    """Per-class proportional shares, then each type's tightest implication.

    Each class budget is divided among the types touching that class in
    proportion to their weights; a type touching several classes gets the
    minimum budget its shares imply.  Feasible by construction, and unlike
    uniform scaling it lets unrelated parts of the norm saturate
    independently (quality types are not throttled by the fatality class).
    """
    import numpy as np

    _validate_problem(norm, types)
    # Kept as np.float64: CPython >= 3.12's ``sum`` compensates plain
    # floats but not np.float64, so plain floats could move a budget.
    w = np.array(_reference_weights(types, weights))
    class_ids = norm.class_ids
    shares_total = {
        cid: sum(w[k] for k, itype in enumerate(types)
                 if itype.split.fraction(cid) > 0)
        for cid in class_ids
    }
    final: Dict[str, Frequency] = {}
    for k, itype in enumerate(types):
        implied: List[float] = []
        for cid in class_ids:
            fraction = itype.split.fraction(cid)
            if fraction <= 0:
                continue
            share = w[k] / shares_total[cid]
            implied.append(share * norm.budget(cid).rate / fraction)
        if not implied:
            raise AllocationError(
                f"incident type {itype.type_id!r} contributes to no class")
        final[itype.type_id] = Frequency(min(implied), norm.unit)
    return Allocation(norm, types, final, strategy="proportional")


class LpObjective:
    """Objectives for :func:`allocate_lp`."""

    MAX_TOTAL = "max-total"
    """Maximise Σ w_k f_k; among the optima, take the leximin point."""

    MAX_MIN = "max-min"
    """Leximin of f_k / w_k — egalitarian across types, and unique."""


def allocate_lp(norm: QuantitativeRiskNorm,
                types: Sequence[IncidentType],
                *, objective: str = LpObjective.MAX_TOTAL,
                weights: Optional[Mapping[str, float]] = None,
                constraints: Sequence[EthicalConstraint] = (),
                ) -> Allocation:
    """Optimal allocation by exact linear programming.

    The polytope is ``f >= 0`` under Eq. 1 per consequence class plus
    every ethical constraint's LP rows.  ``max-min`` returns its leximin
    point in ``f_k / w_k``: the smallest ratio as large as possible, then
    the next smallest, and so on.  ``max-total`` first maximises
    ``Σ w_k f_k`` and then returns the leximin point among those optima.
    Both are unique, so the goal set is a function of the norm, the
    types, the weights and the constraints, not of list order.

    Every LP is solved exactly over ``Fraction`` (:mod:`.simplex`) from
    the exact values of the float inputs, with its dual checked by
    strong duality; each budget is rounded to the nearest float once, at
    the end.  :meth:`Allocation.binding` names, per type, the class
    budgets and constraints whose multipliers were positive in the
    filling round that fixed it.  An empty polytope raises
    :class:`InfeasibleAllocationError` whose diagnosis lists the rows of
    the Farkas certificate: classes by id, constraints by description.
    """
    # Imported here: ``fractions`` loads ``decimal``, which the commands
    # that never allocate (review, verify, fleet) do not need (DESIGN §16).
    from fractions import Fraction
    from .simplex import LpError, LpInfeasible, leximin, maximise

    _validate_problem(norm, types)
    w = _reference_weights(types, weights)
    type_ids = [t.type_id for t in types]
    class_budgets = {cid: norm.budget(cid).rate for cid in norm.class_ids}
    splits = {t.type_id: {cid: t.split.fraction(cid) for cid in norm.class_ids}
              for t in types}
    for type_id in type_ids:
        if not any(fraction > 0 for fraction in splits[type_id].values()):
            raise AllocationError(
                f"incident type {type_id!r} contributes to no class")

    rows = [[Fraction(v) for v in row] for row in _split_rows(norm, types)]
    bounds = [Fraction(class_budgets[cid]) for cid in norm.class_ids]
    names = list(norm.class_ids)
    for constraint in constraints:
        extra_rows, extra_b = constraint.lp_rows(type_ids, class_budgets, splits)
        for row, bound in zip(extra_rows, extra_b):
            rows.append([Fraction(float(v)) for v in row])
            bounds.append(Fraction(float(bound)))
            names.append(constraint.describe())
    exact_w = [Fraction(v) for v in w]

    if objective not in (LpObjective.MAX_TOTAL, LpObjective.MAX_MIN):
        raise AllocationError(f"unknown LP objective {objective!r}")
    try:
        if objective == LpObjective.MAX_TOTAL:
            best = maximise(exact_w, rows, bounds).value
            rows.append([-v for v in exact_w])
            bounds.append(-best)
            names.append("the max-total optimum")
        budgets, binding = leximin(exact_w, rows, bounds)
    except LpInfeasible as infeasible:
        diagnosis = [name for name, y in zip(names, infeasible.farkas) if y > 0]
        raise InfeasibleAllocationError(
            "no budget vector satisfies Eq. 1 and the constraints; "
            "conflicting rows: " + "; ".join(diagnosis), diagnosis) from None
    except LpError as error:
        raise AllocationError(f"LP allocation failed: {error}") from None
    final = {type_ids[k]: Frequency(float(budgets[k]), norm.unit)
             for k in range(len(types))}
    allocation = Allocation(norm, types, final, strategy=f"lp:{objective}")
    allocation._binding = {
        type_ids[k]: tuple(names[i] for i in binding[k])
        for k in range(len(types))}
    return allocation

