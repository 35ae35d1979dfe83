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
* :func:`allocate_lp` — linear programming (``scipy.optimize.linprog``),
  maximising total weighted budget or the minimum budget, under Eq. 1 and
  arbitrary :class:`~repro.core.ethics.EthicalConstraint` rows.

The result is an immutable :class:`Allocation` carrying budgets, per-class
loads and slacks (the stacked bars of Figs. 3 and 5), and reallocation
helpers for the paper's "improve f_I2 ⇒ freed budget elsewhere ⇒ tougher
SG for I2" experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .ethics import EthicalConstraint
from .incident import IncidentType
from .quantities import Frequency, sum_frequencies
from .risk_norm import QuantitativeRiskNorm

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

    ``diagnosis`` describes the conflict — which class budgets are
    overcommitted by constraint floors, or which constraints clash.
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


def _split_matrix(norm: QuantitativeRiskNorm,
                  types: Sequence[IncidentType]) -> np.ndarray:
    """Matrix ``S`` with ``S[j, k] = split_k[class_j]`` (classes × types)."""
    matrix = np.zeros((len(norm.class_ids), len(types)))
    for j, class_id in enumerate(norm.class_ids):
        for k, itype in enumerate(types):
            matrix[j, k] = itype.split.fraction(class_id)
    return matrix


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
                       weights: Optional[Mapping[str, float]]) -> np.ndarray:
    if weights is None:
        return np.ones(len(types))
    vector = np.empty(len(types))
    for k, itype in enumerate(types):
        try:
            weight = float(weights[itype.type_id])
        except KeyError:
            raise AllocationError(
                f"weight missing for incident type {itype.type_id!r}") from None
        if weight <= 0 or not math.isfinite(weight):
            raise AllocationError(
                f"weight for {itype.type_id!r} must be positive and finite")
        vector[k] = weight
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
    _validate_problem(norm, types)
    w = _reference_weights(types, weights)
    S = _split_matrix(norm, types)
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
    _validate_problem(norm, types)
    w = _reference_weights(types, weights)
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
    """Maximise Σ w_k f_k — the most permissive feasible allocation."""

    MAX_MIN = "max-min"
    """Maximise min_k f_k / w_k — egalitarian across types."""


def allocate_lp(norm: QuantitativeRiskNorm,
                types: Sequence[IncidentType],
                *, objective: str = LpObjective.MAX_TOTAL,
                weights: Optional[Mapping[str, float]] = None,
                constraints: Sequence[EthicalConstraint] = (),
                ) -> Allocation:
    """Optimal allocation by linear programming.

    Decision variables are the per-type budgets ``f_k ≥ 0`` (plus an
    auxiliary ``t`` for the max-min objective).  Constraints are Eq. 1 per
    consequence class plus every ethical constraint's LP rows.  Raises
    :class:`InfeasibleAllocationError` with a diagnosis when the polytope
    is empty (e.g. floors that overcommit a class).

    Numerical note: safety budgets span many decades (1e-2 … 1e-8/h),
    far below solver feasibility tolerances.  Each variable is therefore
    rescaled by its stand-alone maximum budget (``min_j budget_j /
    split_kj``) so the solve happens over O(1) quantities, and every row
    is normalised to an O(1) right-hand side.
    """
    _validate_problem(norm, types)
    w = _reference_weights(types, weights)
    type_ids = [t.type_id for t in types]
    S = _split_matrix(norm, types)
    class_budgets = {cid: norm.budget(cid).rate for cid in norm.class_ids}
    budget_vec = np.array([class_budgets[cid] for cid in norm.class_ids])
    splits = {t.type_id: {cid: t.split.fraction(cid) for cid in norm.class_ids}
              for t in types}

    n = len(types)
    # Per-variable scale: the largest budget type k could hold alone.
    scale = np.empty(n)
    for k, itype in enumerate(types):
        implied = [class_budgets[cid] / fraction
                   for cid, fraction in splits[itype.type_id].items()
                   if fraction > 0 and class_budgets[cid] > 0]
        if not implied:
            zero_touch = [cid for cid, fraction in splits[itype.type_id].items()
                          if fraction > 0]
            if zero_touch:
                # Touches only zero-budget classes: the budget must be 0.
                scale[k] = 1.0
            else:
                raise AllocationError(
                    f"incident type {itype.type_id!r} contributes to no class")
        else:
            scale[k] = min(implied)

    rows: List[np.ndarray] = []
    bounds_ub: List[float] = []
    for j in range(S.shape[0]):
        row = S[j] * scale
        bound = budget_vec[j]
        magnitude = max(bound, float(np.max(np.abs(row))), 1e-300)
        rows.append(row / magnitude)
        bounds_ub.append(bound / magnitude)
    for constraint in constraints:
        extra_rows, extra_b = constraint.lp_rows(type_ids, class_budgets, splits)
        for raw_row, raw_bound in zip(extra_rows, extra_b):
            row = np.asarray(raw_row, dtype=float) * scale
            magnitude = max(abs(raw_bound), float(np.max(np.abs(row))), 1e-300)
            rows.append(row / magnitude)
            bounds_ub.append(raw_bound / magnitude)

    if objective == LpObjective.MAX_TOTAL:
        cost_raw = -(w * scale)
        cost = cost_raw / max(float(np.max(np.abs(cost_raw))), 1e-300)
        A_ub = np.vstack(rows)
        b_ub = np.array(bounds_ub)
        var_bounds = [(0.0, None)] * n
    elif objective == LpObjective.MAX_MIN:
        # Variables [x_1..x_n, t]; maximise t with f_k = scale_k x_k >= w_k t.
        cost = np.zeros(n + 1)
        cost[-1] = -1.0
        padded = [np.concatenate([row, [0.0]]) for row in rows]
        reference = float(np.min(scale / w))
        for k in range(n):
            row = np.zeros(n + 1)
            row[k] = -scale[k] / (w[k] * reference)
            row[-1] = 1.0
            padded.append(row)
            bounds_ub.append(0.0)
        A_ub = np.vstack(padded)
        b_ub = np.array(bounds_ub)
        var_bounds = [(0.0, None)] * n + [(0.0, None)]
    else:
        raise AllocationError(f"unknown LP objective {objective!r}")

    # Imported here, not at module level: scipy.optimize costs ≈0.5 s to
    # import, and most commands never solve an LP (DESIGN §16).
    from scipy.optimize import linprog

    result = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=var_bounds,
                     method="highs")
    if not result.success:
        diagnosis = _diagnose_infeasibility(norm, types, constraints,
                                            class_budgets, splits)
        raise InfeasibleAllocationError(
            f"LP allocation failed: {result.message}", diagnosis)
    values = result.x[:n] * scale
    final = {type_ids[k]: Frequency(max(float(values[k]), 0.0), norm.unit)
             for k in range(n)}
    allocation = Allocation(norm, types, final, strategy=f"lp:{objective}")
    # Solver tolerances can leave loads a hair over a budget after
    # unscaling; shave uniformly rather than return an infeasible result.
    worst = max((allocation.utilisation(cid) for cid in norm.class_ids),
                default=0.0)
    if worst > 1.0:
        shrink = 1.0 / worst
        final = {tid: budget * shrink for tid, budget in final.items()}
        allocation = Allocation(norm, types, final,
                                strategy=f"lp:{objective}")
    return allocation


def _diagnose_infeasibility(norm: QuantitativeRiskNorm,
                            types: Sequence[IncidentType],
                            constraints: Sequence[EthicalConstraint],
                            class_budgets: Mapping[str, float],
                            splits: Mapping[str, Mapping[str, float]],
                            ) -> List[str]:
    """Explain why no feasible budget vector exists.

    The only way Eq. 1 alone can be infeasible is via constraint floors
    (budgets are otherwise free to shrink to zero), so the diagnosis
    computes each class's minimum induced load under the floors and
    reports the overcommitted classes.
    """
    from .ethics import BudgetFloor

    floors: Dict[str, float] = {}
    for constraint in constraints:
        if isinstance(constraint, BudgetFloor):
            floors[constraint.type_id] = max(
                floors.get(constraint.type_id, 0.0), constraint.minimum.rate)
    notes: List[str] = []
    for class_id, budget in class_budgets.items():
        floor_load = sum(
            floors.get(type_id, 0.0) * splits[type_id].get(class_id, 0.0)
            for type_id in splits)
        if floor_load > budget * (1 + 1e-9):
            notes.append(
                f"class {class_id}: constraint floors force load "
                f"{floor_load:.3g} > budget {budget:.3g}")
    if not notes:
        notes.append(
            "Eq. 1 alone is satisfiable (zero budgets); the ethical "
            "constraints are jointly contradictory")
    return notes
