"""The exact allocator: HiGHS oracle, uniqueness, Eq. 1 and certificates.

``allocate_lp`` solves every LP over ``Fraction`` and returns the
leximin point, so its answers can be held to an independent solver
(HiGHS, imported only here) and to metamorphic relations: renaming or
reordering the incident types must permute the budgets bit-for-bit.
Every LP the allocator solves is captured and its certificate checked
again here, independently of :mod:`repro.core.simplex`.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import simplex
from repro.core.allocation import (Allocation, InfeasibleAllocationError,
                                   allocate_lp)
from repro.core.consequence import ConsequenceClass, ConsequenceScale
from repro.core.ethics import (BudgetCeiling, BudgetFloor, GroupShareCap,
                               RiskParity, audit_allocation)
from repro.core.incident import ContributionSplit, IncidentType, SpeedBand
from repro.core.quantities import Frequency
from repro.core.risk_norm import QuantitativeRiskNorm
from repro.core.serialize import allocation_from_dict, allocation_to_dict
from repro.core.severity import UnifiedSeverity
from repro.core.simplex import LpError, LpInfeasible, maximise
from repro.core.taxonomy import ActorClass

OBJECTIVES = ("max-min", "max-total")


def make_type(type_id, fractions, k):
    return IncidentType(type_id, ActorClass.EGO, ActorClass.VRU,
                        margin=SpeedBand(float(k), float(k) + 1.0),
                        split=ContributionSplit(fractions))


def standalone(norm, itype):
    """The largest budget ``itype`` could hold alone under Eq. 1."""
    return min(norm.budget(cid).rate / fraction
               for cid, fraction in itype.split.items())


@st.composite
def problems(draw):
    """Random norm, types, weights, objective and ethical constraints.

    Floors stay small (≤ 5 % of a type's stand-alone budget, never on a
    parity-protected type) and ceilings and share caps large, so a
    constrained problem is feasible with a margin; an infeasible one
    gets a floor of at least 1.5× the stand-alone budget.  No case sits
    on the feasibility boundary, where a tolerance-based solver and an
    exact one may disagree by a rounding.
    """
    n_classes = draw(st.integers(min_value=2, max_value=6))
    rate = draw(st.floats(min_value=1e-6, max_value=1e-2))
    classes = []
    for i, severity in enumerate(list(UnifiedSeverity)[:n_classes]):
        classes.append(ConsequenceClass(f"v{i}", severity,
                                        Frequency.per_hour(rate)))
        rate *= draw(st.floats(min_value=0.05, max_value=1.0))
    norm = QuantitativeRiskNorm("random", ConsequenceScale(classes))
    class_ids = [c.class_id for c in classes]
    n_types = draw(st.integers(min_value=2, max_value=6))
    types = []
    for k in range(n_types):
        touched = draw(st.lists(st.sampled_from(class_ids), min_size=1,
                                max_size=n_classes, unique=True))
        raw = [draw(st.floats(min_value=0.05, max_value=1.0))
               for _ in touched]
        total = draw(st.floats(min_value=0.2, max_value=1.0))
        fractions = {cid: value * total / (sum(raw) * (1 + 1e-12))
                     for cid, value in zip(touched, raw)}
        types.append(make_type(f"T{k}", fractions, k))
    ids = [t.type_id for t in types]
    weights = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {type_id: st.floats(min_value=0.1, max_value=10.0)
         for type_id in ids})))
    constraints = []
    protected = set()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pair = draw(st.permutations(ids))[:2]
        protected.add(pair[0])
        constraints.append(RiskParity(
            pair[0], pair[1],
            draw(st.floats(min_value=0.1, max_value=1.0)),
            draw(st.floats(min_value=0.1, max_value=1.0)),
            draw(st.floats(min_value=0.5, max_value=2.0))))
    by_id = dict(zip(ids, types))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        type_id = draw(st.sampled_from(ids))
        constraints.append(BudgetCeiling(type_id, Frequency.per_hour(
            draw(st.floats(min_value=0.4, max_value=2.0))
            * standalone(norm, by_id[type_id]))))
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        group = tuple(draw(st.lists(st.sampled_from(ids), min_size=1,
                                    max_size=3, unique=True)))
        constraints.append(GroupShareCap(
            group, draw(st.sampled_from(class_ids)),
            draw(st.floats(min_value=0.4, max_value=1.0))))
    floorable = [type_id for type_id in ids if type_id not in protected]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not floorable:
            break
        type_id = draw(st.sampled_from(floorable))
        constraints.append(BudgetFloor(type_id, Frequency.per_hour(
            draw(st.floats(min_value=0.001, max_value=0.05))
            * standalone(norm, by_id[type_id]))))
    if draw(st.integers(min_value=0, max_value=5)) == 3:
        type_id = draw(st.sampled_from(ids))
        constraints.append(BudgetFloor(type_id, Frequency.per_hour(
            draw(st.floats(min_value=1.5, max_value=3.0))
            * standalone(norm, by_id[type_id]))))
    objective = draw(st.sampled_from(OBJECTIVES))
    order = st.permutations(constraints)
    return norm, types, weights, draw(order), objective


def _weights(types, weights):
    return [1.0 if weights is None else weights[t.type_id] for t in types]


def highs_optimum(norm, types, objective, weights, constraints):
    """HiGHS's optimal objective, or ``None`` if it reports infeasible.

    ``max-min``: the largest ``t`` with every ``f_k >= w_k t``;
    ``max-total``: the largest ``Σ w_k f_k``.  Budgets span decades far
    below HiGHS's tolerances, so every variable is rescaled by its
    stand-alone budget and every row to an O(1) right-hand side.
    """
    from scipy.optimize import linprog

    ids = [t.type_id for t in types]
    class_budgets = {cid: norm.budget(cid).rate for cid in norm.class_ids}
    splits = {t.type_id: {cid: t.split.fraction(cid)
                          for cid in norm.class_ids} for t in types}
    rows = [[splits[i][cid] for i in ids] for cid in norm.class_ids]
    bounds = [class_budgets[cid] for cid in norm.class_ids]
    for constraint in constraints:
        extra, extra_b = constraint.lp_rows(ids, class_budgets, splits)
        rows += [list(row) for row in extra]
        bounds += list(extra_b)
    w = np.array(_weights(types, weights))
    scale = np.array([standalone(norm, t) for t in types])
    A = np.array(rows, dtype=float) * scale
    b = np.array(bounds, dtype=float)
    magnitude = np.maximum(np.abs(b), np.abs(A).max(axis=1))
    A, b = A / magnitude[:, None], b / magnitude
    n = len(ids)
    if objective == "max-total":
        cost = -(w * scale)
        result = linprog(cost / np.abs(cost).max(), A_ub=A, b_ub=b,
                         bounds=[(0, None)] * n, method="highs")
        assert result.status in (0, 2), result.message
        return None if result.status == 2 else float(w @ (result.x * scale))
    reference = float(np.min(scale / w))
    filling = np.zeros((n, n + 1))
    for k in range(n):
        filling[k, k] = -scale[k] / (w[k] * reference)
        filling[k, -1] = 1.0
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    result = linprog(cost, A_ub=np.vstack([np.hstack([A, np.zeros((len(b), 1))]),
                                          filling]),
                     b_ub=np.concatenate([b, np.zeros(n)]),
                     bounds=[(0, None)] * (n + 1), method="highs")
    assert result.status in (0, 2), result.message
    return None if result.status == 2 else float(result.x[-1]) * reference


def objective_value(allocation, objective, weights):
    pairs = [(allocation.budget(t.type_id).rate, w) for t, w in
             zip(allocation.types, _weights(allocation.types, weights))]
    if objective == "max-min":
        return min(f / w for f, w in pairs)
    return sum(f * w for f, w in pairs)


class _Recorder:
    """Wraps :func:`maximise`, keeping each LP with its outcome."""

    def __init__(self):
        self.solved = []

    def __call__(self, c, A, b):
        try:
            optimum = maximise(c, A, b)
        except LpError as error:
            self.solved.append((c, A, b, error))
            raise
        self.solved.append((c, A, b, optimum))
        return optimum


def solve_recorded(norm, types, objective, weights, constraints):
    recorder = _Recorder()
    with mock.patch.object(simplex, "maximise", recorder):
        try:
            allocation = allocate_lp(norm, types, objective=objective,
                                     weights=weights,
                                     constraints=constraints)
        except InfeasibleAllocationError as error:
            return error, recorder.solved
    return allocation, recorder.solved


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def assert_optimality_certificate(c, A, b, optimum):
    x, y = optimum.x, optimum.y
    assert all(v >= 0 for v in x)
    assert all(dot(row, x) <= bound for row, bound in zip(A, b))
    assert all(v >= 0 for v in y)
    for j, cost in enumerate(c):
        assert dot(y, [row[j] for row in A]) >= cost
    assert dot(b, y) == dot(c, x) == optimum.value


def assert_farkas_certificate(A, b, farkas):
    assert all(v >= 0 for v in farkas)
    for j in range(len(A[0])):
        assert dot(farkas, [row[j] for row in A]) >= 0
    assert dot(farkas, b) < 0


class TestAgainstHighs:
    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_objective_and_feasibility_agree(self, problem):
        norm, types, weights, constraints, objective = problem
        expected = highs_optimum(norm, types, objective, weights, constraints)
        if expected is None:
            with pytest.raises(InfeasibleAllocationError):
                allocate_lp(norm, types, objective=objective,
                            weights=weights, constraints=constraints)
            return
        allocation = allocate_lp(norm, types, objective=objective,
                                 weights=weights, constraints=constraints)
        assert objective_value(allocation, objective, weights) == \
            pytest.approx(expected, rel=1e-9)


class TestCertificates:
    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_every_lp_is_certified(self, problem):
        norm, types, weights, constraints, objective = problem
        outcome, solved = solve_recorded(norm, types, objective, weights,
                                         constraints)
        assert solved
        if isinstance(outcome, InfeasibleAllocationError):
            *_, (c, A, b, error) = solved
            assert isinstance(error, LpInfeasible)
            assert_farkas_certificate(A, b, error.farkas)
            assert outcome.diagnosis
            return
        for c, A, b, optimum in solved:
            assert_optimality_certificate(c, A, b, optimum)
        assert outcome.is_feasible()
        class_budgets = {cid: norm.budget(cid) for cid in norm.class_ids}
        assert audit_allocation(outcome.budgets(), types, constraints,
                                class_budgets) == []
        binding = outcome.binding()
        assert set(binding) == {t.type_id for t in types}
        assert all(binding.values())

    def test_infeasible_diagnosis_names_the_farkas_rows(self, norm,
                                                        fig5_types):
        floor = BudgetFloor("I3", Frequency.per_hour(1e-5))
        outcome, solved = solve_recorded(norm, fig5_types, "max-min", None,
                                         [floor])
        assert isinstance(outcome, InfeasibleAllocationError)
        assert outcome.diagnosis == ("vS3", floor.describe())
        *_, (c, A, b, error) = solved
        assert_farkas_certificate(A, b, error.farkas)


class TestUniqueness:
    @given(problem=problems(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_renaming_and_reordering_permute_the_budgets(self, problem,
                                                         data):
        norm, types, weights, constraints, objective = problem
        try:
            allocation = allocate_lp(norm, types, objective=objective,
                                     weights=weights,
                                     constraints=constraints)
        except InfeasibleAllocationError:
            return
        rename = {t.type_id: f"R{len(types) - k}"
                  for k, t in enumerate(types)}
        shuffled = data.draw(st.permutations(types))
        renamed = [make_type(rename[t.type_id], dict(t.split.items()),
                             types.index(t)) for t in shuffled]
        renamed_constraints = [_renamed(c, rename) for c in constraints]
        renamed_weights = (None if weights is None else
                           {rename[k]: v for k, v in weights.items()})
        other = allocate_lp(norm, renamed, objective=objective,
                            weights=renamed_weights,
                            constraints=renamed_constraints)
        assert other.strategy == allocation.strategy
        assert other.type_ids == tuple(t.type_id for t in renamed)
        for t in types:
            assert other.budget(rename[t.type_id]).rate == \
                allocation.budget(t.type_id).rate

    def test_reversed_fig5_types_give_the_same_goal_budgets(self, norm,
                                                             fig5_types):
        for objective in OBJECTIVES:
            forward = allocate_lp(norm, fig5_types, objective=objective)
            backward = allocate_lp(norm, fig5_types[::-1],
                                   objective=objective)
            assert backward.budgets() == forward.budgets()


def _renamed(constraint, rename):
    if isinstance(constraint, BudgetFloor):
        return BudgetFloor(rename[constraint.type_id], constraint.minimum)
    if isinstance(constraint, BudgetCeiling):
        return BudgetCeiling(rename[constraint.type_id], constraint.maximum)
    if isinstance(constraint, RiskParity):
        return RiskParity(rename[constraint.protected_type],
                          rename[constraint.reference_type],
                          constraint.protected_exposure,
                          constraint.reference_exposure,
                          constraint.max_ratio)
    return GroupShareCap(tuple(rename[t] for t in constraint.group),
                         constraint.class_id, constraint.max_share)


def closed_form_filling(norm, types, weights):
    """Leximin of ``f_k / w_k`` under Eq. 1 alone, by water-filling.

    With nonnegative rows, a type is fixed exactly when a class it
    touches saturates: raise every free budget as ``w_k t`` until the
    first class fills, fix the types touching it, repeat.
    """
    w = [Fraction(v) for v in _weights(types, weights)]
    budgets = {}
    while len(budgets) < len(types):
        level, full = None, []
        for cid in norm.class_ids:
            free = sum((Fraction(t.split.fraction(cid)) * w[k]
                        for k, t in enumerate(types)
                        if t.type_id not in budgets), Fraction(0))
            if not free:
                continue
            used = sum((Fraction(t.split.fraction(cid)) * budgets[t.type_id]
                        for t in types if t.type_id in budgets), Fraction(0))
            t_class = (Fraction(norm.budget(cid).rate) - used) / free
            if level is None or t_class < level:
                level, full = t_class, [cid]
            elif t_class == level:
                full.append(cid)
        for k, t in enumerate(types):
            if t.type_id not in budgets and any(
                    t.split.fraction(cid) > 0 for cid in full):
                budgets[t.type_id] = w[k] * level
    return {type_id: float(value) for type_id, value in budgets.items()}


class TestLeximin:
    @given(problem=problems())
    @settings(max_examples=40, deadline=None)
    def test_unconstrained_max_min_is_the_closed_form_filling(self, problem):
        norm, types, weights, _, _ = problem
        allocation = allocate_lp(norm, types, objective="max-min",
                                 weights=weights)
        assert {k: v.rate for k, v in allocation.budgets().items()} == \
            closed_form_filling(norm, types, weights)

    def test_example_norm_goal_budgets(self, norm, fig5_types):
        allocation = allocate_lp(norm, fig5_types, objective="max-min")
        assert [allocation.budget(t).rate for t in ("I1", "I2", "I3")] == \
            [0.005, 2.958333333333334e-06, 2.5000000000000004e-07]
        assert allocation.binding() == {"I1": ("vQ2",), "I2": ("vS2",),
                                        "I3": ("vS3",)}

    def test_manual_and_restored_allocations_carry_no_binding(
            self, norm, fig5_types):
        solved = allocate_lp(norm, fig5_types, objective="max-min")
        manual = Allocation(norm, fig5_types, solved.budgets())
        assert manual.binding() is None
        assert solved.with_budget("I1", solved.budget("I1")).binding() is None
        restored = allocation_from_dict(allocation_to_dict(solved))
        assert restored.budgets() == solved.budgets()
        assert restored.binding() is None
