"""Exact linear programming: a dense two-phase simplex over ``Fraction``.

:func:`maximise` solves ``max c·x  subject to  A x <= b,  x >= 0`` in
exact rational arithmetic, and :func:`leximin` finds the leximin point
of such a polytope by a sequence of those LPs.  Every answer comes with
a certificate that is checked exactly before it is returned:

* an optimum carries the dual ``y >= 0`` with ``Aᵀy >= c`` and
  ``b·y == c·x`` (strong duality), which proves ``x`` optimal;
* an empty polytope raises :class:`LpInfeasible` carrying a Farkas
  vector ``y >= 0`` with ``yᵀA >= 0`` and ``yᵀb < 0``, which proves that
  no ``x`` exists.

A certificate that fails its check raises :class:`LpError`: a solver
defect surfaces as an error, never as a wrong answer.  Bland's rule
(lowest-index entering column; on ratio ties, the row whose basic
variable has the lowest index leaves) rules out cycling and makes the
pivot sequence, and so the certificate, a function of the input alone.

The allocation LPs of :mod:`repro.core.allocation` have a few dozen
rows and columns at most, so dense rows of Fractions are fast enough
and need no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

__all__ = ["LpError", "LpInfeasible", "LpOptimum", "leximin", "maximise"]


class LpError(ArithmeticError):
    """An unbounded LP, or a certificate that failed its exact check."""


class LpInfeasible(LpError):
    """``A x <= b, x >= 0`` has no solution; ``farkas`` proves it."""

    def __init__(self, farkas: Sequence[Fraction]):  # noqa: D107
        super().__init__("the constraints admit no solution")
        self.farkas: Tuple[Fraction, ...] = tuple(farkas)


@dataclass(frozen=True)
class LpOptimum:
    """An optimal primal ``x``, its dual ``y`` and the optimal value."""

    x: Tuple[Fraction, ...]
    y: Tuple[Fraction, ...]
    value: Fraction


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _column_sums(y: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                 n: int) -> List[Fraction]:
    """``yᵀA`` over ``n`` columns."""
    return [_dot(y, [row[j] for row in A]) for j in range(n)]


def _pivot(rows: List[List[Fraction]], objective: List[Fraction],
           basis: List[int], r: int, col: int) -> None:
    pivot = rows[r][col]
    if pivot != 1:
        rows[r] = [value / pivot for value in rows[r]]
    pivot_row = rows[r]
    for i, row in enumerate(rows):
        factor = row[col]
        if i != r and factor:
            rows[i] = [value - factor * p if p else value
                       for value, p in zip(row, pivot_row)]
    factor = objective[col]
    if factor:
        objective[:] = [value - factor * p if p else value
                        for value, p in zip(objective, pivot_row)]
    basis[r] = col


def _iterate(rows: List[List[Fraction]], objective: List[Fraction],
             basis: List[int], columns: int) -> None:
    """Pivot with Bland's rule until no column below ``columns`` improves."""
    while True:
        col = next((j for j in range(columns) if objective[j] > 0), None)
        if col is None:
            return
        leave = -1
        best = Fraction(0)
        for i, row in enumerate(rows):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if leave < 0 or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            raise LpError("the LP is unbounded")
        _pivot(rows, objective, basis, leave, col)


def _objective_row(costs: Sequence[Fraction], rows: List[List[Fraction]],
                   basis: List[int]) -> List[Fraction]:
    """Reduced costs ``c_j − c_Bᵀ B⁻¹ A_j`` and, last, minus the value."""
    objective = list(costs) + [Fraction(0)]
    for row, var in zip(rows, basis):
        cost = costs[var]
        if cost:
            objective = [value - cost * entry if entry else value
                         for value, entry in zip(objective, row)]
    return objective


def maximise(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
             b: Sequence[Fraction]) -> LpOptimum:
    """``max c·x  s.t.  A x <= b, x >= 0``, exactly, with its certificate.

    Columns of the tableau are ``x`` (``n``), one slack per row (``m``)
    and one artificial per row with ``b_i < 0``.  Phase 1 maximises
    minus the artificials' sum; phase 2 maximises ``c·x`` from the
    feasible basis phase 1 found.  The dual of row ``i`` is read off as
    minus the final reduced cost of its slack, in both phases.
    """
    m, n = len(A), len(c)
    artificial = [i for i in range(m) if b[i] < 0]
    width = n + m + len(artificial)
    one, zero = Fraction(1), Fraction(0)
    rows: List[List[Fraction]] = []
    basis: List[int] = []
    for i in range(m):
        row = list(A[i]) + [zero] * (width - n) + [b[i]]
        row[n + i] = one
        if b[i] < 0:
            row = [-value for value in row]
            column = n + m + artificial.index(i)
            row[column] = one
            basis.append(column)
        else:
            basis.append(n + i)
        rows.append(row)

    if artificial:
        phase1 = [zero] * (n + m) + [-one] * len(artificial)
        objective = _objective_row(phase1, rows, basis)
        _iterate(rows, objective, basis, width)
        if objective[-1] != 0:
            farkas = [-objective[n + i] for i in range(m)]
            _check_farkas(A, b, farkas)
            raise LpInfeasible(farkas)
        # Pivot any artificial still basic (at zero) onto a real column;
        # a row with no real entry left is redundant and never pivots.
        for r, var in enumerate(basis):
            if var >= n + m:
                col = next((j for j in range(n + m) if rows[r][j]), None)
                if col is not None:
                    _pivot(rows, [zero] * (width + 1), basis, r, col)

    costs = list(c) + [zero] * (width - n)
    objective = _objective_row(costs, rows, basis)
    _iterate(rows, objective, basis, n + m)
    x = [zero] * n
    for row, var in zip(rows, basis):
        if var < n:
            x[var] = row[-1]
    y = [-objective[n + i] for i in range(m)]
    optimum = LpOptimum(tuple(x), tuple(y), -objective[-1])
    _check_optimum(c, A, b, optimum)
    return optimum


def _check_farkas(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                  y: Sequence[Fraction]) -> None:
    n = len(A[0]) if A else 0
    if (any(v < 0 for v in y) or any(s < 0 for s in _column_sums(y, A, n))
            or _dot(y, b) >= 0):
        raise LpError("Farkas certificate failed its exact check")


def _check_optimum(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                   b: Sequence[Fraction], optimum: LpOptimum) -> None:
    x, y = optimum.x, optimum.y
    primal = (all(v >= 0 for v in x)
              and all(_dot(row, x) <= bound for row, bound in zip(A, b)))
    dual = (all(v >= 0 for v in y)
            and all(s >= cost for s, cost in
                    zip(_column_sums(y, A, len(c)), c)))
    if not (primal and dual and _dot(b, y) == _dot(c, x) == optimum.value):
        raise LpError("optimality certificate failed its exact check "
                      "(strong duality b·y == c·x)")


def leximin(w: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
            b: Sequence[Fraction],
            ) -> Tuple[List[Fraction], List[Tuple[int, ...]]]:
    """Leximin point of ``x_k / w_k`` over ``{A x <= b, x >= 0}``.

    Progressive filling: each round raises every free variable with
    ``x_k >= w_k t`` and maximises ``t``.  A free variable whose filling
    row has a positive multiplier in the round's dual cannot pass
    ``w_k t`` in any optimum (complementary slackness), so it is fixed
    there; the multipliers sum to at least 1 over the filling rows, so
    each round fixes one variable or more.  A tied variable whose
    multiplier happens to be zero is fixed by a later round at the same
    ``t``.  Returns the point and, per variable, the indices of the rows
    of ``A`` with positive multipliers in the round that fixed it.
    """
    n, m = len(w), len(A)
    x: List[Optional[Fraction]] = [None] * n
    binding: List[Tuple[int, ...]] = [()] * n
    zero = Fraction(0)
    while None in x:
        free = [k for k in range(n) if x[k] is None]
        rows = [[row[k] for k in free] + [zero] for row in A]
        bounds = [bound - sum((row[k] * x[k] for k in range(n)
                               if x[k] is not None and row[k]), zero)
                  for row, bound in zip(A, b)]
        for i, k in enumerate(free):
            filling = [zero] * (len(free) + 1)
            filling[i], filling[-1] = Fraction(-1), w[k]
            rows.append(filling)
            bounds.append(zero)
        optimum = maximise([zero] * len(free) + [Fraction(1)], rows, bounds)
        tight = tuple(i for i in range(m) if optimum.y[i] > 0)
        for i, k in enumerate(free):
            if optimum.y[m + i] > 0:
                x[k] = w[k] * optimum.value
                binding[k] = tight
    return x, binding
