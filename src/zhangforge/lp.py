"""Exact rational simplex solver (two phases, Bland's rule).

Solves   maximize c.x  subject to  A x <= b,  x free in R^n.
Inputs are ints or ``fractions.Fraction``s and outputs ``Fraction``s, but
the tableau is kept over Python ints: each row of (A, b) is scaled by a
positive integer to clear its denominators, and every pivot is
integer-preserving (Edmonds, J. Res. NBS 1967): the tableau is D times the rational one, D the last pivot, and the
update T' = (p T - col row) / D divides exactly.  Positive row scaling only
rescales the slack and artificial variables, so Bland's entering column (a
sign) and the ratio test (compared by cross-multiplication) pick the same
pivots as the rational tableau would.  Bland's rule guarantees termination;
with exact arithmetic there is no tolerance tuning.  Problems here are tiny
(a few dozen constraints, <= 10 variables), so a dense tableau is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import Infeasible, Unbounded
from .linalg import integer_pivot, integer_row

_ZERO = Fraction(0)


@dataclass
class LPResult:
    x: tuple[Fraction, ...]
    value: Fraction


class _Tableau:
    """Integer simplex tableau: rows (constraint coefficients, rhs last) over D."""

    __slots__ = ("rows", "basis", "D")

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.D = 1

    def pivot(self, r: int, c: int) -> None:
        T = self.rows
        p = integer_pivot(T, r, c, self.D)
        if p < 0:  # keep D > 0, so the signs of T are those of the rational tableau
            for i in range(len(T)):
                T[i] = [-x for x in T[i]]
            p = -p
        self.D = p
        self.basis[r] = c

    def simplex(self, cost: list[int]) -> int:
        """Run Bland-rule simplex for the integer ``cost`` (maximization).

        Returns D times the optimal objective value; raises Unbounded.
        """
        T = self.rows
        basis = self.basis
        ncols = len(cost)
        while True:
            # the sign of D * reduced cost_j = D cost_j - sum_i cost_B(i) T_ij
            active = [(cost[b], T[i]) for i, b in enumerate(basis) if cost[b]]
            in_basis = set(basis)
            D = self.D
            enter = -1
            for j in range(ncols):
                if j in in_basis:
                    continue
                red = D * cost[j]
                for cb, row in active:
                    red -= cb * row[j]
                if red > 0:
                    enter = j
                    break
            if enter < 0:
                return sum(cb * row[-1] for cb, row in active)
            leave = -1
            for i in range(len(T)):
                a = T[i][enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # T_i,rhs / a < T_leave,rhs / a_leave, cross-multiplied
                    lhs = T[i][-1] * T[leave][enter]
                    rhs = T[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise Unbounded("LP objective unbounded above")
            self.pivot(leave, enter)


def lp_solve(c, A, b) -> LPResult:
    """maximize c.x s.t. A x <= b (x free). Raises Infeasible / Unbounded."""
    m = len(A)
    n = len(c)
    if m == 0:
        if any(c):
            raise Unbounded("LP objective unbounded above")
        return LPResult(x=(_ZERO,) * n, value=_ZERO)

    # columns: x+ (n) | x- (n) | slack (m) | artificial (one per negative rhs);
    # row i is scaled by L_i > 0, so its slack (and artificial) is L_i times
    # the unscaled one
    nx = 2 * n
    total = nx + m
    T: list[list[int]] = []
    basis: list[int] = []
    scales: list[int] = []  # L_i of the rows with an artificial
    for i in range(m):
        ints, den = integer_row([*A[i], b[i]])
        row = ints[:n] + [-v for v in ints[:n]] + [0] * m + ints[n:]
        row[nx + i] = 1
        if ints[-1] < 0:
            row = [-v for v in row]
            scales.append(den)
            basis.append(total + len(scales) - 1)
        else:
            basis.append(nx + i)
        T.append(row)
    tab = _Tableau(T, basis)
    nart = len(scales)
    if nart:
        for i, bv in enumerate(basis):
            art = [0] * nart
            if bv >= total:
                art[bv - total] = 1
            T[i] = T[i][:-1] + art + T[i][-1:]
        # phase 1 maximizes -(sum of artificials) in the unscaled variables: the
        # scaled artificial of row i costs -1/L_i, times C = lcm of those L_i
        C = lcm(*scales)
        cost1 = [0] * total + [-(C // s) for s in scales]
        if tab.simplex(cost1) < 0:
            raise Infeasible("phase-1 optimum below zero")
        # pivot every artificial still in the basis out; its row has a nonzero
        # entry among the first ``total`` columns, whose slack part has full rank
        for i in range(m):
            if basis[i] >= total:
                tab.pivot(i, next(j for j in range(total) if T[i][j]))
        for i in range(m):
            T[i] = T[i][:total] + [T[i][-1]]

    cint, C2 = integer_row(c)
    value = tab.simplex(cint + [-v for v in cint] + [0] * m)

    D = tab.D
    xplus = [0] * n
    xminus = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            xplus[bv] = T[i][-1]
        elif bv < nx:
            xminus[bv - n] = T[i][-1]
    x = tuple(Fraction(xp - xm, D) for xp, xm in zip(xplus, xminus))
    return LPResult(x=x, value=Fraction(value, C2 * D))


def max_slack_point(A, b) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize the uniform slack t with A x + t <= b, t <= 1.

    Always feasible.  The sign of the optimum classifies {x : A x <= b}:
    t* > 0 gives an interior point, t* == 0 a boundary-only (degenerate) set,
    t* < 0 an empty set.
    """
    n = len(A[0]) if A else 0
    rows = [list(r) + [Fraction(1)] for r in A]
    rows.append([Fraction(0)] * n + [Fraction(1)])
    rhs = list(b) + [Fraction(1)]
    c = [Fraction(0)] * n + [Fraction(1)]
    res = lp_solve(c, rows, rhs)
    return res.value, res.x[:n]
