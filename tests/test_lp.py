from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from zhangforge.errors import Infeasible, Unbounded
from zhangforge.lp import lp_solve, max_slack_point


def test_simple_max():
    # max x + y in the unit square
    A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    b = [1, 0, 1, 0]
    res = lp_solve([1, 1], A, b)
    assert res.value == 2
    assert res.x == (1, 1)


def test_negative_rhs_phase1():
    # x >= 1, x <= 3, maximize -x  -> x = 1
    A = [[-1], [1]]
    b = [-1, 3]
    res = lp_solve([-1], A, b)
    assert res.value == -1
    assert res.x == (Fraction(1),)


def test_infeasible():
    A = [[1], [-1]]
    b = [0, -1]  # x <= 0 and x >= 1
    with pytest.raises(Infeasible):
        lp_solve([1], A, b)


def test_unbounded():
    with pytest.raises(Unbounded):
        lp_solve([1], [[-1]], [0])  # max x with x >= 0


def test_max_slack_classifies():
    square = ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
    t, x = max_slack_point(*square)
    assert t == Fraction(1, 2) and x == (Fraction(1, 2), Fraction(1, 2))
    # degenerate: x <= 0, -x <= 0
    t, _ = max_slack_point([[1], [-1]], [0, 0])
    assert t == 0
    # empty
    t, _ = max_slack_point([[1], [-1]], [0, -1])
    assert t < 0


@pytest.mark.parametrize("seed", range(12))
def test_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n + 1, 9))
    A = rng.integers(-4, 5, size=(m, n))
    b = rng.integers(1, 6, size=m)  # 0 feasible
    # box to keep it bounded
    rows = A.tolist() + [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows += [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    rhs = b.tolist() + [10] * (2 * n)
    c = rng.integers(-3, 4, size=n).tolist()
    mine = lp_solve(c, rows, rhs)
    ref = linprog(
        [-v for v in c], A_ub=np.array(rows, dtype=float), b_ub=np.array(rhs, dtype=float),
        bounds=[(None, None)] * n, method="highs",
    )
    assert ref.success
    assert abs(float(mine.value) + ref.fun) < 1e-7


def test_no_rows():
    # with no constraint every x is feasible: unbounded unless c = 0
    with pytest.raises(Unbounded):
        lp_solve([1], [], [])
    with pytest.raises(Unbounded):
        lp_solve([0, Fraction(-1, 3)], [], [])
    res = lp_solve([0, 0], [], [])
    assert res.x == (0, 0) and res.value == 0
