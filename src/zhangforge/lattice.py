"""Counting measures on polytopes: G_k, the mixed column measure, discrete
covariograms, and the exact lattice ray reaches behind discrete moments.

Every column read is one table (:func:`_column_walk`), built once per body
and k and kept as the body's memo entry ("columns", k) (``Polytope.memo``):
``polytope._column_rows`` sets the body's integer rows up once, over one
common denominator for the upper and one for the lower rows, and along each
line of the bounding box in the last of the first n-1 coordinates
``polytope._line_runs`` reads the ends as the lower envelopes of the rows'
residual progressions: piecewise linear in the column, so the table takes
each run of non-empty columns as progressions, with no minimum per column.
Lattice points, their count (no point built), column lengths, the column
measure and the vertical ray moment read the table, in lexicographic order,
with no projection; every entry has the same denominators, so each sum is
one integer sum and one Fraction.

One rule decides membership in the open fattening
P + (-1,1)^k x {0}^{n-k} for every k: with F the closed sum
P + [-1,1]^k x {0}^{n-k} (built once per body and k by :func:`fattening`
and kept as the memo entry ("fattening", k), with no hull for a
full-dimensional P), x is in the open fattening exactly when it satisfies
every halfspace of F, strictly on the rows whose normal has a nonzero entry
among the first k coordinates.  k = 0 is the body itself.

Along a direction theta, every lattice point y of K (or of its open
fattening) lies in K (strictly inside F), so its ray {y - r theta.raw}
starts inside and meets the body in [0, rho_y] (or [0, rho_y)): one reach
per point, read off the integer rows by :func:`ray_decomposition`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from operator import mul

from .errors import DimensionMismatch, ExponentOutOfRange, FrozenRecord, OriginMissing
from .linalg import integer_row
from .lp import lp_solve  # noqa: F401  (unused here; perfbench/tracer.py's REQUIRED_BINDINGS needs it)
from .polytope import (
    Direction,
    Polytope,
    _column_rows,
    _line_ends,
    _line_runs,
    _run_ends,
    cube_sum,
    integer_rows,
    minkowski_sum,
    translate,
)
from .verdict import MeasureValue

_ZERO = Fraction(0)


@cache
def closed_unit_cube(k: int, dim: int) -> Polytope:
    """The closed cube [-1,1]^k x {0}^{dim-k}, built once per (k, dim)."""
    pts = []
    for signs in product((-1, 1), repeat=k):
        pts.append(tuple(Fraction(s) for s in signs) + tuple(Fraction(0) for _ in range(dim - k)))
    return Polytope.from_points(pts, dim)


def fattening(P: Polytope, k: int) -> Polytope:
    """The closed sum P + [-1,1]^k x {0}^{n-k}, P's memo entry ("fattening", k);
    P itself for k = 0.

    A full-dimensional P is fattened with no hull, one segment [-e_i, e_i]
    at a time (``polytope.cube_sum``); a lower-dimensional P hulls the
    Minkowski sum with ``closed_unit_cube(k, n)``.
    """
    if k == 0:
        return P
    return P.memo(("fattening", k), lambda: cube_sum(P, k) if P.is_full_dimensional
                  else minkowski_sum(P, closed_unit_cube(k, P.dim)))


def _column_walk(P: Polytope, k: int = 0):
    """:func:`_column_table` of (P, k), P's memo entry ("columns", k)."""
    return P.memo(("columns", k), lambda: _column_table(P, k))


def _column_table(P: Polytope, k: int):
    """(y, ends) for each integer column y of the k-fattening's bounding box
    with a non-empty section, in lexicographic order, ends as
    ``polytope._line_ends`` gives them: one line of the box in the last
    coordinate at a time, each run of ``polytope._line_runs`` emitted from
    its progressions.  Every entry has the one denominator pair
    lo_d = Qd, hi_d = Qu of the rows; with k > 0 the rows are strict and the
    ends bound only the column's integer points."""
    fat = fattening(P, k)
    rows = _column_rows(fat, k)
    (Qu, _up), (Qd, _down), _flat = rows
    L = fat._L
    box = [range(-(-min(c) // L), max(c) // L + 1) for c in list(zip(*fat._V))[:-1]]
    if not box:  # n = 1: the one column y = ()
        return tuple(((), e) for e in _line_ends(rows, ()) if e is not None)
    line = box.pop()
    t0, length = line.start, len(line)
    table = []
    for head in product(*box):
        for run in _line_runs(rows, head + (t0,), 1, length):
            table += zip(map(head.__add__, zip(range(t0 + run[0], t0 + run[1]))), _run_ends(run, Qd, Qu))
    return tuple(table)


def _length_sum(table, e: int) -> Fraction:
    """Sum of ell^e over a column table's entries, ell = hi_n/hi_d - lo_n/lo_d:
    one integer sum over the table's one denominator pair, one Fraction."""
    if not table:
        return _ZERO
    _y, (_lo, lo_d, _hi, hi_d) = table[0]
    return Fraction(sum((hi_n * lo_d - lo_n * hi_d) ** e for _y, (lo_n, _ld, hi_n, _hd) in table),
                    (hi_d * lo_d) ** e)


def column_ranges(P: Polytope, open_cube_k: int = 0):
    """(y, lo, hi) for each integer column y holding the integer points
    (y, lo), ..., (y, hi) of P (open_cube_k = 0) or of
    P + (-1,1)^k x {0}^{n-k}, lo <= hi, in lexicographic order."""
    for y, (lo_n, lo_d, hi_n, hi_d) in _column_walk(P, open_cube_k):
        lo, hi = -(-lo_n // lo_d), hi_n // hi_d
        if lo <= hi:
            yield y, lo, hi


def lattice_points(P: Polytope, open_cube_k: int = 0) -> tuple[tuple[int, ...], ...]:
    """Integer points of P (open_cube_k = 0) or of P + (-1,1)^k x {0}^{n-k},
    sorted."""
    pts = []
    # ascending columns, ascending t within each: lexicographic order
    for y, lo, hi in column_ranges(P, open_cube_k):
        pts.extend(y + (t,) for t in range(lo, hi + 1))
    return tuple(pts)


def count_lattice(P: Polytope, open_cube_k: int = 0) -> int:
    """len(lattice_points(P, open_cube_k)), with no point built."""
    return sum(hi - lo + 1 for _y, lo, hi in column_ranges(P, open_cube_k))


def column_lengths(P: Polytope) -> dict[tuple[int, ...], Fraction]:
    """Vertical-section length over each integer point y of the projection of P
    (length-0 columns kept), one Fraction per column of the walk."""
    if P.dim < 2:
        raise DimensionMismatch("column lengths need ambient dimension >= 2")
    return {y: Fraction(hi_n * lo_d - lo_n * hi_d, hi_d * lo_d)
            for y, (lo_n, lo_d, hi_n, hi_d) in _column_walk(P)}


def column_length_sum(P: Polytope, e: int) -> Fraction:
    """Sum of ell_y^e over the integer columns y of P, ell_y the vertical-section
    length."""
    if P.dim < 2:
        raise DimensionMismatch("column measure needs ambient dimension >= 2")
    return _length_sum(_column_walk(P), e)


def fattened_mu(P: Polytope) -> Fraction:
    """mu(P + (-1,1)^{n-1} x {0}): over each integer column of the open
    fattening, the section length of the closed one there (its supremum over
    the open window)."""
    cols = {y for y, _lo, _hi in column_ranges(P, P.dim - 1)}
    return _length_sum([entry for entry in _column_walk(fattening(P, P.dim - 1)) if entry[0] in cols], 1)


def column_moment(P: Polytope, p: int) -> Fraction:
    """p * integral of r^{p-1} G_n(P cap (r e_n + P)) dr for an integer p >= 1:
    the sum of (t - a_y)^p over the lattice points (y, t) of P, a_y = lo_n/lo_d
    the lower end of the column (y - r e_n is in P for 0 <= r <= t - a_y), over
    the table's one lower denominator."""
    table = _column_walk(P)
    if not table:
        return _ZERO
    lo_d = table[0][1][1]
    return Fraction(sum((t * lo_d - lo_n) ** p for _y, (lo_n, _ld, hi_n, hi_d) in table
                        for t in range(-(-lo_n // lo_d), hi_n // hi_d + 1)), lo_d**p)


def mu_measure(P: Polytope) -> MeasureValue:
    """Sum of vertical-section lengths over the integer columns of the projection."""
    return MeasureValue.from_exact(column_length_sum(P, 1))


def discrete_covariogram(P: Polytope, x) -> int:
    """Number of integer points of P cap (x + P); 0 when the sets are disjoint."""
    from .polytope import intersect

    Q = intersect(P, translate(P, x))
    if Q is None:
        return 0
    return count_lattice(Q)


_set = object.__setattr__


class RayDecomposition(FrozenRecord):
    """The reach rho_y of each lattice point y of K (or of its open
    fattening): y - r theta.raw is in K for r in [0, rho_y], and in the open
    fattening for r in [0, rho_y) when ``open_cube`` is set.

    r is in units of ``theta.raw``, not of a unit vector, so every reach is
    an exact rational for every rational direction: the radials built from
    the reaches are homogeneous of degree -1 in theta, and the moments sum
    rho^p of degree p, so a raw direction needs no normalization.
    """

    __slots__ = _fields = ("entries", "open_cube")

    def __init__(self, entries: tuple[tuple[tuple[int, ...], Fraction], ...], open_cube: bool):
        _set(self, "entries", entries)
        _set(self, "open_cube", open_cube)

    def max_reach(self) -> Fraction:
        """Largest reach; the radial of (K cap Z^n) - K for closed decompositions."""
        return max((rho for _, rho in self.entries), default=_ZERO)


def ray_decomposition(P: Polytope, theta: Direction, open_cube: bool = False) -> RayDecomposition:
    """The reach of each lattice point y of P (``open_cube`` false) or of
    P + (-1,1)^n, read off the integer rows (a, num, den) of P or of the closed
    fattening F.  Each y lies in P (strictly inside F), so its ray starts
    inside; with theta.raw = W/L, it leaves through a row with
    s = den <a, W> < 0 at r = L (num - den <a, y>) / (-s).  The least such r
    is picked by cross-multiplying, over integers, and built as one Fraction.
    """
    if not P.contains(tuple(_ZERO for _ in range(P.dim))):
        raise OriginMissing("ray decompositions require 0 in the body")
    k = P.dim if open_cube else 0
    W, L = integer_row(theta.raw)
    exits = []  # (den a, num, -s) over the rows the ray leaves through
    for a, num, den in integer_rows(fattening(P, k)):
        s = den * sum(map(mul, a, W))
        if s < 0:
            exits.append((tuple(den * x for x in a), num, -s))
    entries = []
    for y in lattice_points(P, k):
        c, q = None, 1  # the least (num - <den a, y>) / -s so far, as c / q
        for h, num, s in exits:
            r = num - sum(map(mul, h, y))
            if c is None or r * q < c * s:
                c, q = r, s
        entries.append((y, Fraction(L * c, q)))
    return RayDecomposition(tuple(entries), open_cube)


def discrete_ray_moment(decomp: RayDecomposition, p) -> MeasureValue:
    """p * integral of r^{p-1} G_n(K cap (r theta + K)) dr = sum rho_y^p,
    exact for an integer p, binary64 for a fractional one."""
    pf = float(p)
    if pf <= 0:
        raise ExponentOutOfRange("moment exponent must be positive")
    if pf == int(pf):
        q = int(pf)
        return MeasureValue.from_exact(sum((rho**q for _, rho in decomp.entries), _ZERO))
    total = 0.0
    for _, rho in decomp.entries:
        total += float(rho) ** pf
    err = 1e-13 * max(1.0, abs(total)) * max(1, len(decomp.entries))
    return MeasureValue.approx(total, err)
