"""Counting measures on polytopes: G_k, the mixed column measure, discrete
covariograms, and exact ray-interval decompositions behind discrete moments.

Every column read is one table (:func:`_column_walk`), built once per body
and k and memoized on the body: over each integer point y of the bounding
box of the first n-1 coordinates, ``polytope._line_ends`` picks the exact
ends of the section from the residuals of the body's integer rows.  A line
of the box in the last coordinate takes one dot product per row at its
first column; from there each residual steps by the row's last coefficient.
Lattice points, their count (no point built), column lengths, the column
measure and the vertical ray moment read the table, in lexicographic order,
with no projection; the sums add integer numerators per distinct
denominator and build one Fraction per denominator.  One rule decides
membership in the open fattening P + (-1,1)^k x {0}^{n-k} for every k: with
F the closed sum P + [-1,1]^k x {0}^{n-k} (built once per body and k by
:func:`fattening`, with no hull for a full-dimensional P), x is in the open
fattening exactly when it satisfies every halfspace of F, strictly on the
rows whose normal has a nonzero entry among the first k coordinates.  k = 0
is the body itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

from .errors import DimensionMismatch, ExponentOutOfRange, OriginMissing
from .linalg import dot, vec
from .lp import lp_solve  # noqa: F401  (unused here; perfbench/tracer.py's REQUIRED_BINDINGS needs it)
from .polytope import (
    Direction,
    Interval,
    Polytope,
    _column_rows,
    _line_ends,
    cube_sum,
    minkowski_sum,
    translate,
)
from .verdict import MeasureValue

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LatticePointSet:
    """Sorted, duplicate-free integer points of a polytope (or its fattening)."""

    dim: int
    points: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@cache
def closed_unit_cube(k: int, dim: int) -> Polytope:
    """The closed cube [-1,1]^k x {0}^{dim-k}, built once per (k, dim)."""
    pts = []
    for signs in product((-1, 1), repeat=k):
        pts.append(tuple(Fraction(s) for s in signs) + tuple(Fraction(0) for _ in range(dim - k)))
    return Polytope.from_points(pts, dim)


def fattening(P: Polytope, k: int) -> Polytope:
    """The closed sum P + [-1,1]^k x {0}^{n-k}, memoized on ``P``; P itself for k = 0.

    A full-dimensional P is fattened with no hull, one segment [-e_i, e_i]
    at a time (``polytope.cube_sum``); a lower-dimensional P hulls the
    Minkowski sum with ``closed_unit_cube(k, n)``.
    """
    if k == 0:
        return P
    if P._fattenings is None:
        P._fattenings = {}
    if k not in P._fattenings:
        P._fattenings[k] = (cube_sum(P, k) if P.is_full_dimensional
                            else minkowski_sum(P, closed_unit_cube(k, P.dim)))
    return P._fattenings[k]


def _column_walk(P: Polytope, k: int = 0):
    """:func:`_column_table` of (P, k), built once and memoized on ``P``."""
    if P._column_tables is None:
        P._column_tables = {}
    if k not in P._column_tables:
        P._column_tables[k] = _column_table(P, k)
    return P._column_tables[k]


def _column_table(P: Polytope, k: int):
    """(y, ends) for each integer column y of the k-fattening's bounding box
    with a non-empty section, in lexicographic order, ends as
    ``polytope._line_ends`` gives them, one line of the box in the last
    coordinate at a time; with k > 0 the rows are strict and the ends bound
    only the column's integer points."""
    fat = fattening(P, k)
    rows = _column_rows(fat, k)
    box = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in fat.bounding_box()[:-1]]
    if not box:  # n = 1: the one column y = ()
        return tuple(((), e) for e in _line_ends(rows, ()) if e is not None)
    line = box.pop()
    table = []
    for head in product(*box):
        ends = _line_ends(rows, head + (line.start,), 1, len(line))
        table += [(head + (t,), e) for t, e in zip(line, ends) if e is not None]
    return tuple(table)


def _per_denominator(pairs) -> Fraction:
    """Sum of num/den over integer pairs, den > 0: the numerators are added
    per distinct den, one Fraction each."""
    acc: dict[int, int] = {}
    for num, den in pairs:
        acc[den] = acc.get(den, 0) + num
    return sum((Fraction(num, den) for den, num in acc.items()), _ZERO)


def column_ranges(P: Polytope, open_cube_k: int = 0):
    """(y, lo, hi) for each integer column y holding the integer points
    (y, lo), ..., (y, hi) of P (open_cube_k = 0) or of
    P + (-1,1)^k x {0}^{n-k}, lo <= hi, in lexicographic order."""
    for y, (lo_n, lo_d, hi_n, hi_d) in _column_walk(P, open_cube_k):
        lo, hi = -(-lo_n // lo_d), hi_n // hi_d
        if lo <= hi:
            yield y, lo, hi


def lattice_points(P: Polytope, open_cube_k: int = 0) -> LatticePointSet:
    """Integer points of P (open_cube_k = 0) or of P + (-1,1)^k x {0}^{n-k}."""
    pts = []
    # ascending columns, ascending t within each: lexicographic order
    for y, lo, hi in column_ranges(P, open_cube_k):
        pts.extend(y + (t,) for t in range(lo, hi + 1))
    return LatticePointSet(P.dim, tuple(pts))


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
    length, summed per denominator."""
    if P.dim < 2:
        raise DimensionMismatch("column measure needs ambient dimension >= 2")
    return _per_denominator(((hi_n * lo_d - lo_n * hi_d) ** e, (hi_d * lo_d) ** e)
                            for _y, (lo_n, lo_d, hi_n, hi_d) in _column_walk(P))


def fattened_mu(P: Polytope) -> Fraction:
    """mu(P + (-1,1)^{n-1} x {0}): over each integer column of the open
    fattening, the section length of the closed one there (its supremum over
    the open window), summed per denominator."""
    cols = {y for y, _lo, _hi in column_ranges(P, P.dim - 1)}
    return _per_denominator((hi_n * lo_d - lo_n * hi_d, hi_d * lo_d)
                            for y, (lo_n, lo_d, hi_n, hi_d) in _column_walk(fattening(P, P.dim - 1))
                            if y in cols)


def column_moment(P: Polytope, p: int) -> Fraction:
    """p * integral of r^{p-1} G_n(P cap (r e_n + P)) dr for an integer p >= 1:
    the sum of (t - a_y)^p over the lattice points (y, t) of P, a_y = lo_n/lo_d
    the lower end of the column (y - r e_n is in P for 0 <= r <= t - a_y)."""
    return _per_denominator(
        (sum((t * lo_d - lo_n) ** p for t in range(-(-lo_n // lo_d), hi_n // hi_d + 1)), lo_d**p)
        for _y, (lo_n, lo_d, hi_n, hi_d) in _column_walk(P))


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


@dataclass(frozen=True)
class RayDecomposition:
    """Per-lattice-point parameter intervals {r >= 0 : y - r theta.raw in K}.

    r is in units of ``theta.raw``, not of a unit vector, so every endpoint
    is an exact rational for every rational direction: the radials built
    from these intervals are homogeneous of degree -1 in theta, and the
    moments sum (b^p - a^p) of degree p, so a raw direction needs no
    normalization.
    """

    direction: Direction
    entries: tuple[tuple[tuple[int, ...], Interval], ...]
    open_cube: bool

    def max_reach(self) -> Fraction:
        """Largest upper endpoint; the radial of (K cap Z^n) - K for closed decompositions."""
        return max((iv.hi for _, iv in self.entries), default=_ZERO)


def ray_interval(body: Polytope, point, raw, strict: bool = False):
    """(lo, hi) of {r >= 0 : point - r*raw in body} in raw-direction units, or None.

    ``strict`` asks for the open interior of ``body`` (endpoints then open).
    """
    yv = vec(point)
    lo = _ZERO
    hi: Fraction | None = None
    for a, b in body.halfspaces:
        s = dot(a, raw)
        c = dot(a, yv) - b
        if s == 0:
            if c > 0 or (strict and c == 0):
                return None
        elif s > 0:
            lo = max(lo, c / s)
        else:
            t = c / s
            hi = t if hi is None else min(hi, t)
    if hi is None or lo > hi or (strict and lo == hi):
        return None
    return lo, hi


def ray_decomposition(P: Polytope, theta: Direction, open_cube: bool = False) -> RayDecomposition:
    if not P.contains(tuple(Fraction(0) for _ in range(P.dim))):
        raise OriginMissing("ray decompositions require 0 in the body")
    k = P.dim if open_cube else 0
    body = fattening(P, k)
    entries = []
    for y in lattice_points(P, k):
        seg = ray_interval(body, y, theta.raw, open_cube)
        if seg is not None:
            entries.append((y, Interval(*seg, False, open_cube)))
    return RayDecomposition(theta, tuple(entries), open_cube)


def discrete_ray_moment(decomp: RayDecomposition, p) -> MeasureValue:
    """p * integral of r^{p-1} G_n(K cap (r theta + K)) dr = sum (b^p - a^p),
    exact for an integer p, binary64 for a fractional one."""
    pf = float(p)
    if pf <= 0:
        raise ExponentOutOfRange("moment exponent must be positive")
    if pf == int(pf):
        q = int(pf)
        return MeasureValue.from_exact(sum((iv.hi**q - iv.lo**q for _, iv in decomp.entries), _ZERO))
    total = 0.0
    for _, iv in decomp.entries:
        total += float(iv.hi) ** pf - float(iv.lo) ** pf
    err = 1e-13 * max(1.0, abs(total)) * max(1, len(decomp.entries))
    return MeasureValue.approx(total, err)
