"""Counting measures on polytopes: G_k, the mixed column measure, discrete
covariograms, and exact ray-interval decompositions behind discrete moments.

Lattice enumeration is column by column over integers: for each integer
point y of the bounding box of the first n-1 coordinates, the integer
halfspace rows of the body (``polytope.integer_rows``) bound x_n to an
integer range by floor division, and the points (y, t) come out in
lexicographic order.  One rule decides membership in the open fattening
P + (-1,1)^k x {0}^{n-k} for every k: with F the closed sum
P + [-1,1]^k x {0}^{n-k} (built once per body and k by :func:`fattening`,
with no hull for a full-dimensional P), x is in
the open fattening exactly when it satisfies every halfspace of F, strictly
on the rows whose normal has a nonzero entry among the first k coordinates.
k = 0 is the body itself with no strict rows.  The column measure walks the
same columns over the same rows (:func:`column_lengths`): each column's
section length is exact, and no projection of the body is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from operator import mul

from .errors import DimensionMismatch, OriginMissing, Unbounded
from .linalg import dot, vec
from .lp import lp_solve  # noqa: F401  (unused here; perfbench/tracer.py's REQUIRED_BINDINGS needs it)
from .polytope import (
    Direction,
    Interval,
    MeasureValue,
    Polytope,
    cube_sum,
    integer_rows,
    minkowski_sum,
    translate,
)

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


def _column_rows(P: Polytope, k: int = 0):
    """P's integer rows as bounds on x_n over an integer column y: (up, down, flat).

    Over integers a strict row den*<a, x> < num is den*<a, x> <= num - 1, so
    with k > 0 the rows of the open fattening read strictly on the first k
    coordinates.  Every row then reads den*a_n*t <= c - <h, y> with
    h = den*a'; each list holds (h, c, den*|a_n|), split by the sign of a_n.
    """
    up, down, flat = [], [], []
    for a, num, den in integer_rows(P):
        row = (tuple(den * x for x in a[:-1]), num - any(a[:k]), den * abs(a[-1]))
        (up if a[-1] > 0 else down if a[-1] < 0 else flat).append(row)
    return up, down, flat


def _columns(box, flat):
    """Integer points y of the box of the first n-1 coordinates that satisfy
    every flat row, in lexicographic order."""
    for y in product(*(range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box[:-1])):
        if not any(c < sum(map(mul, h, y)) for h, c, _ in flat):
            yield y


def lattice_points(P: Polytope, open_cube_k: int = 0) -> LatticePointSet:
    """Integer points of P (open_cube_k = 0) or of P + (-1,1)^k x {0}^{n-k}."""
    fat = fattening(P, open_cube_k)
    box = fat.bounding_box()
    up, down, flat = _column_rows(fat, open_cube_k)
    t_lo, t_hi = math.ceil(box[-1][0]), math.floor(box[-1][1])
    pts = []
    # ascending columns, ascending t within each: lexicographic order
    for y in _columns(box, flat):
        lo, hi = t_lo, t_hi
        for h, c, q in up:
            hi = min(hi, (c - sum(map(mul, h, y))) // q)
        for h, c, q in down:
            lo = max(lo, -((c - sum(map(mul, h, y))) // q))
        pts.extend(y + (t,) for t in range(lo, hi + 1))
    if P._lattice_counts is None:
        P._lattice_counts = {}
    P._lattice_counts[open_cube_k] = len(pts)
    return LatticePointSet(P.dim, tuple(pts))


def count_lattice(P: Polytope, open_cube_k: int = 0) -> int:
    """len(lattice_points(P, open_cube_k)), read off an earlier enumeration of
    P when there was one (only the count is kept, never the points)."""
    if P._lattice_counts is None or open_cube_k not in P._lattice_counts:
        lattice_points(P, open_cube_k)
    return P._lattice_counts[open_cube_k]


def column_lengths(P: Polytope) -> dict[tuple[int, ...], Fraction]:
    """Vertical-section length over each integer point y of the projection of P,
    in lexicographic order, read off P's own integer rows with no projection.

    The integer columns of P's bounding box are walked as in
    :func:`lattice_points`.  Over a column y the section is
    max_down (<h, y> - c)/q <= t <= min_up (c - <h, y>)/q; the ends are picked
    by cross-multiplying, and one Fraction, hi - lo, is built per column.  A
    column is kept exactly when its section is non-empty, that is when y lies
    in the projection; a body with no upper or no lower row raises
    ``Unbounded`` there, as ``vertical_section`` does.
    """
    if P.dim < 2:
        raise DimensionMismatch("column lengths need ambient dimension >= 2")
    up, down, flat = _column_rows(P)
    out = {}
    for y in _columns(P.bounding_box(), flat):
        if not up or not down:
            raise Unbounded("vertical line section is unbounded")
        hi_n = hi_d = lo_n = lo_d = None  # lo_n/lo_d <= t <= hi_n/hi_d
        for h, c, q in up:
            r = c - sum(map(mul, h, y))
            if hi_n is None or r * hi_d < hi_n * q:
                hi_n, hi_d = r, q
        for h, c, q in down:
            r = sum(map(mul, h, y)) - c
            if lo_n is None or r * lo_d > lo_n * q:
                lo_n, lo_d = r, q
        if lo_n * hi_d <= hi_n * lo_d:
            out[y] = Fraction(hi_n * lo_d - lo_n * hi_d, hi_d * lo_d)
    return out


def mu_measure(P: Polytope) -> MeasureValue:
    """Sum of vertical-section lengths over the integer columns of the projection."""
    if P.dim < 2:
        raise ValueError("column measure needs ambient dimension >= 2")
    return MeasureValue.from_exact(sum(column_lengths(P).values(), _ZERO))


def discrete_covariogram(P: Polytope, x) -> int:
    """Number of integer points of P cap (x + P); 0 when the sets are disjoint."""
    from .polytope import intersect

    Q = intersect(P, translate(P, x))
    if Q is None:
        return 0
    return count_lattice(Q)


@dataclass(frozen=True)
class RayDecomposition:
    """Per-lattice-point parameter intervals {r >= 0 : y - r theta in K}.

    Intervals are stated for the unit-normalized direction.  They are exact
    rationals whenever the direction's Euclidean norm is rational (all axis
    directions); otherwise endpoints are binary64-rounded and ``exact`` is
    False.
    """

    direction: Direction
    entries: tuple[tuple[tuple[int, ...], Interval], ...]
    open_cube: bool
    exact: bool

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
    pts = lattice_points(P, k)
    nrm = theta.exact_norm()
    exact = nrm is not None
    scale = nrm if exact else Fraction(math.sqrt(float(theta.norm_sq)))
    entries = []
    for y in pts:
        seg = ray_interval(body, y, theta.raw, open_cube)
        if seg is None:
            continue
        lo, hi = seg
        entries.append((y, Interval(lo * scale, hi * scale, False, open_cube)))
    return RayDecomposition(theta, tuple(entries), open_cube, exact)


def discrete_ray_moment(decomp: RayDecomposition, p) -> MeasureValue:
    """p * integral of r^{p-1} G_n(K cap (r theta + K)) dr = sum (b^p - a^p)."""
    if isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
        q = int(p)
        if q <= 0:
            raise ValueError("moment exponent must be positive")
        if decomp.exact:
            total = sum((iv.hi**q - iv.lo**q for _, iv in decomp.entries), _ZERO)
            return MeasureValue.from_exact(total)
    pf = float(p)
    if pf <= 0:
        raise ValueError("moment exponent must be positive")
    total = 0.0
    for _, iv in decomp.entries:
        total += float(iv.hi) ** pf - float(iv.lo) ** pf
    err = 1e-13 * max(1.0, abs(total)) * max(1, len(decomp.entries))
    return MeasureValue.approx(total, err)
