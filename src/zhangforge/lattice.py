"""Counting measures on polytopes: G_k, the mixed column measure, discrete
covariograms, and the exact lattice ray reaches behind discrete moments.

Every column read is one run table (:func:`_box_runs`): of a body's rows
over its bounding box (:func:`_run_table`), built once per body and k and
kept as the body's memo entry ("columns", k) (``Polytope.memo``), or of
given rows over a body's box that holds them (the overlap rows of
``polytope._overlap_rows``, in :func:`_rows_mu` and
:func:`discrete_covariogram`).  ``polytope._column_rows_of`` sets the rows
up once, over one common denominator for the upper and one for the lower
rows, and along each line of the box in the last of the first n-1
coordinates ``polytope._line_runs`` reads the ends as the lower envelopes
of the rows' residual progressions: piecewise linear in the column, so the
table keeps each run of non-empty columns as two arithmetic progressions,
and no column.  Sums over the columns are closed forms per run: the lattice
count is two floor sums (:func:`_run_count`), and the column measure and its
moments are power sums (:func:`_power_sum`), so a dilate lam P costs its
runs whatever lam.  The per-column reads (lattice points, column lengths,
the vertical ray moment, the diamond values) expand the runs as they go
(:func:`_columns`), in lexicographic order, with no projection and no second
table; every run has the same denominators, so each sum is one integer sum
and one Fraction.

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
from itertools import count, product
from math import comb
from operator import mul

from .errors import DimensionMismatch, ExponentOutOfRange, FrozenRecord, OriginMissing
from .linalg import integer_row, vec
from .lp import lp_solve  # noqa: F401  (unused here; perfbench/tracer.py's REQUIRED_BINDINGS needs it)
from .polytope import (
    Direction,
    Polytope,
    _column_rows,
    _column_rows_of,
    _line_runs,
    _overlap_rows,
    _rows_at,
    axis_direction,
    cube_sum,
    integer_rows,
    minkowski_sum,
)
from .steiner import require_x_n_symmetric
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
    """:func:`_run_table` of (P, k), P's memo entry ("columns", k)."""
    return P.memo(("columns", k), lambda: _run_table(P, k))


def _run_table(P: Polytope, k: int):
    """:func:`_box_runs` of the k-fattening's rows (strict where they touch the
    first k coordinates) over its own bounding box."""
    fat = fattening(P, k)
    return _box_runs(_column_rows(fat, k), fat)


def _box_runs(rows, B: Polytope):
    """(Qd, Qu, lines): for each line of B's bounding box in the last
    coordinate with a non-empty section of ``polytope._column_rows_of``'
    ``rows`` (a body that B's box holds), (head, t0, runs), the runs
    (j0, j1, lo, dlo, hi, dhi) of ``polytope._line_runs`` over the columns
    head + (t0 + j,), in lexicographic order.  Over a run the section is
    lo_n/Qd <= t <= hi_n/Qu with lo_n = lo + dlo i and hi_n = hi + dhi i at
    j = j0 + i, Qd and Qu the one denominator pair of the rows; with strict
    rows the ends bound only the column's integer points.  For n = 1 the one
    line is ((), None, runs), its one column y = ().  A line is taken by its
    ends: its runs are closed forms, so a dilate's line may hold more columns
    than a machine integer counts."""
    (Qu, _up), (Qd, _down), _flat = rows
    L = B._L
    box = [range(-(-min(c) // L), max(c) // L + 1) for c in list(zip(*B._V))[:-1]]
    if not box:  # n = 1: the one column y = ()
        runs = _line_runs(rows, (), 1, 1)
        return Qd, Qu, (((), None, tuple(runs)),) if runs else ()
    line = box.pop()
    t0, length = line.start, line.stop - line.start
    lines = []
    for head in product(*box):
        runs = _line_runs(rows, head + (t0,), 1, length)
        if runs:
            lines.append((head, t0, tuple(runs)))
    return Qd, Qu, tuple(lines)


def _rows_mu(rows, B: Polytope) -> Fraction:
    """mu of the body {x : <a, x> <= num/den} of integer ``rows`` (a, num, den)
    that B's bounding box holds: one :func:`_box_runs` table of the rows over
    B's box, and its closed-form length sum, with no hull."""
    return _run_length_sum(_box_runs(_column_rows_of(rows), B), 1)


def _columns(lines):
    """(y, lo_n, hi_n) for each column of a run table's ``lines``, in order:
    the runs expanded per column."""
    for head, t0, runs in lines:
        for j0, j1, lo, dlo, hi, dhi in runs:
            ys = (head,) if t0 is None else map(head.__add__, zip(range(t0 + j0, t0 + j1)))
            yield from zip(ys, count(lo, dlo), count(hi, dhi))


def _power_sums(j: int, top: int) -> list[int]:
    """[S_0, ..., S_top], S_e = sum_{k=0}^{j} k^e with 0^0 = 1, in O(top^2)
    integer steps whatever j: telescoping sum_k ((k+1)^{e+1} - k^{e+1}) gives
    (e+1) S_e = (j+1)^{e+1} - sum_{i<e} C(e+1, i) S_i."""
    S: list[int] = []
    for e in range(top + 1):
        S.append(((j + 1) ** (e + 1) - sum(comb(e + 1, i) * s for i, s in enumerate(S)))
                 // (e + 1))
    return S


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a i + b) / m) for n >= 0, m > 0 and a, b of any
    sign, in O(log m) steps (Graham, Knuth and Patashnik, *Concrete
    Mathematics*, ch. 3): with 0 <= a, b < m, the sum counts the lattice
    points under a line, and swapping the roles of the axes gives the same
    sum with (m, a) replaced by (a, m), as Euclid's algorithm does."""
    qa, a = divmod(a, m)
    qb, b = divmod(b, m)
    total = qa * (n * (n - 1) // 2) + qb * n
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _power_sum(n: int, a: int, b: int, e: int) -> int:
    """sum_{i=0}^{n-1} (a + b i)^e, by the binomial theorem over the power
    sums of 0..n-1 (0^0 = 1)."""
    if e == 1:
        return n * a + b * (n * (n - 1) // 2)
    S = _power_sums(n - 1, e)
    return sum(comb(e, c) * a ** (e - c) * b**c * S[c] for c in range(e + 1))


def _run_length_sum(table, e: int) -> Fraction:
    """Sum of ell^e over the columns of a run table, ell = hi_n/Qu - lo_n/Qd:
    over a run, ell Qu Qd = (hi Qd - lo Qu) + (dhi Qd - dlo Qu) i, so each run
    is one power sum, and the whole table one integer sum and one Fraction."""
    Qd, Qu, lines = table
    return Fraction(sum(_power_sum(j1 - j0, hi * Qd - lo * Qu, dhi * Qd - dlo * Qu, e)
                        for _head, _t0, runs in lines for j0, j1, lo, dlo, hi, dhi in runs),
                    (Qu * Qd) ** e)


def lattice_points(P: Polytope, open_cube_k: int = 0) -> tuple[tuple[int, ...], ...]:
    """Integer points of P (open_cube_k = 0) or of P + (-1,1)^k x {0}^{n-k},
    sorted."""
    Qd, Qu, lines = _column_walk(P, open_cube_k)
    pts = []
    # ascending columns, ascending t within each: lexicographic order
    for y, lo_n, hi_n in _columns(lines):
        pts.extend(y + (t,) for t in range(-(-lo_n // Qd), hi_n // Qu + 1))
    return tuple(pts)


def _run_count(table) -> int:
    """The lattice points of a run table, with no point built: a column holds
    floor(hi_n/Qu) + floor(-lo_n/Qd) + 1 >= 0 points (its section is not
    empty), so a run of m columns holds two floor sums and m."""
    Qd, Qu, lines = table
    return sum(_floor_sum(j1 - j0, Qu, dhi, hi) + _floor_sum(j1 - j0, Qd, -dlo, -lo) + j1 - j0
               for _head, _t0, runs in lines for j0, j1, lo, dlo, hi, dhi in runs)


def count_lattice(P: Polytope, open_cube_k: int = 0) -> int:
    """len(lattice_points(P, open_cube_k)), off P's run table."""
    return _run_count(_column_walk(P, open_cube_k))


def column_lengths(P: Polytope) -> dict[tuple[int, ...], Fraction]:
    """Vertical-section length over each integer point y of the projection of P
    (length-0 columns kept), one Fraction per column of the runs."""
    if P.dim < 2:
        raise DimensionMismatch("column lengths need ambient dimension >= 2")
    Qd, Qu, lines = _column_walk(P)
    return {y: Fraction(hi_n * Qd - lo_n * Qu, Qu * Qd) for y, lo_n, hi_n in _columns(lines)}


def column_count(P: Polytope) -> int:
    """G_{n-1}(P K): the number of integer columns of P, the sum of its run
    lengths, with no column expanded."""
    if P.dim < 2:
        raise DimensionMismatch("column count needs ambient dimension >= 2")
    return sum(j1 - j0 for _head, _t0, runs in _column_walk(P)[2] for j0, j1, *_ends in runs)


def column_length_sum(P: Polytope, e: int) -> Fraction:
    """Sum of ell_y^e over the integer columns y of P, ell_y the vertical-section
    length."""
    if P.dim < 2:
        raise DimensionMismatch("column measure needs ambient dimension >= 2")
    return _run_length_sum(_column_walk(P), e)


def _fattened_runs(P: Polytope):
    """The run table of the closed fattening F = P + [-1,1]^{n-1} x {0} cut
    to the columns of the open fattening, for P symmetric in x_n.  The open
    fattening is then symmetric in x_n too, so each column of its run table
    holds (y, 0), and the columns are the integer points of a line through
    its (convex) projection: one span per line, from the first run's start
    to the last run's end.  Both tables share F's bounding box, so a line of
    one is the line of the other with the same head."""
    k = P.dim - 1
    spans = {head: (runs[0][0], runs[-1][1]) for head, _t0, runs in _column_walk(P, k)[2]}
    Qd, Qu, lines = _column_walk(fattening(P, k))
    cut = []
    for head, t0, runs in lines:
        a, b = spans.get(head, (0, 0))
        part = []
        for j0, j1, lo, dlo, hi, dhi in runs:
            c0, c1 = max(j0, a), min(j1, b)
            if c0 < c1:
                part.append((c0, c1, lo + dlo * (c0 - j0), dlo, hi + dhi * (c0 - j0), dhi))
        if part:
            cut.append((head, t0, tuple(part)))
    return Qd, Qu, tuple(cut)


def fattened_mu(P: Polytope) -> Fraction:
    """mu(P + (-1,1)^{n-1} x {0}) for P symmetric in x_n (``ValueError``
    otherwise): over each integer column of the open fattening, the section
    length of the closed one there (its supremum over the open window).  A
    body that is not symmetric may have columns of the open fattening with
    no lattice point, which this read of the runs would miss."""
    require_x_n_symmetric(P)
    return _run_length_sum(_fattened_runs(P), 1)


def column_moment(P: Polytope, p: int) -> Fraction:
    """p * integral of r^{p-1} G_n(P cap (r e_n + P)) dr for an integer p >= 1:
    the sum of (t - a_y)^p over the lattice points (y, t) of P, a_y = lo_n/Qd
    the lower end of the column (y - r e_n is in P for 0 <= r <= t - a_y), over
    the table's one lower denominator."""
    Qd, Qu, lines = _column_walk(P)
    return Fraction(sum((t * Qd - lo_n) ** p for _y, lo_n, hi_n in _columns(lines)
                        for t in range(-(-lo_n // Qd), hi_n // Qu + 1)), Qd**p)


def mu_measure(P: Polytope) -> MeasureValue:
    """Sum of vertical-section lengths over the integer columns of the projection."""
    return MeasureValue.from_exact(column_length_sum(P, 1))


def discrete_covariogram(P: Polytope, x) -> int:
    """Number of integer points of P cap (x + P): the ``_overlap_rows`` along
    x at r = 1 (at r = 0, P's rows, for x = 0) counted over P's box, no hull."""
    x = vec(x)
    theta, r = (Direction(x), 1) if any(x) else (axis_direction(len(x)), 0)
    return _run_count(_box_runs(_column_rows_of(_rows_at(_overlap_rows(P, theta), r)), P))


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
