"""Covariogram, ray moments (the exact ray engine and the section-length
layer-cake), star radials of Ball bodies (continuous and lattice-counting
sources) and of the polar projection body, and planar star-set areas by circle
quadrature (n = 2 only; the polar projection body itself is an exact polytope,
see ``polytope.polar_projection_body``).

Units: every quantity at a ``Direction`` theta (ray moments, the ray engine,
lattice ray decompositions, star radials) is in units of ``theta.raw``.  The
Ball-body radials are homogeneous of degree -1 in theta and the ray moments of
degree p, so a raw rational direction needs no normalization and no square
root; only ``polytope.projection_volume`` normalizes.

Exactness policy: ray moments with integer exponents are exact rationals in
every rational direction and every dimension (``ray_moment`` maps the
direction to e_n by a rational linear map, none for e_n itself, and reads
the layer-cake below; ``radial_Rp`` is that moment over the volume).
The independent ray engine is exact too for integer exponents, in every
dimension: its panels are the exact maximal pieces of one sweep, with no
bisection.  Fractional exponents and the float radial batches (over unit
float directions) run in binary64 with abs_error populated.

Section-length powers int ell^q, and with them the projection-power and
symmetral-slab moments and the chord-mean radials, have one integrator in every
dimension: the layer-cake over the section-length distribution u -> vol{ell >= u},
which is the slice volume of the Steiner symmetral (its slice at height u/2
is {ell >= u}).  ``section_distribution`` reads it off the symmetral's upper
boundary simplices by divided differences, with no hull and no LP.  The
projected overlap K cap (K + u e_n) is the same function; it is left as a
test oracle, and the ray engine, whose panels read K cap (K + r theta) off
``polytope.parametric_volume``, stays the independent route.  No checker
samples; Monte Carlo is left only as a test oracle (``mc_section_samples``).

The float radial batches clip rays against a body in one place,
``_interval_batch``, one fused pass over the facets.  The closed clip of a
body's lattice points (``lattice_clip``) does not depend on the exponent:
the ``discrete`` radials of every p and the ``difference-set`` radial are
reductions of that one table (``clip_radial``), which
``inequalities.BodyWorkspace`` builds once per body.  The open-fattened
passes (``discrete_moment_batch``) reduce the same clip one block of
directions at a time, so they never hold a whole m x D table.  The continuous source
(n = 2) uses the chord form
p int r^{p-1} vol(K cap (r theta + K)) dr = (1/(p+1)) int ell_theta^{p+1}
(Gardner-Zhang): it clips the chord through each vertex and integrates the
piecewise linear ell_theta^{p+1} in closed form, exactly for every p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .errors import (
    DegenerateBody,
    DimensionMismatch,
    ExponentOutOfRange,
    OriginMissing,
    Record,
    RouteUnsupported,
    ZeroBase,
)
from .lattice import (
    count_lattice,
    discrete_ray_moment,
    fattening,
    lattice_points,
    ray_decomposition,
)
from .linalg import Vec, det_int, frac, integer_row, mat_inv
from .lp import lp_solve
from .polytope import (
    Direction,
    Polytope,
    axis_direction,
    _least,
    _panel_sweep,
    integer_rows,
    intersect,
    parametric_volume,
    projection_support,
    transform,
    translate,
)
from .steiner import require_x_n_symmetric, steiner_symmetrize
from .verdict import MeasureValue

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# covariogram and ray geometry
# ---------------------------------------------------------------------------

def covariogram(P: Polytope, x) -> MeasureValue:
    """vol_n(K cap (x+K)) as an exact rational; 0 outside the difference body."""
    Q = intersect(P, translate(P, x))
    if Q is None:
        return MeasureValue.from_exact(0)
    return MeasureValue.from_exact(Q.volume_fraction())


def ray_support(P: Polytope, theta: Direction) -> tuple[Fraction, Vec]:
    """(R, u) with R = sup{r : r*theta.raw in K-K} in raw units and u a witness
    point satisfying u in K and u - R*theta.raw in K: the LP max r subject to
    <A, x> - r C <= B over the integer ``_overlap_rows`` (A, B, C)."""
    if theta.dim != P.dim:
        raise DimensionMismatch("direction and body dimensions differ")
    n = P.dim
    rows = _overlap_rows(P, theta)
    res = lp_solve([0] * n + [1], [A[:-2] + [-A[-1]] for A in rows], [A[-2] for A in rows])
    return res.value, res.x[:n]


def _overlap_rows(P: Polytope, theta: Direction) -> list[list[int]]:
    """Integer rows (A, B, C), as lists, with K cap (r theta.raw + K) =
    {x : <A, x> <= B + r C}: K's rows (a, num, den) as (den a, num, 0), then
    again shifted by r <a, theta.raw>, (den Lw a, num Lw, den <a, W>) for
    theta.raw = W/Lw."""
    W, Lw = integer_row(theta.raw)
    rows = integer_rows(P)
    return ([[den * x for x in a] + [num, 0] for a, num, den in rows]
            + [[den * Lw * x for x in a] + [num * Lw, den * sum(map(mul, a, W))]
               for a, num, den in rows])


def _rows_at(rows, r: Fraction) -> list:
    """The integer rows (a, num, den) of K cap (r theta.raw + K) at a rational
    r = p/q, from its ``_overlap_rows`` (A, B, C): (A, B q + p C, q)."""
    q, p = r.denominator, r.numerator
    return [(A[:-2], A[-2] * q + p * A[-1], q) for A in rows]


def _overlap_point(P: Polytope, r: Fraction, support) -> tuple[tuple[int, ...], int]:
    """A point strictly inside K cap (r*raw + K) for 0 <= r < R, as integers
    (z, D): (1 - lam) c + lam w, lam = r/R = p/q, between P's interior point
    c = Z/Dc and the ray_support witness w = W/Dw, over D = q lcm(Dc, Dw)."""
    R, witness = support
    p, q = r.numerator * R.denominator, r.denominator * R.numerator
    Z, Dc = P._interior
    W, Dw = integer_row(witness)
    M = lcm(Dc, Dw)
    zc, zw = (q - p) * (M // Dc), p * (M // Dw)
    (z,), D = _least((tuple(c * zc + w * zw for c, w in zip(Z, W)),), q * M)
    return z, D


def overlap(P: Polytope, theta: Direction, r, support) -> Polytope | None:
    """K cap (r theta.raw + K), equal to ``intersect(P, translate(P, r theta.raw))``
    but with no translate and, for 0 <= r < R, no LP: one hull of the
    integer ``_overlap_rows`` at r, hinted by ``_overlap_point``.
    ``support`` is ``ray_support(P, theta)``; from r = R on the overlap has
    no interior and ``Polytope.from_int_rows`` finds its affine hull
    unhinted."""
    r = frac(r)
    rows = _rows_at(_overlap_rows(P, theta), r)
    hint = _overlap_point(P, r, support) if 0 <= r < support[0] else None
    return Polytope.from_int_rows(rows, P.dim, interior=hint)


def covariogram_on_ray(P: Polytope, theta: Direction, r, *, support=None) -> Fraction:
    r = frac(r)
    if support is None:
        support = ray_support(P, theta)
    if r >= support[0]:
        return _ZERO
    return overlap(P, theta, r, support).volume_fraction()


def ray_breakpoints(P: Polytope, theta: Direction, R: Fraction) -> list[Fraction]:
    """Sorted kinks of r -> vol(K cap (r theta + K)) in (0, R], R at most the
    ``ray_support`` reach, and R itself: the right ends of the maximal pieces
    on which the overlap keeps one combinatorial type (see ``RayMomentEngine``)."""
    rows = _overlap_rows(P, theta)
    pieces = _panel_sweep(lambda lo, hi: parametric_volume(rows, lo, hi), _ZERO, R)
    return [b for _a, b, _c in pieces]


# ---------------------------------------------------------------------------
# ray moments: the exact ray engine, and the slab and projection-power forms
# ---------------------------------------------------------------------------

class RayMomentEngine:
    """Shared per-(body, direction) covariogram moments along a ray.

    r -> vol(K cap (r theta + K)) is read off one sweep of [0, R] by
    ``polytope.parametric_volume`` over K's rows twice (the second copy
    shifted by r <a, theta>): each call hulls the overlap once at a gap
    midpoint and returns the polynomial of degree <= n on the largest interval
    where the overlap keeps that type, its ends exact rationals, and the
    gaps left on either side are swept the same way.  Every panel is exact, in
    every dimension, so ``certified`` is always True.  The panel polynomials
    are shared by every exponent; integer-exponent moments are exact rationals
    and equal ``ray_moment``.  Checkers read the exact ``ray_moment``;
    the engine is the independent third route of ``identity_triple_continuous``.

    ``support`` is the ``ray_support`` LP, solved once at construction: it
    bounds the sweep and hints the hull of each panel's midpoint overlap.
    """

    def __init__(self, P: Polytope, theta: Direction):
        self.P = P
        self.theta = theta
        self.support = ray_support(P, theta)
        self._panels: list | None = None  # (a, b, coeffs), built by the first moment
        self.certified = True

    def _build(self) -> list:
        P, theta = self.P, self.theta
        rows = _overlap_rows(P, theta)

        def piece(lo, hi):
            hint = _overlap_point(P, (lo + hi) / 2, self.support)
            return parametric_volume(rows, lo, hi, interior=hint)

        return _panel_sweep(piece, _ZERO, self.support[0])

    def moment(self, p) -> MeasureValue:
        pf = float(p)
        if pf <= 0:
            raise ExponentOutOfRange("ray moments need p > 0")
        if self._panels is None:
            self._panels = self._build()
        if not self._panels:
            return MeasureValue.from_exact(0)
        if pf == int(pf):
            q = int(p)
            return MeasureValue.from_exact(
                sum((q * _power_integral(c, a, b, q - 1) for a, b, c in self._panels), _ZERO))
        total_f = sum(pf * float(_power_integral(c, a, b, pf - 1.0)) for a, b, c in self._panels)
        return MeasureValue.approx(total_f, 1e-12 * abs(total_f))


def _power_integral(coeffs, alpha: Fraction, beta: Fraction, p) -> Fraction | float:
    """int_alpha^beta t^p * sum_k c_k t^k dt, exact for integer p.

    For integer p the sum of c_k (beta^e - alpha^e) / e, e = p + k + 1, is
    one integer numerator over M (alpha_d beta_d)^E, M the lcm of the
    denominators of the c_k / e and E the largest e, and one ``Fraction``.
    """
    if isinstance(p, int) or float(p) == int(p):
        q = int(p)
        terms = [(q + k + 1, c) for k, c in enumerate(coeffs) if c]
        if not terms:
            return _ZERO
        an, ad = alpha.numerator, alpha.denominator
        bn, bd = beta.numerator, beta.denominator
        top = terms[-1][0]
        M = lcm(*(c.denominator * e for e, c in terms))
        adt, bdt = ad**top, bd**top
        num = 0
        for e, c in terms:
            num += c.numerator * (M // (c.denominator * e)) * (
                bn**e * adt * bd ** (top - e) - an**e * bdt * ad ** (top - e))
        return Fraction(num, M * (ad * bd) ** top)
    pf = float(p)
    total = 0.0
    fa, fb = float(alpha), float(beta)
    for k, c in enumerate(coeffs):
        if c:
            e = pf + k + 1
            total += float(c) * (fb**e - fa**e) / e
    return total


def slab_moment(dist: SectionDistribution, p) -> MeasureValue:
    """2^p int_{S(K)} |x_n|^p dx.  The slice of S at height t has volume
    vol{ell >= 2t}, so this is int_0^R u^p vol{ell >= u} du, the projection-power
    moment."""
    if float(p) <= 0:
        raise ExponentOutOfRange("slab moments need p > 0")
    return projection_power_moment(dist, p)


def projection_power_moment(dist: SectionDistribution, p) -> MeasureValue:
    """(1/(p+1)) int_{P(K)} ell(y)^{p+1} dy by the layer-cake integral; exact
    for integer p >= 0."""
    if float(p) <= -1:
        raise ExponentOutOfRange("projection-power needs p > -1")
    q = p + 1
    mv = section_power_integral(dist, q)
    if mv.exact is not None:
        return MeasureValue.from_exact(mv.exact / int(q))
    qf = float(q)
    return MeasureValue.approx(mv.value / qf, mv.abs_error / qf)


def mc_section_samples(P: Polytope, seed: int, nsamp: int = 1_000_000):
    """(box volume, section lengths) at uniform box samples of the projection.

    No code in the package calls it.  It stays for two users: the Monte Carlo
    oracle in ``tests/test_differential.py``, and ``FUNCTIONS`` in
    ``perfbench/tracer.py``, whose ``install()`` raises AttributeError without it.
    """
    import numpy as np

    n = P.dim
    uppers = []
    lowers = []
    verts_rows = []
    for a, b in P.halfspaces:
        an = float(a[-1])
        head = np.array([float(x) for x in a[:-1]])
        if an > 0:
            uppers.append((head / an, float(b) / an))
        elif an < 0:
            lowers.append((head / an, float(b) / an))
        else:
            verts_rows.append((head, float(b)))
    proj_box = P.bounding_box()[:-1]
    lo = np.array([float(a) for a, _ in proj_box])
    hi = np.array([float(b) for _, b in proj_box])
    boxvol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    y = rng.uniform(lo, hi, size=(nsamp, n - 1))
    umin = np.full(nsamp, np.inf)
    for head, c in uppers:
        np.minimum(umin, c - y @ head, out=umin)
    lmax = np.full(nsamp, -np.inf)
    for head, c in lowers:
        np.maximum(lmax, c - y @ head, out=lmax)
    ell = np.clip(umin - lmax, 0.0, None)
    for head, c in verts_rows:
        ell[y @ head > c] = 0.0
    return boxvol, ell


def discrete_moment(P: Polytope, theta: Direction, p, open_cube: bool = False) -> MeasureValue:
    """sum_y rho_y^p over the reaches of the lattice points of P (or of its
    open fattening) along theta.raw; exact for an integer p."""
    return discrete_ray_moment(ray_decomposition(P, theta, open_cube=open_cube), p)


# ---------------------------------------------------------------------------
# layer-cake section-power integrals (any q > -1, q != 0)
# ---------------------------------------------------------------------------

class SectionDistribution(Record):
    """Piecewise polynomials of u -> vol{y : ell(y) >= u} on [0, max ell] of
    the symmetral S they were read off."""

    _fields = ("pieces", "symmetral", "reach")  # no __slots__: ``projvol`` is cached in __dict__

    def __init__(self, pieces: list[tuple[Fraction, Fraction, list[Fraction]]],
                 symmetral: Polytope, reach: Fraction):
        self.pieces = pieces
        self.symmetral = symmetral
        self.reach = reach

    @cached_property
    def projvol(self) -> Fraction:
        """vol_{n-1}(P K), read off S's facet weights when a negative
        exponent first needs it."""
        return projection_support(self.symmetral, axis_direction(self.symmetral.dim).raw)


def _upper_difference(W: list[int], k: int, d: int) -> tuple[list[int], int]:
    """[W_0, ..., W_d] f for f(x) = (x - v)^d on the nodes W_k, ..., W_d and
    f = 0 on the nodes below, for sorted integer nodes with W_{k-1} < W_k: the
    ascending coefficients in v of one integer polynomial, and its denominator.

    Each table entry is such a pair.  Equal nodes are confluent: the entry
    over r + 1 equal nodes is f's r-th derivative there over r!, that is
    C(d, r) (W - v)^{d-r} or 0 (a tie never straddles W_k).
    """
    def node(w: int, r: int, upper: bool) -> tuple[list[int], int]:
        e, c = d - r, math.comb(d, r)
        return [c * math.comb(e, j) * (-1) ** j * w ** (e - j) if upper and j <= e else 0
                for j in range(d + 1)], 1

    table = [node(w, 0, i >= k) for i, w in enumerate(W)]
    for r in range(1, d + 1):
        nxt = []
        for i, ((b, db), (a, da)) in enumerate(zip(table, table[1:])):
            gap = W[i + r] - W[i]
            if gap:
                m = lcm(da, db)
                nxt.append(([x * (m // da) - y * (m // db) for x, y in zip(a, b)], m * gap))
            else:
                nxt.append(node(W[i], r, i >= k))
        table = nxt
    return table[0]


def section_distribution(S: Polytope) -> SectionDistribution:
    """Distribution function of the section-length profile of K, read off the
    boundary simplices of its Steiner symmetral S, with no hull and no LP.
    S must be symmetric in x_n (such a body is its own symmetral).

    The slice of S at height t is {y in P(K) : ell(y) >= 2t} (Gardner-Zhang),
    so ell is twice the height of S's upper boundary: the boundary simplices
    whose projection has nonzero determinant and whose top height is above 0
    tile P(K), and ell is affine on each.  An affine h on a d-simplex D with
    vertex values w_i has vol{h >= u} = vol(D) [w_0, ..., w_d](. - u)_+^d
    (Curry-Schoenberg), a polynomial in u between consecutive distinct w_i.
    Over S's vertices as integers V/L, with w = W/L and u = v/L, the divided
    difference over the W in v is the same number, so each simplex adds
    integer polynomials in v (``_upper_difference``) on the gaps between its
    nodes.  Pieces run between consecutive distinct vertex section lengths,
    and adjacent pieces with one polynomial are merged.
    """
    if S.dim < 2:
        raise DimensionMismatch("section lengths need ambient dimension >= 2")
    require_x_n_symmetric(S)
    d = S.dim - 1
    V, L, simplices = S._tri
    terms = []  # (lower node, upper node, |det| times the coefficients, den)
    for s in simplices:
        W = sorted(2 * V[i][-1] for i in s)
        if W[-1] <= 0:
            continue
        base = V[s[0]]
        vol = abs(det_int([[x - y for x, y in zip(V[i][:-1], base)] for i in s[1:]]))
        if not vol:
            continue
        if W[0] > 0:
            terms.append((0, W[0], [vol] + [0] * d, 1))
        for k in range(1, d + 1):
            if W[k - 1] < W[k]:
                coeffs, den = _upper_difference(W, k, d)
                terms.append((W[k - 1], W[k], [vol * c for c in coeffs], den))
    nodes = sorted({0} | {w for lo, hi, _c, _d in terms for w in (lo, hi)})
    where = {w: i for i, w in enumerate(nodes)}
    D = lcm(*(den for *_r, den in terms))
    diff = [[0] * (d + 1) for _ in nodes]
    for lo, hi, coeffs, den in terms:
        m = D // den
        for row, sign in ((diff[where[lo]], m), (diff[where[hi]], -m)):
            for j, c in enumerate(coeffs):
                row[j] += sign * c
    # coefficient j of u^j is L^j times that of v^j, over D d! L^d
    scale = D * math.factorial(d) * L**d
    pieces = []
    acc = [0] * (d + 1)
    for lo, hi, step in zip(nodes, nodes[1:], diff):
        acc = [x + y for x, y in zip(acc, step)]
        if pieces and pieces[-1][2] == acc:
            pieces[-1][1] = hi
        else:
            pieces.append([lo, hi, acc])
    return SectionDistribution(
        [(Fraction(lo, L), Fraction(hi, L), [Fraction(c * L**j, scale) for j, c in enumerate(acc)])
         for lo, hi, acc in pieces],
        S, Fraction(nodes[-1], L))


def section_power_integral(dist: SectionDistribution, q) -> MeasureValue:
    """int_{P(K)} ell(y)^q dy for q > -1, q != 0 (layer-cake over the
    section-length distribution).  Exact for integer q >= 1."""
    qf = float(q)
    if qf <= -1 or qf == 0:
        raise ExponentOutOfRange("section powers need q > -1, q != 0")
    exact = (isinstance(q, int) or qf == int(qf)) and qf >= 1
    total_exact = _ZERO
    total_float = 0.0
    for prev, brk, coeffs in dist.pieces:
        if qf > 0:
            piece = _power_integral(coeffs, prev, brk, q - 1 if exact else qf - 1.0)
            if exact:
                total_exact += int(q) * piece
            else:
                total_float += qf * float(piece)
        else:
            # -q * int u^{q-1} (A - B(u)) du; the constant term of A - B(u)
            # vanishes exactly on the first panel
            comp = [dist.projvol - coeffs[0]] + [-c for c in coeffs[1:]]
            if prev == 0 and comp[0] != 0:
                raise ArithmeticError(
                    "distribution function does not start at the projection volume"
                )
            total_float += -qf * float(_power_integral(comp, prev, brk, qf - 1.0))
    if qf < 0:
        total_float += float(dist.projvol) * float(dist.reach) ** qf
        return MeasureValue.approx(total_float, 1e-11 * abs(total_float) + 1e-15)
    if exact:
        return MeasureValue.from_exact(total_exact)
    return MeasureValue.approx(total_float, 1e-11 * abs(total_float) + 1e-15)


# ---------------------------------------------------------------------------
# star radials
# ---------------------------------------------------------------------------

SOURCES = (
    "continuous",
    "discrete",
    "discrete-open",
    "discrete-open-tilde",
    "polar-projection",
    "difference-set",
)


def radial_ball_body(source: str, P: Polytope, theta: Direction, p) -> MeasureValue:
    """Radial function of the requested star body at ``theta``."""
    if source not in SOURCES:
        raise RouteUnsupported(f"unknown star source {source!r}")
    if source == "polar-projection":
        return polar_projection_radial(P, theta)
    origin = tuple(Fraction(0) for _ in range(P.dim))
    if source == "difference-set":
        if not P.contains(origin):
            raise OriginMissing("the difference set needs 0 in the body")
        return MeasureValue.from_exact(ray_decomposition(P, theta).max_reach())
    pf = float(p)
    if pf <= 0:
        raise ExponentOutOfRange("Ball-body radials need p > 0")
    if source == "continuous":
        # int_K rho_{K-x}(u)^p dx = p int r^{p-1} g_K(r u) dr: the radial mean body
        return radial_Rp(P, theta, p)
    if not P.contains(origin):
        raise OriginMissing("discrete Ball bodies require 0 in the body")
    gK = count_lattice(P)
    if gK == 0:
        raise ZeroBase("no lattice points in the body")
    if source == "discrete":
        mom = discrete_moment(P, theta, p)
        base = gK
    else:
        mom = discrete_moment(P, theta, p, open_cube=True)
        base = count_lattice(P, P.dim) if source == "discrete-open" else gK
    if mom.exact is not None:
        ratio = mom.exact / base
        root = float(ratio) ** (1.0 / pf)
        if pf == 1.0:
            return MeasureValue.from_exact(ratio)
        return MeasureValue.approx(root, 4e-16 * abs(root))
    val = (mom.value / base) ** (1.0 / pf)
    err = abs(val) * (mom.abs_error / mom.value / pf if mom.value > 0 else 0.0) + 1e-14
    return MeasureValue.approx(val, err)


def polar_projection_radial(P: Polytope, theta: Direction) -> MeasureValue:
    """rho_{Pi*K}(theta.raw) = 1 / h_{Pi K}(theta.raw), exactly."""
    if not P.is_full_dimensional:
        raise DegenerateBody("the polar projection body needs a full-dimensional body")
    if theta.dim != P.dim:
        raise DimensionMismatch("direction and body dimensions differ")
    return MeasureValue.from_exact(1 / projection_support(P, theta.raw))


# ---------------------------------------------------------------------------
# vectorized float radial evaluators (generic directions, one ray clip)
# ---------------------------------------------------------------------------

def _interval_batch(body: Polytope, pts: np.ndarray, dirs: np.ndarray, strict: bool):
    """lo/hi of {r >= 0 : y - r theta in body} for every point x direction pair.

    Row (a, b) reads c <= r s with c = <a, y> - b and s = <a, theta>: a lower
    bound c/s where s > 0, an upper bound c/s where s < 0, and, where
    |s| <= 1e-12, a feasibility test of c alone (run only on facets where some
    c fails it, since the others leave every pair feasible).  The divisors are masked
    once, S+ = S where S > tol and S- = S where S < -tol, NaN elsewhere, so a
    facet's quotients are NaN exactly where it does not bound r, and
    ``fmin``/``fmax``, which ignore NaN, apply each facet to the whole m x D
    table in place, through one reused buffer.

    The lower pass runs only on facets with some c > 0.  Elsewhere c <= 0 and
    s > 0 give c/s <= 0, which cannot raise lo above its initial +0.0, so
    skipping those facets is exact (callers read lo through max(lo, 0), so
    not even the sign of a zero quotient matters).  For points of the body
    (c <= 0 exactly) the pass fires only on boundary points that binary64
    rounded outward.
    """
    return _clip_table(*_clip_rows(body, pts, dirs), strict)


_TOL = 1e-12  # |s| at or below it is parallel to the facet
_BLOCK = 256  # directions per block of ``discrete_moment_batch``


def _clip_rows(body: Polytope, pts: np.ndarray, dirs: np.ndarray):
    """S = <a, theta> (F x D) and C = <a, y> - b (F x m) per facet row (a, b)."""
    import numpy as np

    rows = integer_rows(body)
    A = np.array([a for a, _num, _den in rows], dtype=float)
    b = np.array([num / den for _a, num, den in rows])
    return A @ dirs.T, A @ pts.T - b[:, None]


def _clip_table(S: np.ndarray, C: np.ndarray, strict: bool):
    """``_interval_batch``'s (lo, hi, feas) from its S and C; a block of S's
    columns gives the same block of the table, entry for entry."""
    import numpy as np

    m, D = C.shape[1], S.shape[1]
    feas = np.ones((m, D), dtype=bool)
    zero = np.abs(S) <= _TOL
    bad = C > (-_TOL if strict else _TOL)
    for f in np.flatnonzero(zero.any(axis=1) & bad.any(axis=1)):
        feas &= ~np.outer(bad[f], zero[f])
    buf = np.empty((m, D))
    hi = _clip_hi(S, C, buf)
    s_pos = np.where(S > _TOL, S, np.nan)
    lo = np.zeros((m, D))
    for f in np.flatnonzero((C > 0).any(axis=1)):
        np.divide(C[f][:, None], s_pos[f], out=buf)
        np.fmax(lo, buf, out=lo)
    np.subtract(lo, 1e-12, out=buf)
    feas &= hi >= buf
    return lo, hi, feas


def _clip_hi(S: np.ndarray, C: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The hi table: min c/s over the facets with s < -tol (+inf where none),
    through ``buf``, an m x D scratch table."""
    import numpy as np

    s_neg = np.where(S < -_TOL, S, np.nan)
    hi = np.full(buf.shape, np.inf)
    for c, s in zip(C, s_neg):
        np.divide(c[:, None], s, out=buf)
        np.fmin(hi, buf, out=hi)
    return hi


def _float_points(pts, dim: int) -> np.ndarray:
    """Integer points as an (m, dim) binary64 array (exact below 2^53)."""
    import numpy as np

    return np.array(pts, dtype=float).reshape(len(pts), dim)


def _clip_moment(clip, p, keep: bool = True) -> np.ndarray:
    """sum_y (b_y^p - a_y^p) per direction over a clip table's feasible pairs,
    b = max(hi, 0) and a = max(lo, 0).  With keep=False the table's lo and hi
    are overwritten, so the sum needs no m x D temporary."""
    import numpy as np

    lo, hi, feas = clip
    pf = float(p)
    top = np.maximum(hi, 0.0, out=None if keep else hi)
    top **= pf
    low = np.maximum(lo, 0.0, out=None if keep else lo)
    low **= pf
    top -= low
    top[~feas] = 0.0
    return top.sum(axis=0)


def discrete_moment_batch(P: Polytope, dirs: np.ndarray, p, open_cube: bool) -> np.ndarray:
    """sum_y (b_y^p - a_y^p) per unit direction (binary64), over about
    ``_BLOCK`` directions at a time: S and C are computed once and S is
    sliced, so each block's m x block table is that block of the full clip
    table.  No block is one direction wide unless D = 1, because numpy sums
    a one-column table pairwise and a wider one row by row.

    When every point is strictly inside every facet (c <= -tol), lo = 0 and
    every pair is feasible, as the full clip finds them, so the sum is that
    of max(hi, 0)^p alone, with no lower pass and no feasibility table."""
    import numpy as np

    k = P.dim if open_cube else 0
    Y = _float_points(lattice_points(P, k), P.dim)
    S, C = _clip_rows(fattening(P, k), Y, dirs)
    inside = not (C > -_TOL).any()
    D = S.shape[1]
    cuts = [*range(0, max(D - 1, 1), _BLOCK), D]
    out = np.empty(D)
    for j0, j1 in zip(cuts, cuts[1:]):
        Sj = S[:, j0:j1]
        if inside:
            top = _clip_hi(Sj, C, np.empty((len(Y), j1 - j0)))
            np.maximum(top, 0.0, out=top)
            top **= float(p)
            out[j0:j1] = top.sum(axis=0)
        else:
            out[j0:j1] = _clip_moment(_clip_table(Sj, C, open_cube), p, keep=False)
    return out


def lattice_clip(P: Polytope, dirs: np.ndarray, pts=None):
    """The closed clip table (lo, hi, feas) of P's lattice points ``pts``
    (enumerated when not given) against P on ``dirs``: the one table that the
    ``discrete`` radials of every p and the ``difference-set`` radial reduce
    (``clip_radial``)."""
    if pts is None:
        pts = lattice_points(P)
    return _interval_batch(P, _float_points(pts, P.dim), dirs, strict=False)


def clip_radial(source: str, clip, p) -> np.ndarray:
    """The ``discrete`` (exponent p) or ``difference-set`` radial per direction,
    reduced from a closed ``lattice_clip`` table, whose m rows are the G(K)
    lattice points."""
    import numpy as np

    if source == "difference-set":
        _lo, hi, feas = clip
        return np.where(feas, hi, 0.0).max(axis=0)
    return (_clip_moment(clip, p) / len(clip[0])) ** (1.0 / float(p))


def _chord_moment_batch(P: Polytope, dirs: np.ndarray, p) -> np.ndarray:
    """p int r^{p-1} area(K cap (r theta + K)) dr = (1/(p+1)) int ell^{p+1} per
    unit direction (n = 2), ell the chord length along theta over theta-perp.

    ell is linear between neighbouring vertex shadows on theta-perp, and the
    chord through a vertex v is hi(theta) + hi(-theta) of the ray clip at v, so
    each piece of width w from ell = a to ell = b <= a adds, exactly for every p,
    w (a^{p+2} - b^{p+2}) / ((p+1)(p+2)(a-b)).  The difference quotient is
    evaluated as a^{p+1} expm1((p+2)L) / expm1(L), L = log(b/a), so that nearly
    equal ends do not cancel.
    """
    import numpy as np

    if P.dim != 2:
        raise RouteUnsupported("the chord-length form is 2-d only")
    q = float(p) + 2.0
    verts = np.array([[float(c) for c in v] for v in P.vertices])
    _lo, fwd, _f = _interval_batch(P, verts, dirs, strict=False)
    _lo, back, _f = _interval_batch(P, verts, -dirs, strict=False)
    chord = np.maximum(fwd, 0.0) + np.maximum(back, 0.0)  # (V, D)
    shadow = verts @ np.stack([-dirs[:, 1], dirs[:, 0]])  # (V, D)
    order = np.argsort(shadow, axis=0)
    shadow = np.take_along_axis(shadow, order, axis=0)
    chord = np.take_along_axis(chord, order, axis=0)
    w = np.diff(shadow, axis=0)
    a = np.maximum(chord[:-1], chord[1:])
    b = np.minimum(chord[:-1], chord[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log1p((b - a) / a)
        ratio = np.where(L == 0.0, q, np.expm1(q * L) / np.expm1(L))
        piece = np.where(a > 0.0, w * a ** (q - 1.0) * ratio, 0.0)
    return piece.sum(axis=0) / ((q - 1.0) * q)


def radial_batch(source: str, P: Polytope, dirs: np.ndarray, p) -> np.ndarray:
    """Vectorized radial of the star body over an array of unit directions."""
    import numpy as np

    if source == "polar-projection":
        total = np.zeros(len(dirs))
        for a, _b, w in P.facet_weights():
            af = np.array([float(x) for x in a])
            total += np.abs(dirs @ af) * float(w)
        return 1.0 / (0.5 * total)
    if source in ("discrete", "difference-set"):
        return clip_radial(source, lattice_clip(P, dirs), p)
    pf = float(p)
    if source == "continuous":
        mom = _chord_moment_batch(P, dirs, p)
        return (mom / float(P.volume_fraction())) ** (1.0 / pf)
    if source not in ("discrete-open", "discrete-open-tilde"):
        raise RouteUnsupported(source)
    mom = discrete_moment_batch(P, dirs, p, open_cube=True)
    base = count_lattice(P, P.dim if source == "discrete-open" else 0)
    return (mom / base) ** (1.0 / pf)


# ---------------------------------------------------------------------------
# circle quadrature
# ---------------------------------------------------------------------------

def circle_nodes(n_nodes: int, extra_angles=()) -> np.ndarray:
    import numpy as np

    base = [2.0 * math.pi * k / n_nodes for k in range(n_nodes)]
    angles = sorted(set(base) | {a % (2.0 * math.pi) for a in extra_angles})
    return np.array(angles)


def _circle_rule(rho: np.ndarray, angles: np.ndarray) -> float:
    """The trapezoid rule for (1/2) int rho^2 over the sorted angles."""
    import numpy as np

    k = len(angles)
    gaps = np.empty(k)
    gaps[:-1] = angles[1:] - angles[:-1]
    gaps[-1] = 2.0 * math.pi - angles[-1] + angles[0]
    w = np.empty(k)
    w[0] = (gaps[-1] + gaps[0]) / 2.0
    w[1:] = (gaps[:-1] + gaps[1:]) / 2.0
    return float(0.5 * np.sum(rho**2 * w))


# the equal angles of ``star_volume``'s fine rule; the coarse rule takes half
_N_CIRCLE = 2048


def star_volume(evaluator, dim: int, extra_angles=()) -> MeasureValue:
    """Area (1/2) int_{S^1} rho^2 of a planar star set, with a refinement-based
    error estimate.

    ``evaluator`` maps an (m, 2) array of unit directions to radii.  The rule
    is the composite trapezoid over _N_CIRCLE equal angles plus the supplied
    extra angles (kinks of rho).  Only dim = 2 is supported; the polar
    projection body, in any dimension, is built exactly by
    ``polytope.polar_projection_body``.

    The evaluator runs once, on the union of the fine and the coarse nodes
    (_N_CIRCLE / 2 equal angles plus the extras).  _N_CIRCLE is even, so that
    union is the fine nodes, bit for bit, since 2 pi (2k) / _N_CIRCLE rounds
    like 2 pi k / (_N_CIRCLE / 2).
    """
    import numpy as np

    if dim != 2:
        raise RouteUnsupported("star volumes by quadrature are implemented for dimension 2")
    fine_angles = circle_nodes(_N_CIRCLE, extra_angles)
    coarse_angles = circle_nodes(_N_CIRCLE // 2, extra_angles)
    angles = np.union1d(fine_angles, coarse_angles)
    rho = evaluator(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    fine = _circle_rule(rho[np.searchsorted(angles, fine_angles)], fine_angles)
    coarse = _circle_rule(rho[np.searchsorted(angles, coarse_angles)], coarse_angles)
    err = abs(fine - coarse) + 1e-12 * abs(fine)
    return MeasureValue.approx(fine, err)


def facet_angles(P: Polytope) -> list[float]:
    """Angles of the facet normals of a polygon (extra nodes for circle rules)."""
    out = []
    for a, _b in P.halfspaces:
        out.append(math.atan2(float(a[1]), float(a[0])) % (2.0 * math.pi))
    return out


# ---------------------------------------------------------------------------
# radial mean bodies
# ---------------------------------------------------------------------------

def _along_last_axis(P: Polytope, theta: Direction) -> tuple[Polytope, Fraction]:
    """(TK, |det T|), T the inverse of the matrix with columns e_i (i != k), then
    theta.raw; k is the last nonzero coordinate of theta, so |det T| = 1/|theta_k|.
    For theta.raw = e_n, T is the identity and TK is P itself, with its memo."""
    n = P.dim
    if not any(theta.raw[:-1]) and theta.raw[-1] == 1:
        return P, _ONE
    k = max(i for i, x in enumerate(theta.raw) if x != 0)
    cols = [axis_direction(n, i).raw for i in range(n) if i != k] + [theta.raw]
    T = mat_inv([[c[i] for c in cols] for i in range(n)])
    return transform(P, T, [0] * n), 1 / abs(theta.raw[k])


def ray_moment(P: Polytope, theta: Direction, p) -> MeasureValue:
    """p int_0^inf r^{p-1} g_K(r theta.raw) dr in raw units; g_{TK}(Tx) = |det T| g_K(x)
    makes it the projection-power moment of TK over |det T|, exact for integer p."""
    if float(p) <= 0:
        raise ExponentOutOfRange("ray moments need p > 0")
    return _ray_moment(P, theta, p)


def _ray_moment(P: Polytope, theta: Direction, p) -> MeasureValue:
    """``ray_moment`` for any p > -1, p != 0."""
    if theta.dim != P.dim:
        raise DimensionMismatch("direction and body dimensions differ")
    TK, det_T = _along_last_axis(P, theta)
    mom = projection_power_moment(section_distribution(steiner_symmetrize(TK)), p)
    if mom.exact is not None:
        return MeasureValue.from_exact(mom.exact / det_T)
    return MeasureValue.approx(mom.value / float(det_T), mom.abs_error / float(det_T))


def radial_Rp(P: Polytope, theta: Direction, p) -> MeasureValue:
    """Radial of the p-th radial mean body R_p K, (ray moment / vol K)^(1/p),
    for p in (-1, inf), p != 0."""
    pf = float(p)
    if pf == 0 or pf <= -1:
        raise ExponentOutOfRange("the chord-mean radial needs p in (-1, inf), p != 0")
    if not P.is_full_dimensional:
        raise DegenerateBody("chord-mean radials need a full-dimensional body")
    mom = _ray_moment(P, theta, p)
    val = (mom.value / float(P.volume_fraction())) ** (1.0 / pf)
    rel = mom.abs_error / mom.value if mom.value > 0 else 0.0
    return MeasureValue.approx(val, abs(val) * rel / abs(pf) + 1e-14)
