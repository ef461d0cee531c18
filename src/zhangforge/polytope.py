"""Exact rational convex polytopes in ambient dimension 1..4.

A :class:`Polytope` carries both representations at all times: lexicographically
sorted extreme points and canonical halfspaces (primitive integer normals,
deduplicated, sorted).  Lower-dimensional sets are legal values (projections,
slices, touching intersections): their halfspace list contains the affine-hull
equalities as opposite halfspace pairs and their full-dimensional volume is 0.

All construction funnels through the exact hull engine; redundant halfspaces
are eliminated by the polar round trip rather than per-constraint LPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import DegenerateBody, DimensionMismatch, Unbounded
from .hull import convex_hull
from .linalg import (
    Vec,
    affine_basis,
    det,
    dot,
    frac,
    mat_inv,
    nullspace,
    primitive,
    solve_linear,
    vec,
    vsub,
)
from .lp import lex_min_over, lp_solve, max_slack_point

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed/half-open rational segment of a ray or section parameter."""

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval with lo > hi")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, t) -> bool:
        t = frac(t)
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and self.lo_open:
            return False
        if t == self.hi and self.hi_open:
            return False
        return True


@dataclass(frozen=True)
class Direction:
    """A nonzero rational direction and its binary64 unit normalization."""

    raw: Vec
    unit: tuple[float, ...] = field(compare=False, default=())

    def __post_init__(self):
        raw = vec(self.raw)
        if all(x == 0 for x in raw):
            raise ValueError("zero direction")
        object.__setattr__(self, "raw", raw)
        norm = math.sqrt(float(sum(float(x) * float(x) for x in raw)))
        object.__setattr__(self, "unit", tuple(float(x) / norm for x in raw))

    @property
    def dim(self) -> int:
        return len(self.raw)

    @property
    def norm_sq(self) -> Fraction:
        return sum((x * x for x in self.raw), _ZERO)

    def exact_norm(self) -> Fraction | None:
        """Rational Euclidean norm of ``raw`` if the norm is rational, else None."""
        s = self.norm_sq
        num = math.isqrt(s.numerator)
        den = math.isqrt(s.denominator)
        if num * num == s.numerator and den * den == s.denominator:
            return Fraction(num, den)
        return None


def axis_direction(dim: int, axis: int = -1) -> Direction:
    raw = [Fraction(0)] * dim
    raw[axis] = Fraction(1)
    return Direction(tuple(raw))


@dataclass(frozen=True)
class MeasureValue:
    """A scalar measurement with exactness provenance and an error bound."""

    value: float
    exact: Fraction | None = None
    abs_error: float = 0.0

    @staticmethod
    def from_exact(q) -> "MeasureValue":
        q = frac(q)
        return MeasureValue(value=float(q), exact=q, abs_error=0.0)

    @staticmethod
    def approx(value: float, abs_error: float) -> "MeasureValue":
        return MeasureValue(value=float(value), exact=None, abs_error=float(abs_error))

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------

def _scale_pair(a: Vec, b: Fraction) -> tuple[Vec, Fraction]:
    p = primitive(a)
    j = next(i for i, x in enumerate(a) if x != 0)
    s = p[j] / a[j]
    return p, b * s


class Polytope:
    """Immutable rational polytope with vertex and halfspace representations."""

    __slots__ = (
        "dim",
        "affine_dim",
        "vertices",
        "halfspaces",
        "_interior",
        "_tri",
        "_volume",
        "_fweights",
        "_fattenings",
        "_projection",
    )

    def __init__(self, dim, affine_dim, vertices, halfspaces, interior, tri):
        self.dim = dim
        self.affine_dim = affine_dim
        self.vertices = vertices
        self.halfspaces = halfspaces
        self._interior = interior
        self._tri = tri
        self._volume: Fraction | None = None
        self._fweights = None
        self._fattenings = None
        self._projection: Polytope | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_points(points, dim: int | None = None) -> "Polytope":
        pts = [vec(p) for p in points]
        if not pts:
            raise ValueError("at least one point required")
        if dim is None:
            dim = len(pts[0])
        for p in pts:
            if len(p) != dim:
                raise DimensionMismatch(f"point of length {len(p)}, expected {dim}")
        uniq = sorted(set(pts))
        if len(uniq) == 1:
            return Polytope._point(uniq[0], dim)
        basis = affine_basis(uniq)
        r = len(basis) - 1
        if r == dim:
            hull = convex_hull(uniq)
            verts = tuple(uniq[i] for i in hull.vertex_indices)
            tri = (tuple(uniq), tuple(zip(hull.simplices, hull.simplex_planes)))
            return Polytope(dim, dim, verts, tuple(sorted(hull.facets)), hull.interior, tri)
        return Polytope._degenerate_from_points(uniq, dim, basis, r)

    @staticmethod
    def _point(p: Vec, dim: int) -> "Polytope":
        hs = []
        for i in range(dim):
            e = tuple(Fraction(int(j == i)) for j in range(dim))
            ne = tuple(-x for x in e)
            hs.append((e, p[i]))
            hs.append((ne, -p[i]))
        return Polytope(dim, 0, (p,), tuple(sorted(hs)), p, None)

    @staticmethod
    def _degenerate_from_points(uniq, dim, basis, r) -> "Polytope":
        origin = uniq[basis[0]]
        dirs = [vsub(uniq[i], origin) for i in basis[1:]]  # r directions
        # coordinates z with x = origin + sum z_k dirs_k, via left inverse M
        gram = [[dot(di, dj) for dj in dirs] for di in dirs]
        ginv = mat_inv(gram)
        assert ginv is not None
        M = [
            tuple(sum(ginv[k][j] * dirs[j][i] for j in range(r)) for i in range(dim))
            for k in range(r)
        ]
        zpts = [tuple(dot(M[k], vsub(p, origin)) for k in range(r)) for p in uniq]
        hull = convex_hull(zpts)
        verts = tuple(sorted(uniq[i] for i in hull.vertex_indices))
        halfspaces: list[tuple[Vec, Fraction]] = []
        for az, bz in hull.facets:
            a_amb = tuple(
                sum(az[k] * M[k][i] for k in range(r)) for i in range(dim)
            )
            b_amb = bz + dot(a_amb, origin)
            halfspaces.append(_scale_pair(a_amb, b_amb))
        for nrm in nullspace([list(d) for d in dirs], dim):
            a = primitive(nrm)
            b = dot(a, origin)
            halfspaces.append((a, b))
            halfspaces.append((tuple(-x for x in a), -b))
        zint = hull.interior
        interior = tuple(
            origin[i] + sum(zint[k] * dirs[k][i] for k in range(r)) for i in range(dim)
        )
        return Polytope(dim, r, verts, tuple(sorted(set(halfspaces))), interior, None)

    @staticmethod
    def from_halfspaces(halfspaces, dim: int, interior=None) -> "Polytope | None":
        """Polytope from <a,x> <= b rows; None when infeasible; Unbounded if unbounded."""
        canon: dict[Vec, Fraction] = {}
        for a, b in halfspaces:
            a = vec(a)
            b = frac(b)
            if all(x == 0 for x in a):
                if b < 0:
                    return None
                continue
            a, b = _scale_pair(a, b)
            if a in canon:
                canon[a] = min(canon[a], b)
            else:
                canon[a] = b
        rows = sorted(canon.items())
        A = [list(a) for a, _ in rows]
        bb = [b for _, b in rows]
        if interior is not None:
            x0 = vec(interior)
            if not all(dot(a, x0) < b for (a, b) in rows):
                interior = None
        if interior is None:
            t, x0 = max_slack_point(A, bb)
            if t < 0:
                return None
            if t == 0:
                return Polytope._degenerate_from_halfspaces(rows, dim, x0)
        duals = []
        for a, b in rows:
            sigma = b - dot(a, x0)
            duals.append(tuple(x / sigma for x in a))
        try:
            dual_hull = convex_hull(duals)
        except ValueError as exc:
            raise Unbounded("halfspace intersection is unbounded") from exc
        verts = []
        for u, c in dual_hull.facets:
            if c <= 0:
                raise Unbounded("halfspace intersection is unbounded")
            verts.append(tuple(x0[i] + u[i] / c for i in range(dim)))
        return Polytope.from_points(verts, dim)

    @staticmethod
    def _degenerate_from_halfspaces(rows, dim, x0) -> "Polytope | None":
        eq_rows: list[Vec] = []
        for a, b in rows:
            res = lp_solve([-x for x in a], [list(r) for r, _ in rows], [c for _, c in rows])
            if -res.value == b:  # max slack of this constraint over P is zero
                eq_rows.append(a)
        basis = nullspace([list(a) for a in eq_rows], dim)
        if not basis:
            return Polytope.from_points([x0], dim)
        red = []
        for a, b in rows:
            az = tuple(dot(a, nb) for nb in basis)
            bz = b - dot(a, x0)
            if all(x == 0 for x in az):
                continue
            red.append((az, bz))
        sub = Polytope.from_halfspaces(red, len(basis))
        if sub is None:
            return None
        amb = [
            tuple(x0[i] + sum(z[k] * basis[k][i] for k in range(len(basis))) for i in range(dim))
            for z in sub.vertices
        ]
        return Polytope.from_points(amb, dim)

    # -- basic queries -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, affine_dim={self.affine_dim}, nverts={len(self.vertices)})"

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    @property
    def interior_point(self) -> Vec:
        return self._interior

    def contains(self, x, strict: bool = False) -> bool:
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong length")
        if strict:
            return all(dot(a, x) < b for a, b in self.halfspaces)
        return all(dot(a, x) <= b for a, b in self.halfspaces)

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        return [
            (min(v[i] for v in self.vertices), max(v[i] for v in self.vertices))
            for i in range(self.dim)
        ]

    def volume_fraction(self) -> Fraction:
        """Full-dimensional volume as an exact rational (0 when degenerate)."""
        if self._volume is None:
            if not self.is_full_dimensional:
                self._volume = _ZERO
            elif self._tri is None:
                self._volume = Polytope.from_points(self.vertices, self.dim).volume_fraction()
            else:
                pts, simplices = self._tri
                c = self._interior
                total = _ZERO
                for simplex, _plane in simplices:
                    rows = [list(vsub(pts[i], c)) for i in simplex]
                    total += abs(det(rows))
                self._volume = total / math.factorial(self.dim)
        return self._volume

    def facet_weights(self):
        """Per-facet (normal a, offset b, vol_{n-1}(F)/||a||) with the weight exact."""
        if self._fweights is None:
            if not self.is_full_dimensional:
                raise DegenerateBody("facet weights need a full-dimensional polytope")
            out = []
            for a, b in self.halfspaces:
                fverts = [v for v in self.vertices if dot(a, v) == b]
                w = _ONE if self.dim == 1 else _facet_weight(a, fverts)
                out.append((a, b, w))
            self._fweights = tuple(out)
        return self._fweights

    def translated(self, t) -> "Polytope":
        t = vec(t)

        def shift(p):
            return tuple(p[i] + t[i] for i in range(self.dim))

        verts = tuple(shift(v) for v in self.vertices)
        hs = tuple((a, b + dot(a, t)) for a, b in self.halfspaces)
        tri = None
        if self._tri is not None:
            pts, simplices = self._tri
            tri = (
                tuple(shift(p) for p in pts),
                tuple((s, (a, b + dot(a, t))) for s, (a, b) in simplices),
            )
        out = Polytope(self.dim, self.affine_dim, verts, hs, shift(self._interior), tri)
        out._volume = self._volume
        return out


def _points_volume(points) -> Fraction:
    """Full-dimensional volume of the hull of a point set; 0 when the set is flat."""
    d = len(points[0])
    uniq = sorted(set(points))
    try:
        hull = convex_hull(uniq)
    except ValueError:  # the hull engine rejects sets that are not full-dimensional
        return _ZERO
    c = hull.interior
    total = _ZERO
    for simplex in hull.simplices:
        rows = [list(vsub(uniq[i], c)) for i in simplex]
        total += abs(det(rows))
    return total / math.factorial(d)


def _facet_weight(a: Vec, fverts) -> Fraction:
    """vol_{n-1}(F)/||a|| for the facet F = conv(fverts) on {<a, x> = b}, n >= 2.

    Dropping the coordinate j of largest |a_j| scales vol_{n-1}(F) by
    |a_j|/||a||, so the weight is the dropped set's volume over |a_j|.
    """
    dim = len(a)
    j = max(range(dim), key=lambda i: abs(a[i]))
    return _points_volume([tuple(v[k] for k in range(dim) if k != j) for v in fverts]) / abs(a[j])


# ---------------------------------------------------------------------------
# kernel operations (spec surface)
# ---------------------------------------------------------------------------

def make_polytope(points, dim: int) -> Polytope:
    """Convex hull of rational points; both representations populated."""
    return Polytope.from_points(points, dim)


def volume(P: Polytope) -> MeasureValue:
    """Exact full-dimensional volume; 0 when affine_dim < dim."""
    return MeasureValue.from_exact(P.volume_fraction())


def translate(P: Polytope, t) -> Polytope:
    return P.translated(t)


def intersect(P: Polytope, Q: Polytope) -> Polytope | None:
    if P.dim != Q.dim:
        raise DimensionMismatch("intersection operands have different dimensions")
    return Polytope.from_halfspaces(list(P.halfspaces) + list(Q.halfspaces), P.dim)


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.dim != Q.dim:
        raise DimensionMismatch("Minkowski operands have different dimensions")
    sums = [
        tuple(v[i] + w[i] for i in range(P.dim))
        for v in P.vertices
        for w in Q.vertices
    ]
    return Polytope.from_points(sums, P.dim)


def transform(P: Polytope, A, b) -> Polytope:
    """Image polytope under x -> A x + b (A rational square)."""
    rows = [vec(r) for r in A]
    if len(rows) != P.dim or any(len(r) != P.dim for r in rows):
        raise DimensionMismatch("matrix shape does not match polytope dimension")
    shift = vec(b)
    pts = [tuple(dot(rows[i], v) + shift[i] for i in range(P.dim)) for v in P.vertices]
    return Polytope.from_points(pts, P.dim)


def project_drop_last(P: Polytope) -> Polytope:
    """Orthogonal projection onto the first n-1 coordinates, memoized on ``P``."""
    if P.dim < 2:
        raise DimensionMismatch("projection needs ambient dimension >= 2")
    if P._projection is None:
        P._projection = Polytope.from_points([v[:-1] for v in P.vertices], P.dim - 1)
    return P._projection


def vertical_section(P: Polytope, y) -> Interval | None:
    """The set {t : (y, t) in P} as a closed interval; None when empty."""
    y = vec(y)
    if len(y) != P.dim - 1:
        raise DimensionMismatch("section anchor has wrong length")
    lo: Fraction | None = None
    hi: Fraction | None = None
    for a, b in P.halfspaces:
        at = a[-1]
        c = b - dot(a[:-1], y)
        if at == 0:
            if c < 0:
                return None
        elif at > 0:
            t = c / at
            hi = t if hi is None else min(hi, t)
        else:
            t = c / at
            lo = t if lo is None else max(lo, t)
    if lo is None or hi is None:
        raise Unbounded("vertical line section is unbounded")
    if lo > hi:
        return None
    return Interval(lo, hi)


def slice_at_height(P: Polytope, r) -> Polytope | None:
    """Slice {y : (y, r) in P}, identified with the first n-1 coordinates."""
    r = frac(r)
    rows = []
    for a, b in P.halfspaces:
        head = a[:-1]
        c = b - a[-1] * r
        if all(x == 0 for x in head):
            if c < 0:
                return None
            continue
        rows.append((head, c))
    return Polytope.from_halfspaces(rows, P.dim - 1)


def _lagrange_coeffs(nodes: list[Fraction], values: list[Fraction]) -> list[Fraction]:
    """Exact coefficients (ascending powers) of the interpolating polynomial."""
    k = len(nodes)
    sol = solve_linear([[x**j for j in range(k)] for x in nodes], values)
    assert sol is not None
    return list(sol)


def parametric_volume(rows, shifts, lo, hi, interior=None) -> tuple[list[Fraction], bool]:
    """vol Q(t) on [lo, hi] for Q(t) = {x : <a_i, x> <= b_i + t c_i}, as ascending
    coefficients of one polynomial, and whether it is certified on the panel.

    One hull at the midpoint m fixes the combinatorial type.  Each vertex v
    moves on the line v + (t - m) d with A_act d = c_act over its active rows,
    so the volume over the midpoint's boundary triangulation is a polynomial
    of degree <= dim (Lasserre, JOTA 1983), interpolated at dim + 1 nodes.
    It is certified when every active system is consistent and every vertex
    path satisfies every row at lo and at hi: row slack is affine in t, so the
    type then holds on the whole panel.  ``interior`` is an optional hint
    strictly inside Q(m).
    """
    lo, hi = frac(lo), frac(hi)
    m = (lo + hi) / 2
    rows = [(vec(a), frac(b), frac(c)) for (a, b), c in zip(rows, shifts)]
    dim = len(rows[0][0])
    Q = Polytope.from_halfspaces([(a, b + m * c) for a, b, c in rows], dim, interior)
    if Q is None or not Q.is_full_dimensional:
        raise DegenerateBody("parametric volume needs a full-dimensional body at the midpoint")
    pts, simplices = Q._tri
    certified = True
    paths = []
    for v in pts:
        act = [(list(a), c) for a, b, c in rows if dot(a, v) == b + m * c]
        A, rhs = [a for a, _c in act], [c for _a, c in act]
        d = solve_linear(A, rhs)
        if d is None:  # the vertex splits away from m: least-squares path, uncertified
            certified = False
            d = solve_linear([[dot(ci, cj) for cj in zip(*A)] for ci in zip(*A)],
                             [dot(ci, rhs) for ci in zip(*A)])
        paths.append((v, d))

    def at(t):
        return [tuple(v[i] + (t - m) * d[i] for i in range(dim)) for v, d in paths]

    certified = certified and all(
        dot(a, x) <= b + t * c for t in (lo, hi) for x in at(t) for a, b, c in rows
    )
    nodes = [lo + (hi - lo) * Fraction(j + 1, dim + 2) for j in range(dim + 1)]
    vals = []
    for t in nodes:
        xs = at(t)
        cen = tuple(sum(x[i] for x in xs) / len(xs) for i in range(dim))
        total = sum(abs(det([list(vsub(xs[i], cen)) for i in s])) for s, _plane in simplices)
        vals.append(total / math.factorial(dim))
    return _lagrange_coeffs(nodes, vals), certified


def projection_support(P: Polytope, u) -> Fraction:
    """h_ΠK(u) = ½ Σ_F w_F |<a_F, u>| exactly, for any rational vector u."""
    return sum((abs(dot(a, u)) * w for a, _b, w in P.facet_weights()), _ZERO) / 2


def projection_volume(P: Polytope, theta: Direction) -> MeasureValue:
    """(n-1)-volume of the shadow of P along theta, by the facet-sum formula."""
    if not P.is_full_dimensional:
        raise DegenerateBody("projection volume needs a full-dimensional body")
    if theta.dim != P.dim:
        raise DimensionMismatch("direction has wrong length")
    q = projection_support(P, theta.raw)
    nrm = theta.exact_norm()
    if nrm is not None:
        return MeasureValue.from_exact(q / nrm)
    val = float(q) / math.sqrt(float(theta.norm_sq))
    return MeasureValue.approx(val, 8e-16 * abs(val))


def difference_body(P: Polytope) -> Polytope:
    """Minkowski sum of P and its reflection through the origin."""
    neg = [tuple(-x for x in v) for v in P.vertices]
    sums = [
        tuple(v[i] + w[i] for i in range(P.dim)) for v in P.vertices for w in neg
    ]
    return Polytope.from_points(sums, P.dim)


def polar_projection_body(P: Polytope) -> Polytope:
    """The polar Π*K of the projection body, exactly.

    ΠK is the zonotope with support function ``projection_support``; its facet
    normals are the normals c of the rank-(n-1) subsets of the facet normals
    a_F, so the vertices of Π*K are ±c / h_ΠK(c).
    """
    normals = [a for a, _b, _w in P.facet_weights()]
    pts = []
    for sub in combinations(normals, P.dim - 1):
        basis = nullspace([list(a) for a in sub], P.dim)
        if len(basis) != 1:  # rank below n-1: no facet normal
            continue
        c = basis[0]
        h = projection_support(P, c)
        pts.append(tuple(x / h for x in c))
        pts.append(tuple(-x / h for x in c))
    return Polytope.from_points(pts, P.dim)


def max_section_anchor(P: Polytope) -> Vec:
    """Anchor y* of a longest vertical section, lexicographically smallest.

    Solved as the exact LP  max (t2 - t1)  over (y, t1), (y, t2) in P, then
    successive lexicographic minimization of y over the optimal face.
    """
    if not P.is_full_dimensional:
        raise DegenerateBody("section anchor needs a full-dimensional body")
    n = P.dim
    nv = (n - 1) + 2  # y, t1, t2
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for a, b in P.halfspaces:
        rows.append(list(a[:-1]) + [a[-1], _ZERO])
        rhs.append(b)
        rows.append(list(a[:-1]) + [_ZERO, a[-1]])
        rhs.append(b)
    obj = [_ZERO] * (n - 1) + [-_ONE, _ONE]
    best = lp_solve(obj, rows, rhs)
    anchor = lex_min_over(rows, rhs, n - 1, fixed=[(obj, best.value)])
    return anchor


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _rat_json(q: Fraction):
    return [q.numerator, q.denominator]


def polytope_to_json(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "vertices": [[_rat_json(x) for x in v] for v in P.vertices],
        "halfspaces": [
            {"a": [_rat_json(x) for x in a], "b": _rat_json(b)} for a, b in P.halfspaces
        ],
    }


def polytope_from_json(obj: dict) -> Polytope:
    pts = [tuple(Fraction(n, d) for n, d in v) for v in obj["vertices"]]
    return Polytope.from_points(pts, int(obj["dim"]))
