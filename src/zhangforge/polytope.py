"""Exact rational convex polytopes in ambient dimension 1..4.

A :class:`Polytope` carries both representations at all times: lexicographically
sorted extreme points and canonical halfspaces (primitive integer normals,
deduplicated, sorted).  Lower-dimensional sets are legal values (projections,
slices, touching intersections): their halfspace list contains the affine-hull
equalities as opposite halfspace pairs and their full-dimensional volume is 0.

Each full-dimensional construction is one run of the exact hull engine, or
none where the faces follow from a parent's: ``transform`` maps vertices,
rows and triangulation through an invertible A (``Polytope.translated`` and
``Polytope.scaled`` without inverting it), and ``cube_sum`` adds a cube one
segment at a time.  ``from_points`` hulls the points.
``from_halfspaces`` hulls the polar dual of integer rows about an interior
point: the dual hull's facets are the vertices, its extreme points the
irredundant rows, and the dual points on each facet plane the rows tight at
that vertex.  Those incidences give the boundary triangulation (pulling, no
arithmetic) and ``parametric_volume`` its vertex paths; only the ray engine
of ``moments`` sweeps a parameter with it.  A halfspace set with empty
interior is the exception: its implicit equalities are found by one LP per
row, and its vertices re-hulled in the affine hull.  Volumes of boundary
triangulations, from any construction and in ``parametric_volume``, are
sums of integer determinants, and facet weights are sums of their
simplices' integer cofactor normals, so Cauchy's formula
(``projection_support``) is one integer sum.  The longest-section anchor is
read off the top face of the Steiner symmetral (``top_face_anchor``), with
no LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import gcd, lcm
from operator import mul

from .errors import DegenerateBody, DimensionMismatch, Unbounded
from .hull import _normal, convex_hull
from .linalg import (
    Vec,
    _bareiss,
    affine_basis,
    common_denominator,
    det_int,
    dot,
    frac,
    integer_points,
    integer_row,
    mat_inv,
    nullspace,
    primitive,
    primitive_int,
    solve_linear,
    vec,
    vsub,
)
from .lp import lp_solve, max_slack_point
from .verdict import MeasureValue

_ZERO = Fraction(0)


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
    """A nonzero rational direction."""

    raw: Vec

    def __post_init__(self):
        raw = vec(self.raw)
        if all(x == 0 for x in raw):
            raise ValueError("zero direction")
        object.__setattr__(self, "raw", raw)

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
        "_int_weights",
        "_fattenings",
        "_int_rows",
        "_incidence",
        "_column_tables",
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
        self._int_weights = None  # ((normal, g) per facet, den), see ``_integer_weights``
        self._fattenings = None
        self._int_rows = None
        self._incidence = None  # per vertex, the input rows of from_halfspaces tight there
        self._column_tables = None  # k -> the integer column walk (``lattice._column_walk``)

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
            tri = (tuple(uniq), tuple(hull.simplices))
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
        """Polytope from <a,x> <= b rows; None when infeasible; Unbounded if unbounded.

        One hull, over integers.  Each row is made an integer row (a, num, den)
        with a primitive, and rows with one normal keep the least offset.  With
        x0 = z/D strictly inside, row i is <a_i, x - x0> <= s_i/(den_i D), so
        the dual points a_i den_i / s_i, scaled by the lcm of their
        denominators, are integer.  A dual facet (u, c) is the vertex
        x0 + (lcm/D) u/c, and the dual points on its plane are the rows tight
        there; the dual hull's extreme points are the facets.  The boundary
        triangulation is the pulling triangulation of those incidences.
        """
        canon: dict[tuple[int, ...], list] = {}  # normal -> [num, den, input rows]
        for i, (a, b) in enumerate(halfspaces):
            ints, la = integer_row(vec(a))
            b = frac(b)
            g = gcd(*ints)
            if g == 0:
                if b < 0:
                    return None
                continue
            key = tuple(x // g for x in ints)
            num, den = b.numerator * la, b.denominator * g  # <key, x> <= num/den
            row = canon.get(key)
            if row is None or num * row[1] < row[0] * den:
                canon[key] = [num, den, [i]]
            elif num * row[1] == row[0] * den:
                row[2].append(i)
        keys = sorted(canon)
        rows = []
        for key in keys:
            num, den, _ = canon[key]
            g = gcd(num, den)
            rows.append((key, num // g, den // g))
        if interior is not None:
            z, D = integer_row(vec(interior))
            if not all(den * sum(map(mul, a, z)) < num * D for a, num, den in rows):
                interior = None
        if interior is None:
            t, x0 = max_slack_point([list(a) for a, _, _ in rows],
                                    [Fraction(num, den) for _, num, den in rows])
            if t < 0:
                return None
            if t == 0:
                frows = [(tuple(map(Fraction, a)), Fraction(num, den)) for a, num, den in rows]
                return Polytope._degenerate_from_halfspaces(frows, dim, x0)
            z, D = integer_row(x0)
        duals = []
        lam = 1
        for a, num, den in rows:
            s = num * D - den * sum(map(mul, a, z))  # > 0
            g = gcd(den, s)
            duals.append((a, den // g, s // g))
            lam = lcm(lam, s // g)
        Y = [tuple(x * q * (lam // r) for x in a) for a, q, r in duals]
        try:
            dual_hull = convex_hull(Y)
        except ValueError as exc:
            raise Unbounded("halfspace intersection is unbounded") from exc
        verts = []
        tight = []
        for u, c in dual_hull.facets:
            if c <= 0:
                raise Unbounded("halfspace intersection is unbounded")
            U, C = [int(x) for x in u], int(c)
            verts.append(tuple(Fraction(zk * C + lam * uk, D * C) for zk, uk in zip(z, U)))
            tight.append([j for j, y in enumerate(Y) if sum(map(mul, U, y)) == C])
        order = sorted(range(len(verts)), key=verts.__getitem__)
        verts = tuple(verts[k] for k in order)
        facet_rows = dual_hull.vertex_indices
        masks = dict.fromkeys(facet_rows, 0)  # facet row -> bitmask of its vertices
        incidence = []
        for pos, k in enumerate(order):
            for j in tight[k]:
                if j in masks:
                    masks[j] |= 1 << pos
            incidence.append(tuple(i for j in tight[k] for i in canon[keys[j]][2]))
        P = Polytope(
            dim, dim, verts,
            tuple((tuple(map(Fraction, rows[j][0])), Fraction(rows[j][1], rows[j][2]))
                  for j in facet_rows),
            _hull_interior(verts),
            (verts, _pulling_triangulation(list(masks.values()), dim)),
        )
        P._int_rows = tuple(rows[j] for j in facet_rows)
        P._incidence = tuple(incidence)
        return P

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
            else:
                pts, simplices = self._tri
                self._volume = _rational_cone_volume(pts, simplices, self._interior)
        return self._volume

    def facet_weights(self):
        """Per-facet (normal a, offset b, vol_{n-1}(F)/||a||) with the weight exact,
        one ``Fraction`` per facet from :func:`_integer_weights`."""
        if self._fweights is None:
            sums, den = _integer_weights(self)
            self._fweights = tuple((a, b, Fraction(g, den))
                                   for (a, b), (_a, g) in zip(self.halfspaces, sums))
        return self._fweights

    def translated(self, t) -> "Polytope":
        """P + t, with no hull; a volume already computed for P is carried across."""
        t = vec(t)

        def shift(p):
            return tuple(p[i] + t[i] for i in range(self.dim))

        verts = tuple(shift(v) for v in self.vertices)
        hs = tuple((a, b + dot(a, t)) for a, b in self.halfspaces)
        tri = None
        if self._tri is not None:
            pts, simplices = self._tri
            tri = (tuple(shift(p) for p in pts), simplices)
        out = Polytope(self.dim, self.affine_dim, verts, hs, shift(self._interior), tri)
        out._volume = self._volume
        return out

    def scaled(self, lam: int) -> "Polytope":
        """lam P for an integer lam > 0.  A full-dimensional P needs no hull:
        each row keeps its normal and takes lam times its offset, and the
        interior point is the one ``transform`` gives; a lower-dimensional P
        goes through ``transform``, which hulls its image.  The volume and the
        integer rows already computed for P are carried across, scaled."""
        n = self.dim
        if not self.is_full_dimensional:
            diag = [[lam * int(i == j) for j in range(n)] for i in range(n)]
            return transform(self, diag, [0] * n)

        def scale(p):
            return tuple(lam * x for x in p)

        verts = tuple(scale(v) for v in self.vertices)
        hs = tuple((a, lam * b) for a, b in self.halfspaces)
        pts, simplices = self._tri
        out = Polytope(n, n, verts, hs, _hull_interior(verts),
                       (tuple(scale(p) for p in pts), simplices))
        if self._volume is not None:
            out._volume = lam**n * self._volume
        if self._int_rows is not None:
            out._int_rows = tuple((a, lam * num // g, den // g) for a, num, den in self._int_rows
                                  for g in (gcd(lam * num, den),))
        return out


def _hull_interior(verts) -> Vec:
    """The interior point ``convex_hull`` gives the sorted vertices of a body:
    the midpoint (n = 1), the vertex centroid (n = 2), or the centroid of the
    first affinely independent n + 1 vertices."""
    d = len(verts[0])
    if d == 1:
        return (Fraction(verts[0][0] + verts[-1][0], 2),)
    chosen = verts if d == 2 else [verts[i] for i in affine_basis(verts)]
    return tuple(sum(v[k] for v in chosen) / len(chosen) for k in range(d))


def _integer_weights(P: Polytope):
    """((a, g) per halfspace, den), memoized on ``P``: the facet with primitive
    integer normal a weighs g / den.

    Read off the boundary triangulation, over integers: with the points over
    one denominator L, a boundary simplex's cofactor normal N has length
    (n-1)! L^{n-1} vol_{n-1}, and N = g a for the outward primitive normal a
    of its facet, so each facet's g is the sum of its simplices' g, and
    den = (n-1)! L^{n-1}.
    """
    if P._int_weights is None:
        if not P.is_full_dimensional:
            raise DegenerateBody("facet weights need a full-dimensional polytope")
        n = P.dim
        pts, simplices = P._tri
        ipts, L = integer_points([*pts, P._interior])
        sums: dict[tuple[int, ...], int] = {}
        for s in simplices:
            base = ipts[s[0]]
            edges = [[x - y for x, y in zip(ipts[i], base)] for i in s[1:]]
            N = _normal(edges) if n > 1 else [1]
            g = gcd(*N)
            if sum(x * (y - c) for x, y, c in zip(N, base, ipts[-1])) < 0:
                g = -g
            a = tuple(x // g for x in N)
            sums[a] = sums.get(a, 0) + abs(g)
        keys = [tuple(int(x) for x in a) for a, _b in P.halfspaces]
        P._int_weights = (tuple((a, sums[a]) for a in keys), math.factorial(n - 1) * L ** (n - 1))
    return P._int_weights


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _pulling_triangulation(facets: list[int], dim: int) -> tuple[tuple[int, ...], ...]:
    """Boundary triangulation from the facets' vertex sets (bitmasks over the
    sorted vertices), with no arithmetic: the pulling triangulation (Lee,
    Handbook of DCG).  A k-face with more than k + 1 vertices is coned from
    its least vertex over its facets that miss it; the facets of a face F are
    the maximal sets among F & G, G a facet of the body not containing F.
    Each simplex lists its vertex indices in ascending order.
    """
    out = []

    def pull(face: int, k: int, apex: tuple[int, ...]) -> None:
        if face.bit_count() == k + 1:
            out.append(apex + _bits(face))
            return
        low = face & -face
        apex += (low.bit_length() - 1,)
        subs = {face & g for g in facets} - {face}
        for s in subs:
            if not s & low and not any(s != t and s & t == s for t in subs):
                pull(s, k - 1, apex)

    for f in facets:
        pull(f, dim - 1, ())
    return tuple(out)


def _cone_volume(points, simplices, center, den: int) -> Fraction:
    """Volume of the cones from ``center`` over the boundary ``simplices``, for
    integer ``points`` and ``center`` over the common denominator ``den``:
    sum |det(p_i - center)| / (d! den^d)."""
    total = 0
    for s in simplices:
        total += abs(det_int([[x - c for x, c in zip(points[i], center)] for i in s]))
    d = len(center)
    return Fraction(total, math.factorial(d) * den**d)


def _rational_cone_volume(points, simplices, center) -> Fraction:
    ipts, den = integer_points([*points, center])
    return _cone_volume(ipts, simplices, ipts[-1], den)


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
    """Image polytope under x -> A x + b (A rational square).

    With A invertible and P full-dimensional no hull is built: vertices and
    boundary triangulation map point by point, and the row <a, x> <= c maps
    to <A^{-T} a, y> <= c + <A^{-T} a, b>, made primitive.  A singular A
    (or a lower-dimensional P) hulls the image of the vertices.
    """
    rows = [vec(r) for r in A]
    n = P.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("matrix shape does not match polytope dimension")
    shift = vec(b)
    inv = mat_inv(rows) if P.is_full_dimensional else None
    if inv is None:
        return Polytope.from_points(_affine_image(rows, shift, P.vertices), n)
    tri_pts, simplices = P._tri
    nv = len(P.vertices)
    images = _affine_image(rows, shift, [*P.vertices, *tri_pts])
    verts = tuple(sorted(images[:nv]))
    # A^{-T} = J^T / dJ and b = B / db over integers; a row (a, num/den) maps to
    # the direction u = J^T a with offset (dJ num/den + <u, B>/db) / dJ
    J, dJ = integer_points(inv)
    B, db = integer_row(shift)
    hs = []
    for a, num, den in integer_rows(P):
        u = [sum(J[i][j] * a[i] for i in range(n)) for j in range(n)]
        g = gcd(*u)
        off = Fraction(dJ * db * num + den * sum(map(mul, u, B)), g * den * db)
        hs.append((tuple(Fraction(x // g) for x in u), off))
    return Polytope(n, n, verts, tuple(sorted(hs)), _hull_interior(verts),
                    (tuple(images[nv:]), simplices))


def _affine_image(rows, shift, points) -> list[Vec]:
    """The points under x -> A x + b, over integers: with A = M/dA, b = B/db
    and x = X/L, A x + b = (db M X + dA L B) / (dA L db)."""
    M, dA = integer_points(rows)
    B, db = integer_row(shift)
    X, L = integer_points(points)
    den = dA * L * db
    return [tuple(Fraction(db * sum(map(mul, r, x)) + dA * L * t, den) for r, t in zip(M, B))
            for x in X]


def cube_sum(P: Polytope, k: int) -> Polytope:
    """P + [-1,1]^k x {0}^{n-k} for a full-dimensional P, with no hull.

    The segments [-e_i, e_i], i < k, are added one at a time by
    :func:`_add_segment` (Fukuda, J. Symbolic Comput. 38, 2004), over
    integers with the vertices over one denominator L.  Each facet carries
    its vertex set as a bitmask from step to step; the final masks give the
    pulling triangulation, as in ``from_halfspaces``.
    """
    n = P.dim
    V, L = integer_points(P.vertices)
    rows = list(integer_rows(P))
    masks = [sum(1 << j for j, v in enumerate(V) if den * sum(map(mul, a, v)) == num * L)
             for a, num, den in rows]
    for i in range(k):
        V, rows, masks = _add_segment(V, rows, masks, i, L)
    order = sorted(range(len(V)), key=V.__getitem__)
    where = {j: pos for pos, j in enumerate(order)}
    verts = tuple(tuple(Fraction(x, L) for x in V[j]) for j in order)
    facets = sorted(zip(rows, masks))
    Q = Polytope(
        n, n, verts,
        tuple((tuple(map(Fraction, a)), Fraction(num, den)) for (a, num, den), _m in facets),
        _hull_interior(verts),
        (verts, _pulling_triangulation(
            [sum(1 << where[j] for j in _bits(m)) for _r, m in facets], n)),
    )
    Q._int_rows = tuple(r for r, _m in facets)
    return Q


def _add_segment(V, rows, masks, i: int, L: int):
    """(vertices, integer rows, facet masks) of P + [-e_i, e_i] from those of P,
    the vertices integer over L.

    Each facet (a, b) moves to (a, b + |a_i|).  Each ridge between facets
    a, a' with a_i > 0 > a'_i gives the facet with normal -a'_i a + a_i a',
    made primitive, through the ridge; two facets meet in a ridge when their
    common vertices lie in no third facet.  Vertex v gives v + e_i (v - e_i)
    when a facet at v has a_i > 0 (< 0).  A facet with a_i > 0 (< 0) keeps the
    images v + e_i (v - e_i) of its vertices, every other facet both images
    that exist.
    """
    sign = [(a[i] > 0) - (a[i] < 0) for a, _num, _den in rows]
    reach = {1: 0, -1: 0}  # the vertices on a facet with a_i > 0, < 0
    for m, s in zip(masks, sign):
        if s:
            reach[s] |= m
    image: dict[int, dict[int, int]] = {1: {}, -1: {}}  # vertex j -> index of v_j +- e_i
    W = []
    for j, v in enumerate(V):
        for s in (1, -1):
            if reach[s] >> j & 1:
                image[s][j] = len(W)
                W.append(v[:i] + (v[i] + s * L,) + v[i + 1:])

    def lift(m: int, sides) -> int:
        return sum(1 << image[s][j] for s in sides for j in _bits(m) if j in image[s])

    out_rows, out_masks = [], []
    for p in (p for p, s in enumerate(sign) if s > 0):
        for q in (q for q, s in enumerate(sign) if s < 0):
            m = masks[p] & masks[q]
            if not m or any(t != p and t != q and mt & m == m for t, mt in enumerate(masks)):
                continue
            a, b = rows[p][0], rows[q][0]
            c = primitive_int(tuple(-b[i] * x + a[i] * y for x, y in zip(a, b)))
            h = sum(map(mul, c, V[_bits(m)[0]]))
            g = gcd(h, L)
            out_rows.append((c, h // g, L // g))
            out_masks.append(lift(m, (1, -1)))
    for (a, num, den), m, s in zip(rows, masks, sign):
        out_rows.append((a, num + abs(a[i]) * den, den))
        out_masks.append(lift(m, (s,) if s else (1, -1)))
    return W, out_rows, out_masks


def project_drop_last(P: Polytope) -> Polytope:
    """Orthogonal projection onto the first n-1 coordinates: the hull of the
    vertices with the last coordinate dropped, built on each call.  The
    checkers need only its volume (``projection_support(P, e_n)``) and its
    integer points (the columns of ``lattice.column_lengths``)."""
    if P.dim < 2:
        raise DimensionMismatch("projection needs ambient dimension >= 2")
    return Polytope.from_points([v[:-1] for v in P.vertices], P.dim - 1)


def integer_rows(P: Polytope) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Halfspaces as integer rows (a, num, den), <a, x> <= num/den with den > 0,
    memoized on ``P``; normals are primitive integer vectors already."""
    if P._int_rows is None:
        assert all(x.denominator == 1 for a, _ in P.halfspaces for x in a)
        P._int_rows = tuple(
            (tuple(int(x) for x in a), b.numerator, b.denominator) for a, b in P.halfspaces
        )
    return P._int_rows


def _column_rows(P: Polytope, k: int = 0):
    """P's integer rows as bounds den*a_n*t <= c - <h, y> on x_n over a column y,
    h = den*a': (up, down, flat) lists of (h, c, den*|a_n|) by the sign of a_n.
    With k > 0, P is a closed fattening and the rows touching the first k
    coordinates are strict, den*<a, x> <= num - 1, as over integers."""
    up, down, flat = [], [], []
    for a, num, den in integer_rows(P):
        row = (tuple(den * x for x in a[:-1]), num - any(a[:k]), den * abs(a[-1]))
        (up if a[-1] > 0 else down if a[-1] < 0 else flat).append(row)
    return up, down, flat


def _line_ends(rows, z, D: int = 1, length: int = 1) -> list:
    """The sections {t : (y, t) meets :func:`_column_rows`' ``rows``} over the
    columns y = (z + j e)/D, j < ``length``, e the last unit vector, each as
    integers (lo_n, lo_d, hi_n, hi_d), lo_n/lo_d <= t <= hi_n/hi_d, or None
    when empty.

    A row (h, c, q) has the residual r = c D - <h, z> at the line's first
    column, and r steps by -h[-1] along the line: an up row bounds
    t <= r/(q D), a down row t >= -r/(q D), and a flat row (q = 0) holds when
    r >= 0.  Over the common denominator Q = lcm(q) of the up (down) rows
    each bound is the progression r Q/q, and the binding end is its least
    term.  A column that the flat rows admit, with no up or no down row,
    raises ``Unbounded`` naming the column."""

    def least(part):  # (Q, the least r Q/q over each column), None with no rows
        Q = lcm(*(q for _h, _c, q in part))
        terms = []
        for h, c, q in part:
            m = Q // q if q else 1
            r = (c * D - sum(map(mul, h, z))) * m
            s = -h[-1] * m if length > 1 else 0
            terms.append(range(r, r + s * length, s) if s else repeat(r, length))
        return Q, map(min, zip(*terms)) if terms else None

    (Qu, his), (Qd, los), (_Q, flats) = map(least, rows)
    admitted = repeat(True, length) if flats is None else map((0).__le__, flats)
    if his is None or los is None:
        for j, ok in enumerate(admitted):
            if ok:
                y = tuple(z[:-1]) + (z[-1] + j,) if z else ()
                raise Unbounded(f"vertical line section over {y}/{D} is unbounded")
        return [None] * length
    return [(-lo, Qd * D, hi, Qu * D) if ok and -lo * Qu <= hi * Qd else None
            for lo, hi, ok in zip(los, his, admitted)]


def vertical_section(P: Polytope, y) -> Interval | None:
    """The set {t : (y, t) in P} as a closed interval; None when empty.  With
    y = z/D over integers, :func:`_line_ends` picks the ends."""
    z, D = integer_row(vec(y))
    if len(z) != P.dim - 1:
        raise DimensionMismatch("section anchor has wrong length")
    ends = _line_ends(_column_rows(P), z, D)[0]
    if ends is None:
        return None
    lo_n, lo_d, hi_n, hi_d = ends
    return Interval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


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


def parametric_volume(rows, shifts, lo, hi, interior=None):
    """vol Q(t) for Q(t) = {x : <a_i, x> <= b_i + t c_i} as (coeffs, a, b): ascending
    coefficients of one polynomial, exact on the largest [a, b] inside [lo, hi]
    around the midpoint m on which Q keeps the combinatorial type of Q(m).

    One hull at m fixes the type.  Each vertex v moves on the line
    v + (t - m) d with A_act d = c_act over the rows tight at v (read off the
    hull's incidences), so the volume over the midpoint's boundary
    triangulation is a polynomial of degree <= dim (Lasserre, JOTA 1983),
    interpolated at dim + 1 nodes inside [a, b].  ``interior`` is an optional
    hint strictly inside Q(m).  When a vertex splits at m (its tight rows have
    no common path) the type holds at m alone and the result is (None, m, m).

    Integer arithmetic throughout: rows are scaled to integers (A, B, C),
    vertices are numerators over one denominator L, each path is one
    fraction-free solve d = D/delta, and node volumes are integer
    determinants over one denominator.  Every slack is affine in t and the
    type holds while all are >= 0.  With m = mu/2M, the slack of a row at a
    vertex is S/2ML and its rate P/delta, S = 2ML B + L mu C - 2M <A, V> and
    P = delta C - <A, D>, so it stays >= 0 for |t - m| <= delta S / (2ML |P|)
    on the side where it falls; a and b are the nearest such exits, compared
    by cross-multiplying.
    """
    lo, hi = frac(lo), frac(hi)
    m = (lo + hi) / 2
    rows = [(vec(a), frac(b), frac(c)) for (a, b), c in zip(rows, shifts)]
    dim = len(rows[0][0])
    Q = Polytope.from_halfspaces([(a, b + m * c) for a, b, c in rows], dim, interior)
    if Q is None or not Q.is_full_dimensional:
        raise DegenerateBody("parametric volume needs a full-dimensional body at the midpoint")
    pts, simplices = Q._tri
    ints = [integer_row(a + (b, c))[0] for a, b, c in rows]  # (A, B, C), positively scaled
    paths = []  # (D, delta): d = D / delta, delta > 0
    for act in Q._incidence:
        mat = [ints[i][:dim] + [ints[i][-1]] for i in act]
        pivots, delta, _ = _bareiss(mat)
        if dim in pivots:
            return None, m, m
        D = [0] * dim
        for r, c in enumerate(pivots):
            D[c] = mat[r][-1]
        if delta < 0:
            D, delta = [-x for x in D], -delta
        paths.append((D, delta))
    M = common_denominator((lo, hi))
    mu = lo.numerator * (M // lo.denominator) + hi.numerator * (M // hi.denominator)
    V, L = integer_points(pts)
    checks = [(r[:dim], 2 * M * L * r[dim] + L * mu * r[-1], r[-1]) for r in ints]
    left = right = None  # (delta S, |P|) of the nearest exit on each side of m
    for v, (D, delta) in zip(V, paths):
        for A, s0, C in checks:
            rate = delta * C - sum(map(mul, A, D))
            if rate:
                s = delta * (s0 - 2 * M * sum(map(mul, A, v)))
                if rate > 0 and (left is None or s * left[1] < left[0] * rate):
                    left = (s, rate)
                elif rate < 0 and (right is None or s * right[1] < right[0] * -rate):
                    right = (s, -rate)
    a = lo if left is None else max(lo, m - Fraction(left[0], 2 * M * L * left[1]))
    b = hi if right is None else min(hi, m + Fraction(right[0], 2 * M * L * right[1]))
    # x_k(t_j) = V_k / L + tau_j D_k / delta_k with tau_j = t_j - m = T_j / q,
    # all over the one denominator E = L Delta q
    nodes = [a + (b - a) * Fraction(j + 1, dim + 2) for j in range(dim + 1)]
    T, q = integer_row([t - m for t in nodes])
    Delta = lcm(*(delta for _D, delta in paths))
    base = [[x * Delta * q for x in v] for v in V]
    step = [[x * (L * Delta // delta) for x in D] for D, delta in paths]
    N, E = len(pts), L * Delta * q
    vals = []
    for w in T:
        X = [[b0 + w * s for b0, s in zip(bv, sv)] for bv, sv in zip(base, step)]
        cen = [sum(col) for col in zip(*X)]
        vals.append(_cone_volume([[N * x for x in p] for p in X], simplices, cen, N * E))
    return _lagrange_coeffs(nodes, vals), a, b


def _panel_sweep(piece, lo, hi) -> list[tuple[Fraction, Fraction, list]]:
    """[lo, hi] as sorted pieces (a, b, coeffs), one per maximal interval of one
    combinatorial type, for ``piece(g0, g1)`` a ``parametric_volume`` call on
    the gap [g0, g1].  Each call covers the largest piece around the gap's
    midpoint and leaves at most two smaller gaps, swept the same way.
    """
    pieces = []
    gaps = [(frac(lo), frac(hi))] if lo < hi else []
    while gaps:
        g0, g1 = gaps.pop()
        coeffs, a, b = piece(g0, g1)
        if a < b:
            pieces.append((a, b, coeffs))
        gaps += [(x, y) for x, y in ((g0, a), (b, g1)) if x < y]
    return sorted(pieces, key=lambda p: p[0])


def projection_support(P: Polytope, u) -> Fraction:
    """h_ΠK(u) = ½ Σ_F w_F |<a_F, u>| exactly, for any rational vector u: one
    integer sum over the integer facet weights, and one ``Fraction``."""
    sums, den = _integer_weights(P)
    U, L = integer_row(vec(u))
    total = sum(g * abs(sum(map(mul, a, U))) for a, g in sums)
    return Fraction(total, 2 * den * L)


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
    """Anchor y* of a longest vertical section, lexicographically smallest:
    :func:`top_face_anchor` of P's Steiner symmetral."""
    from .steiner import steiner_symmetrize

    return top_face_anchor(steiner_symmetrize(P))


def top_face_anchor(S: Polytope) -> Vec:
    """The lexicographically least y' among the vertices (y', z) of the Steiner
    symmetral S at its top height, with no LP.

    The slice of S at height t is {y : ell(y) >= 2t}, so S's top face is the
    set of longest sections' anchors at the top height; its lex-min point is
    one of its vertices, which are S's vertices at that height.
    """
    top = max(v[-1] for v in S.vertices)
    return min(v[:-1] for v in S.vertices if v[-1] == top)


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
