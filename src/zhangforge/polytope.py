"""Exact rational convex polytopes in ambient dimension 1..4.

A :class:`Polytope` carries both representations at all times: lexicographically
sorted extreme points and canonical halfspaces (primitive integer normals,
deduplicated, sorted).  Both are kept as integer construction data, the
vertices as numerators over their least common denominator and the rows as
(a, num, den), with the boundary triangulation's points over their own least
common denominator and the interior point as integers (Z, D) in lowest
terms; the ``Fraction`` views ``vertices`` and ``halfspaces`` are built on
first read, and the integer readers (volumes, facet weights, bounding boxes,
column tables, section distributions, fattenings, images, interior hints)
never clear them back.  The interior point is read off the vertices alone
(``_integer_interior``), so every construction of one body has the same.
Lower-dimensional sets are legal values (projections, slices, touching
intersections): their halfspace list contains the affine-hull equalities as
opposite halfspace pairs and their full-dimensional volume is 0.

Each full-dimensional construction is one run of the exact hull engine, or
none where the faces follow from a parent's: one integer map,
``Polytope._moved``, builds the translates and the integer dilates lam P + t
in any affine dimension, ``transform`` maps vertices, rows and triangulation
through an invertible A, and ``cube_sum`` adds a cube one segment at a time.
``from_points`` hulls the points.  ``from_int_rows`` hulls the polar dual of
integer rows about an integer interior hint (``from_halfspaces`` clears
rational rows and a rational hint for it): the dual hull's facets
are the vertices, its extreme points the irredundant rows, and the dual
points on each facet plane the rows tight at that vertex.  Those incidences
give the boundary triangulation (pulling, no arithmetic) and
``parametric_volume`` its vertex paths, along the rows of an overlap
K cap (r theta + K), r >= 0, one per row of K (``_overlap_rows``).  Flat
sets are built over integers by one rule: the points are hulled in the
pivot columns of their affine hull, whose integer equality normals
(``_null_vectors``) join a boundary simplex's edges in the cofactor normal
of each facet.  A halfspace set with
empty interior finds its implicit equalities by one LP per row, solves
its rows over x0 + N z for the same null vectors N, and hulls the vertices
so found by that rule.  Volumes of boundary
triangulations, from any construction and in ``parametric_volume``, are
sums of integer determinants, and facet weights are sums of their
simplices' integer cofactor normals, so Cauchy's formula
(``projection_support``) is one integer sum.  The longest-section anchor is
read off the top face of the Steiner symmetral (``top_face_anchor``), with
no LP.

Each quantity derived from a body is an entry of its one memo (:class:`Memo`),
built on its first read.  One table, ``_CARRY``, declares which entries a
translate and an integer scale take over and how; the image rebuilds the rest.
The dilate lam P is itself an entry, one image per lam, and takes over on
each read the carried entries that P has gained since it was built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import gcd, lcm
from operator import mul

from .errors import DegenerateBody, DimensionMismatch, FrozenRecord, Unbounded
from .hull import _normal, convex_hull
from .linalg import (
    Vec,
    _bareiss,
    _null_vectors,
    affine_basis,
    common_denominator,
    det_int,
    frac,
    integer_points,
    integer_row,
    mat_inv,
    primitive_int,
    vec,
)
from .lp import lp_solve, max_slack_point
from .verdict import MeasureValue

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

_set = object.__setattr__


class Interval(FrozenRecord):
    """Closed rational segment [lo, hi] of a section parameter."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("interval with lo > hi")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


class Direction(FrozenRecord):
    """A nonzero rational direction."""

    __slots__ = _fields = ("raw",)

    def __init__(self, raw: Vec):
        raw = vec(raw)
        if all(x == 0 for x in raw):
            raise ValueError("zero direction")
        _set(self, "raw", raw)

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

class Memo:
    """One keyed memo of derived quantities, ``_memo``, read through ``memo``."""

    __slots__ = ("_memo",)

    def memo(self, key, build):
        """The entry ``key``, built by ``build()`` on its first read and kept."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


class Polytope(Memo):
    """Immutable rational polytope with vertex and halfspace representations,
    kept as integers: the vertices ``_V`` over ``_L``, the rows ``_rows``,
    the interior point ``_interior`` = (Z, D) and a full-dimensional body's
    triangulation ``_tri`` = (points, their denominator, simplices), whose
    points are ``_V`` itself when they are the vertices.  Its memo keys: "volume", "facet_weights", "int_weights",
    "symmetral", ("fattening", k), ("columns", k) (the run table of
    ``lattice._run_table``) and ("scaled", lam)."""

    __slots__ = ("dim", "affine_dim", "_V", "_L", "_rows", "_interior", "_tri", "_incidence",
                 "_vertices", "_halfspaces")

    def __init__(self, dim, affine_dim, V, L, rows, interior, tri):
        self.dim = dim
        self.affine_dim = affine_dim
        self._V = V
        self._L = L
        self._rows = rows
        self._interior = interior
        self._tri = tri
        self._incidence = None  # per vertex, the input rows of from_int_rows tight there
        self._vertices = self._halfspaces = None
        self._memo = {}

    @property
    def vertices(self) -> tuple[Vec, ...]:
        if self._vertices is None:
            L = self._L
            self._vertices = tuple(tuple(Fraction(x, L) for x in v) for v in self._V)
        return self._vertices

    @property
    def halfspaces(self) -> tuple[tuple[Vec, Fraction], ...]:
        if self._halfspaces is None:
            self._halfspaces = tuple((tuple(map(Fraction, a)), Fraction(num, den))
                                     for a, num, den in self._rows)
        return self._halfspaces

    def _carry(self, image: "Polytope", maps, x) -> "Polytope":
        """``image`` with the memo entries of P that it lacks carried by their
        first rule in ``maps``."""
        for key, rules in _CARRY.items():
            rule = next((rules[m] for m in maps if m in rules), None)
            if rule is not None and key in self._memo and key not in image._memo:
                image._memo[key] = rule(self._memo[key], x, self.dim)
        return image

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
        try:
            hull = convex_hull(uniq)
        except DegenerateBody:  # the points span a proper affine subspace
            return Polytope._degenerate_from_points(*integer_points(uniq), dim)
        den = hull.den
        V, L = _least(tuple(hull.points[i] for i in hull.vertex_indices), den)
        T = V if len(V) == len(uniq) else tuple(hull.points)
        rows = sorted((a, B // g, den // g) for a, B in hull.planes for g in (gcd(B, den),))
        P = Polytope(dim, dim, V, L, tuple(rows), _integer_interior(V, L),
                     (T, den, tuple(hull.simplices)))
        P._vertices = tuple(uniq[i] for i in hull.vertex_indices)
        return P

    @staticmethod
    def _point(p: Vec, dim: int) -> "Polytope":
        rows = []
        for i in range(dim):
            e = tuple(int(j == i) for j in range(dim))
            rows.append((e, p[i].numerator, p[i].denominator))
            rows.append((tuple(-x for x in e), -p[i].numerator, p[i].denominator))
        (V,), L = integer_points([p])
        return Polytope(dim, 0, (V,), L, tuple(sorted(rows)), (V, L), None)

    @staticmethod
    def _degenerate_from_points(X, L: int, dim: int) -> "Polytope":
        """The hull of the sorted distinct points X/L, X integer, of affine
        dimension 0 < r < dim, by one hull in r dimensions.

        :func:`_null_vectors` of the differences X_i - X_0 gives their r
        pivot columns and the normals of the affine hull's equalities.  The
        points are hulled in the pivot columns, which the affine hull maps
        onto one to one, so the hull's extreme points and boundary simplices
        are the points' own.  A facet's normal is the cofactor vector
        (``_normal``) of the edges of one of its boundary simplices together
        with the equality normals, made primitive and pointed away from the
        centroid of the points, a point of the relative interior."""
        x0 = X[0]
        pivots, normals = _null_vectors([[x - y for x, y in zip(p, x0)] for p in X[1:]], dim)
        hull = convex_hull([tuple(p[c] for c in pivots) for p in X])
        centroid = [sum(col) for col in zip(*X)]
        planes = set()  # (a, B): <a, x> <= B/L
        for s in hull.simplices:
            base = X[s[0]]
            a = primitive_int(_normal([[x - y for x, y in zip(X[i], base)] for i in s[1:]]
                                      + normals))
            b = sum(map(mul, a, base))
            if sum(map(mul, a, centroid)) > len(X) * b:
                a, b = tuple(-x for x in a), -b
            planes.add((a, b))
        for a in normals:
            b = sum(map(mul, a, x0))
            planes.update(((a, b), (tuple(-x for x in a), -b)))
        rows = sorted((a, b // g, L // g) for a, b in planes for g in (gcd(b, L),))
        V, LV = _least(tuple(X[i] for i in hull.vertex_indices), L)
        return Polytope(dim, len(pivots), V, LV, tuple(rows), _integer_interior(V, LV), None)

    @staticmethod
    def from_halfspaces(halfspaces, dim: int, interior=None) -> "Polytope | None":
        """Polytope from rational rows <a,x> <= b: :meth:`from_int_rows` of
        the rows <A, x> <= b L for a = A/L, hinted by the rational point
        ``interior`` cleared to integers."""
        rows = []
        for a, b in halfspaces:
            (A, L), b = integer_row(vec(a)), frac(b)
            rows.append((A, b.numerator * L, b.denominator))
        if interior is not None:
            interior = integer_row(vec(interior))
        return Polytope.from_int_rows(rows, dim, interior)

    @staticmethod
    def from_int_rows(rows, dim: int, interior=None) -> "Polytope | None":
        """Polytope from integer rows (a, num, den), <a, x> <= num/den with
        den > 0; None when infeasible; Unbounded if unbounded.  ``interior``
        is an optional hint (z, D), integers with D > 0: when z/D is strictly
        inside it replaces the max-slack LP.

        One hull, over integers.  Each row is made primitive, and rows with
        one normal keep the least offset.  With x0 = z/D strictly inside,
        row i is <a_i, x - x0> <= s_i/(den_i D), so the dual points
        a_i den_i / s_i, scaled by the lcm of their denominators, are
        integer.  A dual facet (u, c) is the vertex x0 + (lcm/D) u/c, read
        off the dual hull's integer planes (U, C), and the dual points on its
        plane are the rows tight there; the dual hull's extreme points are
        the facets.  The boundary triangulation is the pulling triangulation
        of those incidences.
        """
        canon: dict[tuple[int, ...], list] = {}  # normal -> [num, den, input rows]
        for i, (a, num, den) in enumerate(rows):
            g = gcd(*a)
            if g == 0:
                if num < 0:
                    return None
                continue
            key = tuple(x // g for x in a)
            den *= g  # <key, x> <= num/den
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
            z, D = interior
            if not all(den * sum(map(mul, a, z)) < num * D for a, num, den in rows):
                interior = None
        if interior is None:
            t, x0 = max_slack_point([list(a) for a, _, _ in rows],
                                    [Fraction(num, den) for _, num, den in rows])
            if t < 0:
                return None
            if t == 0:
                return Polytope._degenerate_from_halfspaces(rows, dim, x0)
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
        except DegenerateBody as exc:
            raise Unbounded("halfspace intersection is unbounded") from exc
        planes = dual_hull.planes  # Y is integer, so the planes are over den 1
        if any(C <= 0 for _U, C in planes):
            raise Unbounded("halfspace intersection is unbounded")
        # the vertices x0 + (lam/D) U/C = (z Lc + lam U Lc/C) / (D Lc) sort like U Lc/C
        Lc = lcm(*(C for _U, C in planes))
        planes = sorted(planes, key=lambda pl: tuple(u * (Lc // pl[1]) for u in pl[0]))
        V, L = _least(tuple(tuple(zk * Lc + lam * uk * (Lc // C) for zk, uk in zip(z, U))
                            for U, C in planes), D * Lc)
        facet_rows = dual_hull.vertex_indices
        masks = dict.fromkeys(facet_rows, 0)  # facet row -> bitmask of its vertices
        incidence = []
        for pos, (U, C) in enumerate(planes):
            if dim == 3:
                u0, u1, u2 = U
                tight = [j for j, (y0, y1, y2) in enumerate(Y) if u0 * y0 + u1 * y1 + u2 * y2 == C]
            else:
                tight = [j for j, y in enumerate(Y) if sum(map(mul, U, y)) == C]
            for j in tight:
                if j in masks:
                    masks[j] |= 1 << pos
            incidence.append(tuple(i for j in tight for i in canon[keys[j]][2]))
        P = Polytope(dim, dim, V, L, tuple(rows[j] for j in facet_rows),
                     _integer_interior(V, L),
                     (V, L, _pulling_triangulation(list(masks.values()), dim)))
        P._incidence = tuple(incidence)
        return P

    @staticmethod
    def _degenerate_from_halfspaces(rows, dim, x0) -> "Polytope":
        """The set of the canonical integer rows (a, num, den) whose max-slack
        point x0 has slack 0.  The rows that are tight all over it, one LP
        each, are its implicit equalities; with N their
        :func:`_null_vectors`, the set is x0 + N z for z in the set of the
        rows <a N, z> <= num/den - <a, x0>, which is full-dimensional, and
        its vertices are hulled in the affine hull."""
        A = [list(a) for a, _num, _den in rows]
        b = [Fraction(num, den) for _a, num, den in rows]
        eqs = [a for a, bi in zip(A, b) if -lp_solve([-x for x in a], A, b).value == bi]
        _pivots, N = _null_vectors(eqs, dim)
        if not N:
            return Polytope._point(x0, dim)
        X0, D = integer_row(x0)
        red = []
        for a, num, den in rows:
            az = [sum(map(mul, a, v)) for v in N]
            if any(az):
                red.append((az, num * D - den * sum(map(mul, a, X0)), den * D))
        sub = Polytope.from_int_rows(red, len(N))
        X = sorted(tuple(x * sub._L + D * sum(map(mul, z, col)) for x, col in zip(X0, zip(*N)))
                   for z in sub._V)
        return Polytope._degenerate_from_points(X, D * sub._L, dim)

    # -- basic queries -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self._L == other._L
            and self._V == other._V
        )

    def __hash__(self):
        return hash((self.dim, self._L, self._V))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, affine_dim={self.affine_dim}, nverts={len(self._V)})"

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def contains(self, x, strict: bool = False) -> bool:
        """Whether x lies in P (strictly inside with ``strict``), over integers."""
        X, D = integer_row(vec(x))
        if len(X) != self.dim:
            raise DimensionMismatch("point has wrong length")
        holds = int.__lt__ if strict else int.__le__
        return all(holds(den * sum(map(mul, a, X)), num * D) for a, num, den in self._rows)

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        """Per coordinate (min, max) over the vertices, compared as integer
        numerators over one denominator."""
        L = self._L
        return [(Fraction(min(c), L), Fraction(max(c), L)) for c in zip(*self._V)]

    def volume_fraction(self) -> Fraction:
        """Full-dimensional volume as an exact rational (0 when degenerate)."""
        def build():
            if not self.is_full_dimensional:
                return _ZERO
            points, simplices, center, M = _centred(self)
            return Fraction(_cone_sum(points, simplices, center),
                            math.factorial(self.dim) * M**self.dim)

        return self.memo("volume", build)

    def facet_weights(self):
        """Per-facet (normal a, offset b, vol_{n-1}(F)/||a||) with the weight exact,
        one ``Fraction`` per facet from :func:`_integer_weights`."""
        sums, den = _integer_weights(self)
        return self.memo("facet_weights", lambda: tuple(
            (a, b, Fraction(g, den)) for (a, b), (_a, g) in zip(self.halfspaces, sums)))

    def translated(self, t) -> "Polytope":
        """P + t, with no hull, and P itself for t = 0 (:meth:`_moved`).  The
        memo entries that ``_CARRY`` carries under a translate are taken
        over, and those it carries under a horizontal one (t_n = 0) when t is
        horizontal."""
        t = vec(t)
        if len(t) != self.dim:
            raise DimensionMismatch(f"translation of length {len(t)}, expected {self.dim}")
        if not any(t):
            return self
        return self._carry(self._moved(1, t),
                           ("translate", "horizontal") if t[-1] == 0 else ("translate",), t)

    def scaled(self, lam: int) -> "Polytope":
        """lam P for an integer lam > 0 (:meth:`_moved`), P's memo entry
        ("scaled", lam), so each dilate is one object.  On every read the
        entries that ``_CARRY`` carries under a scale are taken over, scaled,
        when P holds them and the image does not, so an image built before
        P's memo was filled still shares P's volume and symmetral."""
        return self._carry(self.memo(("scaled", lam), lambda: self._moved(lam, (0,) * self.dim)),
                           ("scale",), lam)

    def _moved(self, lam: int, t) -> "Polytope":
        """lam P + t for an integer lam > 0 and a rational t = S/Ls, in any
        affine dimension, with no hull and no memo entry.  Over integers the
        points X/L (vertices, triangulation, interior point) become
        (lam X M/L + S M/Ls)/M, M = lcm(L/g, Ls) after g = gcd(lam, L), in
        lowest terms (already so when Ls = 1); the map keeps their order,
        and each row keeps its normal, <a, x> <= num/den becoming
        <a, y> <= (lam num Ls + den <a, S>)/(den Ls).  It stays beside
        :func:`transform`'s general map, which costs several times as much
        per image on the scalar maps a sweep makes."""
        S, Ls = integer_row(t)

        def move(X, L):
            g = gcd(lam, L)
            L //= g
            M = lcm(L, Ls)
            k, m = lam // g * (M // L), M // Ls
            Y = tuple(tuple(x * k + s * m for x, s in zip(p, S)) for p in X)
            return (Y, M) if Ls == 1 else _least(Y, M)

        V, L = move(self._V, self._L)
        rows = []
        for a, num, den in self._rows:
            num, den = lam * num * Ls + den * sum(map(mul, a, S)), den * Ls
            g = gcd(num, den)
            rows.append((a, num // g, den // g))
        tri = None
        if self._tri is not None:
            X, LX, simplices = self._tri
            tri = ((V, L) if X is self._V else move(X, LX)) + (simplices,)
        Z, D = self._interior
        (Z,), D = move((Z,), D)
        return Polytope(self.dim, self.affine_dim, V, L, tuple(rows), (Z, D), tri)


# How a memo entry of P carries to an image, keyed like ``Polytope.memo``: per
# map, the rule (entry, t or lam, n) -> the image's entry.  "translate" holds
# for any t and "horizontal" for t_n = 0 only; the Steiner symmetral commutes
# with a horizontal translate and with x -> lam x.  An entry with no rule for
# the map is rebuilt on the image when it is read.
_CARRY = {
    "volume": {"translate": lambda v, _t, _n: v, "scale": lambda v, lam, n: lam**n * v},
    "symmetral": {"horizontal": lambda S, t, _n: S.translated(t),
                  "scale": lambda S, lam, _n: S.scaled(lam)},
}


def _least(X, L: int):
    """The integer points X/L as numerators over their least common
    denominator."""
    g = gcd(L, *chain.from_iterable(X))
    return (X, L) if g == 1 else (tuple(tuple(x // g for x in p) for p in X), L // g)


def _integer_interior(V, L: int):
    """The interior point of the sorted vertices V/L, V integer, as integers
    (Z, D) in lowest terms: the centroid of all the vertices when they span
    at most a plane (the two ends of a segment), else of the first affinely
    independent ones.  It is a point of the relative interior, and ``lam P
    + t`` maps it to the image's."""
    if len(V[0]) > 2:
        basis = affine_basis(V)
        if len(basis) > 3:
            V = [V[i] for i in basis]
    (Z,), D = _least((tuple(map(sum, zip(*V))),), L * len(V))
    return Z, D


def _integer_weights(P: Polytope):
    """((a, g) per halfspace, den), P's memo entry "int_weights": the facet
    with primitive integer normal a weighs g / den.

    Read off the boundary triangulation, over integers: with the points over
    one denominator L, a boundary simplex's cofactor normal N has length
    (n-1)! L^{n-1} vol_{n-1}, and N = g a for the outward primitive normal a
    of its facet, so each facet's g is the sum of its simplices' g, and
    den = (n-1)! L^{n-1}.
    """
    def build():
        if not P.is_full_dimensional:
            raise DegenerateBody("facet weights need a full-dimensional polytope")
        n = P.dim
        ipts, simplices, center, L = _centred(P)
        sums: dict[tuple[int, ...], int] = {}
        for s in simplices:
            base = ipts[s[0]]
            edges = [[x - y for x, y in zip(ipts[i], base)] for i in s[1:]]
            N = _normal(edges) if n > 1 else [1]
            g = gcd(*N)
            if sum(x * (y - c) for x, y, c in zip(N, base, center)) < 0:
                g = -g
            a = tuple(x // g for x in N)
            sums[a] = sums.get(a, 0) + abs(g)
        return (tuple((a, sums[a]) for a, _num, _den in P._rows),
                math.factorial(n - 1) * L ** (n - 1))

    return P.memo("int_weights", build)


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


def _cone_sum(points, simplices, center) -> int:
    """d! den^d times the volume of the cones from ``center`` over the
    boundary ``simplices``, for integer ``points`` and ``center`` over one
    common denominator den: sum |det(p_i - center)|."""
    return sum(abs(det_int([[x - c for x, c in zip(points[i], center)] for i in s]))
               for s in simplices)


def _centred(P: Polytope):
    """P's boundary triangulation and interior point over one denominator M,
    as :func:`_cone_sum` reads them: (points, simplices, centre, M)."""
    X, LX, simplices = P._tri
    Z, Lz = P._interior
    M = lcm(LX, Lz)
    if M != LX:
        X = [[x * (M // LX) for x in p] for p in X]
    return X, simplices, [c * (M // Lz) for c in Z], M


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
    return Polytope.from_int_rows(integer_rows(P) + integer_rows(Q), P.dim)


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
    shift = vec(b)
    if len(rows) != n or len(shift) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("matrix or shift shape does not match polytope dimension")
    inv = mat_inv(rows) if P.is_full_dimensional else None
    if inv is None:
        X, L = _affine_image(rows, shift, P._V, P._L)
        return Polytope.from_points([tuple(Fraction(x, L) for x in p) for p in X], n)
    T, LT, simplices = P._tri
    X, LX = _affine_image(rows, shift, T, LT)
    V, L = (X, LX) if T is P._V else _affine_image(rows, shift, P._V, P._L)
    V = tuple(sorted(V))
    # A^{-T} = J^T / dJ and b = B / db over integers; a row (a, num/den) maps to
    # the direction u = J^T a with offset (dJ num/den + <u, B>/db) / dJ
    J, dJ = integer_points(inv)
    B, db = integer_row(shift)
    out = []
    for a, num, den in integer_rows(P):
        u = [sum(J[i][j] * a[i] for i in range(n)) for j in range(n)]
        g = gcd(*u)
        num, den = dJ * db * num + den * sum(map(mul, u, B)), g * den * db
        h = gcd(num, den)
        out.append((tuple(x // g for x in u), num // h, den // h))
    return Polytope(n, n, V, L, tuple(sorted(out)), _integer_interior(V, L), (X, LX, simplices))


def _affine_image(rows, shift, X, L: int):
    """The points X/L, X integer, under x -> A x + b, as numerators over
    their least common denominator: with A = M/dA and b = B/db,
    A x + b = (db M X + dA L B) / (dA L db)."""
    M, dA = integer_points(rows)
    B, db = integer_row(shift)
    return _least(tuple(tuple(db * sum(map(mul, r, x)) + dA * L * t for r, t in zip(M, B))
                        for x in X), dA * L * db)


def cube_sum(P: Polytope, k: int) -> Polytope:
    """P + [-1,1]^k x {0}^{n-k} for a full-dimensional P, with no hull.

    The segments [-e_i, e_i], i < k, are added one at a time by
    :func:`_add_segment` (Fukuda, J. Symbolic Comput. 38, 2004), over
    integers with the vertices over one denominator L.  Each facet carries
    its vertex set as a bitmask from step to step; the final masks give the
    pulling triangulation, as in ``from_int_rows``.
    """
    n = P.dim
    V, L = P._V, P._L
    rows = list(P._rows)
    masks = [sum(1 << j for j, v in enumerate(V) if den * sum(map(mul, a, v)) == num * L)
             for a, num, den in rows]
    for i in range(k):
        V, rows, masks = _add_segment(V, rows, masks, i, L)
    order = sorted(range(len(V)), key=V.__getitem__)
    where = {j: pos for pos, j in enumerate(order)}
    V = tuple(V[j] for j in order)
    facets = sorted(zip(rows, masks))
    return Polytope(n, n, V, L, tuple(r for r, _m in facets), _integer_interior(V, L),
                    (V, L, _pulling_triangulation(
                        [sum(1 << where[j] for j in _bits(m)) for _r, m in facets], n)))


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
    """P's rows (a, num, den), <a, x> <= num/den with a primitive and
    den > 0, sorted: its construction data, of which ``halfspaces`` is the
    rational view."""
    return P._rows


def _column_rows(P: Polytope, k: int = 0):
    """:func:`_column_rows_of` P's integer rows, set up once per body and k."""
    return _column_rows_of(integer_rows(P), k)


def _column_rows_of(rows, k: int = 0):
    """Integer rows (a, num, den), <a, x> <= num/den with den > 0, as bounds
    on x_n along the lines of columns y = (z + j e)/D, e the last unit vector.

    A row den*<a', y> + den*a_n*t <= c, with c = num (or num - 1 where a
    touches the first k coordinates: with k > 0, P is a closed fattening and
    those rows are strict, as over integers), is kept as (h, c, s) scaled by
    m = Q/(den*|a_n|), Q the lcm of den*|a_n| over the rows with the same
    sign of a_n (m = 1 for a flat row, a_n = 0): h = m*den*a', c = m*c and
    the step s = -h[-1].  Its residual at column j is then r + s j with
    r = c D - <h, z>; an up row (a_n > 0) bounds t <= (r + s j)/(Qu D), a
    down row t >= -(r + s j)/(Qd D), and a flat row holds when r + s j >= 0.
    Returns ((Qu, up), (Qd, down), flat)."""
    Qu = Qd = 1
    for a, _num, den in rows:
        if a[-1] > 0:
            Qu = lcm(Qu, den * a[-1])
        elif a[-1] < 0:
            Qd = lcm(Qd, -den * a[-1])
    up, down, flat = [], [], []
    for a, num, den in rows:
        if a[-1] > 0:
            f, part = Qu // a[-1], up
        elif a[-1] < 0:
            f, part = Qd // -a[-1], down
        else:
            f, part = den, flat
        if k and any(a[:k]):
            num -= 1
        h = a[:-1] if f == 1 else tuple([f * x for x in a[:-1]])
        part.append((h, num * (f // den), -h[-1] if h else 0))
    return (Qu, up), (Qd, down), flat


def _envelope(progs, a: int, b: int) -> list:
    """The lower envelope of the progressions r + s j, (r, s) in ``progs``,
    over a <= j < b, as pieces (j, r, s), each from its first column j.  It
    is concave, so each piece's step is below the one before, and the next
    piece starts at the least column where a progression of lower step comes
    down to the current one: ceil((r' - r)/(s - s')), by exact floor
    division."""
    if len(progs) == 1:
        return [(a, *progs[0])]
    pieces = []
    j = a
    while j < b:
        _v, s, r = min([(ri + si * j, si, ri) for ri, si in progs])
        pieces.append((j, r, s))
        j = min([-((r - ri) // (s - si)) for ri, si in progs if si < s], default=b)
    return pieces


def _line_runs(rows, z, D: int, length: int) -> list:
    """The non-empty sections over the columns (z + j e)/D, j < ``length``, of
    :func:`_column_rows`' ``rows``, as runs (j0, j1, lo, dlo, hi, dhi): for
    j0 <= j < j1 the section is lo_n/(Qd D) <= t <= hi_n/(Qu D) with
    lo_n = lo + dlo (j - j0) and hi_n = hi + dhi (j - j0).

    The flat rows admit one run of columns a <= j < b, cut by floor
    division.  Over it the up and the down ends are the lower envelopes
    (:func:`_envelope`) of the residual progressions of the up and of the
    down rows; on each joint piece, with the up line (ru, su) and the down
    line (rd, sd), the section is non-empty where
    (ru + su j) Qd + (rd + sd j) Qu >= 0, linear in j, so its entries form
    one run.  A column that the flat rows admit, with no up or no down row,
    raises ``Unbounded`` naming the first such column."""
    (Qu, up), (Qd, down), flat = rows
    a, b = 0, length
    for h, c, s in flat:
        r = c * D - sum(map(mul, h, z))
        if s > 0:
            a = max(a, -(r // s))
        elif s < 0:
            b = min(b, r // -s + 1)
        elif r < 0:
            return []
    if a >= b:
        return []
    if not up or not down:
        y = tuple(z[:-1]) + (z[-1] + a,) if z else ()
        raise Unbounded(f"vertical line section over {y}/{D} is unbounded")
    his = _envelope([(c * D - sum(map(mul, h, z)), s) for h, c, s in up], a, b)
    los = _envelope([(c * D - sum(map(mul, h, z)), s) for h, c, s in down], a, b)
    his.append((b,))
    los.append((b,))
    runs = []
    iu = idn = 0
    j = a
    while j < b:
        _j, ru, su = his[iu]
        _j, rd, sd = los[idn]
        eu, ed = his[iu + 1][0], los[idn + 1][0]
        e = min(eu, ed)
        A, B = ru * Qd + rd * Qu, su * Qd + sd * Qu
        j0, j1 = j, e
        if B > 0:
            j0 = max(j, -(A // B))
        elif B < 0:
            j1 = min(e, A // -B + 1)
        elif A < 0:
            j1 = j
        if j0 < j1:
            runs.append((j0, j1, -(rd + sd * j0), -sd, ru + su * j0, su))
        j = e
        iu += eu == e
        idn += ed == e
    return runs


def _run_ends(run, lo_d: int, hi_d: int):
    """The ends (lo_n, lo_d, hi_n, hi_d) over the columns of a run of
    :func:`_line_runs`, zipped from its progressions."""
    j0, j1, lo, dlo, hi, dhi = run
    n = j1 - j0
    return zip(range(lo, lo + dlo * n, dlo) if dlo else repeat(lo, n), repeat(lo_d),
               range(hi, hi + dhi * n, dhi) if dhi else repeat(hi, n), repeat(hi_d))


def _line_ends(rows, z, D: int = 1, length: int = 1) -> list:
    """The sections {t : (y, t) meets :func:`_column_rows`' ``rows``} over the
    columns y = (z + j e)/D, j < ``length``, e the last unit vector, each as
    integers (lo_n, Qd D, hi_n, Qu D), lo_n/(Qd D) <= t <= hi_n/(Qu D), or
    None when empty: the runs of :func:`_line_runs` expanded per column."""
    (Qu, _up), (Qd, _down), _flat = rows
    ends = [None] * length
    for run in _line_runs(rows, z, D, length):
        ends[run[0]:run[1]] = _run_ends(run, Qd * D, Qu * D)
    return ends


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
    """Slice {y : (y, r) in P}, identified with the first n-1 coordinates:
    the rows <a', y> <= num/den - a_n r over integers."""
    r = frac(r)
    q, p = r.denominator, r.numerator
    return Polytope.from_int_rows([(a[:-1], num * q - den * a[-1] * p, den * q)
                                   for a, num, den in integer_rows(P)], P.dim - 1)


def _overlap_rows(P: Polytope, theta: Direction) -> list[list[int]]:
    """Integer rows (A, B, C), as lists, one per row (a, num, den) of K, with
    K cap (r theta.raw + K) = {x : <A, x> <= B + r C} for r >= 0.  Both x and
    x - r theta.raw are in K, so <a, x> <= num/den + r min(0, s),
    s = <a, theta.raw>: K's own row (den a, num, 0) where s >= 0, the shifted
    one (den Lw a, num Lw, den <a, W>), theta.raw = W/Lw, where s < 0."""
    if theta.dim != P.dim:
        raise DimensionMismatch("direction and body dimensions differ")
    W, Lw = integer_row(theta.raw)
    rows = []
    for a, num, den in integer_rows(P):
        s = sum(map(mul, a, W))
        m = Lw if s < 0 else 1
        rows.append([den * m * x for x in a] + [num * m, den * min(s, 0)])
    return rows


def _rows_at(rows, r) -> list:
    """The integer rows (a, num, den) of K cap (r theta.raw + K) at a rational
    r = p/q >= 0, from its ``_overlap_rows`` (A, B, C): (A, B q + p C, q)."""
    return [(A[:-2], A[-2] * r.denominator + r.numerator * A[-1], r.denominator) for A in rows]


def parametric_volume(rows, lo, hi, interior=None):
    """vol Q(t) for Q(t) = {x : <A_i, x> <= B_i + t C_i}, given by integer
    rows (A, B, C) as lists, as (coeffs, a, b): ascending coefficients of one
    polynomial, exact on the largest [a, b] inside [lo, hi] around the
    midpoint m on which Q keeps the combinatorial type of Q(m).

    One hull at m fixes the type.  Each vertex v moves on the line
    v + (t - m) d with A_act d = C_act over the rows tight at v (read off the
    hull's incidences), so the volume over the midpoint's boundary
    triangulation is a polynomial of degree <= dim (Lasserre, JOTA 1983),
    interpolated at dim + 1 nodes inside [a, b].  ``interior`` is an optional
    integer hint (z, D) with z/D strictly inside Q(m).  When a vertex splits at m (its tight rows have
    no common path) the type holds at m alone and the result is (None, m, m).

    Integer arithmetic throughout: the midpoint body's rows are integer,
    vertices are numerators over one denominator L, each path is one
    fraction-free solve d = D/delta, node volumes are integer determinants
    over one denominator, and the coefficients are one fraction-free solve
    of the Vandermonde system at the nodes.  Every slack is affine in t and the
    type holds while all are >= 0.  With m = mu/2M, the slack of a row at a
    vertex is S/2ML and its rate P/delta, S = 2ML B + L mu C - 2M <A, V> and
    P = delta C - <A, D>, so it stays >= 0 for |t - m| <= delta S / (2ML |P|)
    on the side where it falls; a and b are the nearest such exits, compared
    by cross-multiplying.
    """
    lo, hi = frac(lo), frac(hi)
    m = (lo + hi) / 2
    dim = len(rows[0]) - 2
    M = common_denominator((lo, hi))
    mu = lo.numerator * (M // lo.denominator) + hi.numerator * (M // hi.denominator)
    # the midpoint body <A, x> <= B + m C, m = mu/2M
    Q = Polytope.from_int_rows([(r[:dim], 2 * M * r[dim] + mu * r[-1], 2 * M) for r in rows],
                               dim, interior)
    if Q is None or not Q.is_full_dimensional:
        raise DegenerateBody("parametric volume needs a full-dimensional body at the midpoint")
    V, L, simplices = Q._tri
    paths = []  # (D, delta): d = D / delta, delta > 0
    for act in Q._incidence:
        mat = [rows[i][:dim] + [rows[i][-1]] for i in act]
        pivots, delta, _ = _bareiss(mat)
        if dim in pivots:
            return None, m, m
        D = [0] * dim
        for r, c in enumerate(pivots):
            D[c] = mat[r][-1]
        if delta < 0:
            D, delta = [-x for x in D], -delta
        paths.append((D, delta))
    checks = [(r[:dim], 2 * M * L * r[dim] + L * mu * r[-1], r[-1]) for r in rows]
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
    # the nodes t_j = a + (b - a)(j + 1)/(dim + 2) = S_j / Q, so that
    # x_k(t_j) = V_k / L + (t_j - m) D_k / delta_k over the one denominator
    # E = L Delta Q, with t_j - m = (S_j - mQ) / Q
    Q = lcm(a.denominator, b.denominator, 2 * M)
    an, bn = a.numerator * (Q // a.denominator), b.numerator * (Q // b.denominator)
    S = [(dim + 2) * an + (j + 1) * (bn - an) for j in range(dim + 1)]
    Q *= dim + 2
    mQ = mu * (Q // (2 * M))
    Delta = lcm(*(delta for _D, delta in paths))
    base = [[x * Delta * Q for x in v] for v in V]
    step = [[x * (L * Delta // delta) for x in D] for D, delta in paths]
    N, E = len(V), L * Delta * Q
    # vol Q(t_j) = I_j / K, K = dim! (N E)^dim, so the coefficients c_k of the
    # volume solve sum_k (K c_k) S_j^k Q^(dim - k) = Q^dim I_j, fraction-free
    system = []
    for Sj in S:
        w = Sj - mQ
        X = [[b0 + w * s for b0, s in zip(bv, sv)] for bv, sv in zip(base, step)]
        cen = [sum(col) for col in zip(*X)]
        vol = _cone_sum([[N * x for x in p] for p in X], simplices, cen)
        system.append([Sj**k * Q**(dim - k) for k in range(dim + 1)] + [Q**dim * vol])
    _pivots, piv, _ = _bareiss(system)
    K = math.factorial(dim) * (N * E)**dim
    return [Fraction(row[-1], piv * K) for row in system], a, b


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
    U, L = integer_row(u)
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
    """Minkowski sum of P and its reflection -P through the origin, which
    ``transform`` builds (with no hull when P is full-dimensional)."""
    n = P.dim
    minus = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    return minkowski_sum(P, transform(P, minus, (0,) * n))


def polar_projection_body(P: Polytope) -> Polytope:
    """The polar Π*K of the projection body, exactly.

    ΠK is the zonotope with support function ``projection_support``; its facet
    normals are the normals c of the rank-(n-1) subsets of the facet normals
    a_F, so the vertices of Π*K are ±c / h_ΠK(c).  Each c is the integer
    cofactor vector of n - 1 integer rows (zero exactly when their rank is
    below n - 1), made primitive and of the sign that is lexicographically
    larger, so each normal is met once up to sign.  ±c / h_ΠK(c) does not depend on the
    scale or sign of c, so the points are those of any basis of the rows'
    nullspace.
    """
    rows = [a for a, _num, _den in integer_rows(P)]
    normals = set()
    for sub in combinations(rows, P.dim - 1):
        c = primitive_int(_normal(list(sub)) if sub else [1])
        if not any(c):  # rank below n-1: no facet normal
            continue
        normals.add(max(c, tuple(-x for x in c)))
    pts = []
    for c in normals:
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
    top = max(v[-1] for v in S._V)
    return tuple(Fraction(x, S._L) for x in min(v[:-1] for v in S._V if v[-1] == top))


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
