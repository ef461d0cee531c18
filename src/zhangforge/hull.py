"""Exact convex hulls of rational point sets in dimensions 1..4.

The general path is an incremental beneath-beyond construction with strict
(exact) visibility tests, from the simplex ``linalg.affine_basis`` picks.  It
yields a simplicial triangulation of the hull boundary, the set of
supporting facet hyperplanes, and the extreme points.
Coplanar points never corrupt the result: a point lying on a supporting
hyperplane is invisible to its facets, and simplicial facets sharing a
hyperplane are merged when facets are reported.

Dimension 2 uses the monotone chain for speed; dimension 1 is explicit.

Every dimension clears the points to integer numerators over one positive
common denominator L (points of ints are taken as they are, over 1), which
changes neither their lexicographic order nor any orientation sign.  Facet
normals are integer cofactor vectors made primitive, and every visibility
and orientation test is an integer dot product (against (d+1) L times the
interior point).  The result is integer only: the planes (a, L b) and the
points as numerators over L, with no rational view of either.  A point is
extreme when the normals of its incident facets have rank d: in d = 3, when
some triple product of them is nonzero, in d = 4 by ``independent_rows``.

Dimension 3, where every n = 3 body, its symmetral, overlaps, ray-engine
panels and polar projection body is hulled, runs its own unrolled inner
loop: a closed-form cross product made primitive by one three-way gcd and
three-term dot products for the offset, the orientation and the visibility
test.  It keeps the generic loop's insertion order, facet ids and horizon,
so its results are the same.  Dimension 4 keeps the generic loop (cofactor
normals, ``sum(map(mul, ...))`` dot products): it hulls only the 4-d
bodies, which no default workload builds.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import DegenerateBody
from .linalg import Vec, affine_basis, det_int, independent_rows, integer_points, primitive_int

Plane = tuple[tuple[int, ...], int]


class HullResult:
    """Convex hull of a full-dimensional point set, over integers.

    planes: unique supporting hyperplanes (a, B), a primitive,
        <a, x> <= B / den.
    points: the input points as integer numerators over den.
    den: their least positive common denominator L.
    simplices: boundary triangulation; tuples of point indices, each simplex
        carried by exactly one plane.
    vertex_indices: indices of the extreme points, ascending.
    """

    __slots__ = ("planes", "points", "den", "simplices", "vertex_indices")

    def __init__(self, planes: list[Plane], points: list[tuple[int, ...]], den: int,
                 simplices: list[tuple[int, ...]], vertex_indices: list[int]):
        self.planes = planes
        self.points = points
        self.den = den
        self.simplices = simplices
        self.vertex_indices = vertex_indices


def _unique_sorted(ipts: list[tuple[int, ...]]) -> list[int]:
    """Indices of the distinct points, in lexicographic order (first index wins)."""
    uniq: list[int] = []
    for i in sorted(range(len(ipts)), key=ipts.__getitem__):
        if not uniq or ipts[i] != ipts[uniq[-1]]:
            uniq.append(i)
    return uniq


def _normal(edges: list[list[int]]) -> list[int]:
    """Generalised cross product: the cofactor vector orthogonal to d - 1 edges."""
    if len(edges) == 2:
        (a, b, c), (d, e, f) = edges
        return [b * f - c * e, c * d - a * f, a * e - b * d]
    return [
        (-1) ** k * det_int([e[:k] + e[k + 1:] for e in edges]) for k in range(len(edges) + 1)
    ]


def _spans(normals, d: int) -> bool:
    """rank(normals) == d for a nonempty set of nonzero integer normals.

    In d = 3 the normals span when some triple product is nonzero: with c the
    cross product of the first normal and the first one not parallel to it,
    every normal before that one is parallel to the first, so the normals
    span exactly when some later one leaves c's orthogonal plane.  Other d
    count ``independent_rows``."""
    if d != 3:
        return len(independent_rows(normals)) == d
    (a0, a1, a2), *rest = normals
    c = None
    for b0, b1, b2 in rest:
        if c is not None:
            if c[0] * b0 + c[1] * b1 + c[2] * b2:
                return True
        else:
            c = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
            if not any(c):
                c = None
    return False


def _hull_1d(points: list[Vec]) -> HullResult:
    ipts, den = integer_points(points)
    vals = [(p[0], i) for i, p in enumerate(ipts)]
    lo = min(vals)
    hi = max(vals)
    if lo[0] == hi[0]:
        raise DegenerateBody("1-d hull of a single point is not full-dimensional")
    return HullResult([((-1,), -lo[0]), ((1,), hi[0])], ipts, den, [(lo[1],), (hi[1],)],
                      sorted({lo[1], hi[1]}))


def _cross2(o: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points: list[Vec]) -> HullResult:
    ipts, den = integer_points(points)
    uniq = _unique_sorted(ipts)

    def chain(idx: list[int]) -> list[int]:
        out: list[int] = []
        for i in idx:
            while len(out) >= 2 and _cross2(ipts[out[-2]], ipts[out[-1]], ipts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(uniq)
    upper = chain(list(reversed(uniq)))
    ring = lower[:-1] + upper[:-1]  # counterclockwise
    if len(ring) < 3:
        raise DegenerateBody("2-d hull is not full-dimensional")
    planes: list[Plane] = []
    simplices: list[tuple[int, ...]] = []
    for k in range(len(ring)):
        i, j = ring[k], ring[(k + 1) % len(ring)]
        (xi, yi), (xj, yj) = ipts[i], ipts[j]
        a0, a1 = primitive_int((yj - yi, xi - xj))  # outward for ccw ring
        planes.append(((a0, a1), a0 * xi + a1 * yi))
        simplices.append((i, j))
    return HullResult(planes, ipts, den, simplices, sorted(ring))


def _hull_nd(points: list[Vec], d: int) -> HullResult:
    ipts, den = integer_points(points)
    uniq = _unique_sorted(ipts)

    init = [uniq[k] for k in affine_basis([ipts[i] for i in uniq])]
    if len(init) != d + 1:
        raise DegenerateBody("point set is not full-dimensional")

    # (d+1) L times the centroid of the initial simplex, a strictly interior point
    inner = [sum(ipts[i][k] for i in init) for k in range(d)]
    facets: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
    # a facet's vertices are sorted, so each ridge (a facet minus one vertex)
    # is a sorted tuple and needs no set to be a key
    ridge_map: dict[tuple[int, ...], list[int]] = {}
    next_id = 0

    if d == 3:
        c0, c1, c2 = inner

        def ridges(verts: tuple[int, ...]):
            u, v, w = verts
            return (v, w), (u, w), (u, v)

        def with_apex(ridge: tuple[int, ...], i: int) -> tuple[int, ...]:
            u, v = ridge  # sorted: two comparisons place i
            return (i, u, v) if i < u else (u, i, v) if i < v else (u, v, i)

        def plane(verts: tuple[int, ...]) -> Plane:
            (x, y, z), p, q = (ipts[v] for v in verts)
            x1, y1, z1 = p[0] - x, p[1] - y, p[2] - z
            x2, y2, z2 = q[0] - x, q[1] - y, q[2] - z
            a0, a1, a2 = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
            g = gcd(a0, a1, a2)
            if g != 1:
                if not g:
                    raise ValueError("degenerate facet points")
                a0, a1, a2 = a0 // g, a1 // g, a2 // g
            b = a0 * x + a1 * y + a2 * z
            s = a0 * c0 + a1 * c1 + a2 * c2 - 4 * b
            if s > 0:
                return (-a0, -a1, -a2), -b
            if s == 0:
                raise ValueError("interior point on facet hyperplane")
            return (a0, a1, a2), b

        def visible_to(p: tuple[int, ...]) -> list[int]:
            p0, p1, p2 = p
            return [fid for fid, (_, (a0, a1, a2), b) in facets.items()
                    if a0 * p0 + a1 * p1 + a2 * p2 > b]
    else:
        def ridges(verts: tuple[int, ...]):
            return (verts[:skip] + verts[skip + 1:] for skip in range(len(verts)))

        def with_apex(ridge: tuple[int, ...], i: int) -> tuple[int, ...]:
            return tuple(sorted(ridge + (i,)))

        def plane(verts: tuple[int, ...]) -> Plane:
            base = ipts[verts[0]]
            a = primitive_int(_normal([[x - y for x, y in zip(ipts[v], base)] for v in verts[1:]]))
            if not any(a):
                raise ValueError("degenerate facet points")
            b = sum(map(mul, a, base))
            s = sum(map(mul, a, inner)) - (d + 1) * b
            if s > 0:
                return tuple(-x for x in a), -b
            if s == 0:
                raise ValueError("interior point on facet hyperplane")
            return a, b

        def visible_to(p: tuple[int, ...]) -> list[int]:
            return [fid for fid, (_, a, b) in facets.items() if sum(map(mul, a, p)) > b]

    def add_facet(verts: tuple[int, ...]) -> None:
        nonlocal next_id
        fid = next_id
        next_id += 1
        facets[fid] = (verts, *plane(verts))
        for ridge in ridges(verts):
            ridge_map.setdefault(ridge, []).append(fid)

    for skip in range(d + 1):
        add_facet(tuple(sorted(init[:skip] + init[skip + 1:])))

    used = set(init)
    for i in uniq:
        if i in used:
            continue
        visible = visible_to(ipts[i])
        if not visible:
            continue
        visible_set = set(visible)
        # every ridge of the closed boundary complex has exactly two owner
        # facets; a horizon ridge has exactly one visible owner.  Removing
        # the visible facets in order, a ridge left with no owner had two
        # visible ones, and a ridge whose other owner is not visible is on
        # the horizon.
        horizon: list[tuple[int, ...]] = []
        for fid in visible:
            for ridge in ridges(facets.pop(fid)[0]):
                owners = ridge_map[ridge]
                owners.remove(fid)
                if not owners:
                    del ridge_map[ridge]
                elif owners[0] not in visible_set:
                    horizon.append(ridge)
        for ridge in horizon:
            add_facet(with_apex(ridge, i))

    # integer planes (a, L b) sort like the rational planes (a, b) since L > 0
    planes: set[Plane] = set()
    simplices: list[tuple[int, ...]] = []
    incident: dict[int, set[tuple[int, ...]]] = {}
    for verts, a, b in facets.values():
        planes.add((a, b))
        simplices.append(verts)
        for v in verts:
            incident.setdefault(v, set()).add(a)
    vertex_indices = sorted(v for v, normals in incident.items() if _spans(normals, d))
    return HullResult(sorted(planes), ipts, den, simplices, vertex_indices)


def convex_hull(points: list[Vec]) -> HullResult:
    """Hull of a full-dimensional rational point set (Fractions or ints; ambient
    dim = len(points[0])); ``DegenerateBody`` when the points are not
    full-dimensional.  A ``ValueError`` is a fault of the kernel itself."""
    if not points:
        raise DegenerateBody("no points")
    d = len(points[0])
    if d == 1:
        return _hull_1d(points)
    if d == 2:
        return _hull_2d(points)
    return _hull_nd(points, d)
