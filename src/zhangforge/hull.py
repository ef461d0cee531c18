"""Exact convex hulls of rational point sets in dimensions 1..4.

The general path is an incremental beneath-beyond construction with strict
(exact) visibility tests.  It yields a simplicial triangulation of the hull
boundary, the set of supporting facet hyperplanes, and the extreme points.
Coplanar points never corrupt the result: a point lying on a supporting
hyperplane is invisible to its facets, and simplicial facets sharing a
hyperplane are merged when facets are reported.

Dimension 2 uses the monotone chain for speed; dimension 1 is explicit.

In dimensions >= 2 the points are cleared to integer numerators over one
positive common denominator L, which changes neither their lexicographic
order nor any orientation sign.  Facet normals are integer cofactor vectors
made primitive, and every visibility and orientation test is an integer dot
product (against (d+1) L times the interior point).  Only the returned planes
(a, b / L) and the interior point are built as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DegenerateBody
from .linalg import Vec, affine_basis, det_int, integer_points, primitive_int, rank


@dataclass
class HullResult:
    """Convex hull of a full-dimensional point set.

    facets: unique supporting hyperplanes (a, b), a primitive integer, <a,x> <= b.
    simplices: boundary triangulation; tuples of point indices, each simplex
        carried by exactly one facet hyperplane.
    vertex_indices: indices of the extreme points, ascending.
    interior: a strictly interior point.
    """

    facets: list[tuple[Vec, Fraction]]
    simplices: list[tuple[int, ...]]
    vertex_indices: list[int]
    interior: Vec


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


def _hull_1d(points: list[Vec]) -> HullResult:
    vals = [(p[0], i) for i, p in enumerate(points)]
    lo = min(vals)
    hi = max(vals)
    one = Fraction(1)
    facets = [((Fraction(-1),), -Fraction(lo[0])), ((one,), Fraction(hi[0]))]
    if lo[0] == hi[0]:
        raise DegenerateBody("1-d hull of a single point is not full-dimensional")
    mid = (Fraction(lo[0] + hi[0], 2),)
    return HullResult(
        facets=facets,
        simplices=[(lo[1],), (hi[1],)],
        vertex_indices=sorted({lo[1], hi[1]}),
        interior=mid,
    )


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
    scale = len(ring) * den
    interior = tuple(Fraction(sum(ipts[i][k] for i in ring), scale) for k in range(2))
    facets: list[tuple[Vec, Fraction]] = []
    simplices: list[tuple[int, ...]] = []
    for k in range(len(ring)):
        i, j = ring[k], ring[(k + 1) % len(ring)]
        (xi, yi), (xj, yj) = ipts[i], ipts[j]
        a0, a1 = primitive_int((yj - yi, xi - xj))  # outward for ccw ring
        facets.append(((Fraction(a0), Fraction(a1)), Fraction(a0 * xi + a1 * yi, den)))
        simplices.append((i, j))
    return HullResult(facets, simplices, sorted(ring), interior)


def _hull_nd(points: list[Vec], d: int) -> HullResult:
    ipts, den = integer_points(points)
    uniq = _unique_sorted(ipts)

    # initial affinely independent d+1 points
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

    def ridges(verts: tuple[int, ...]):
        return (verts[:skip] + verts[skip + 1:] for skip in range(len(verts)))

    def add_facet(verts: tuple[int, ...]) -> None:
        nonlocal next_id
        base = ipts[verts[0]]
        a = primitive_int(_normal([[x - y for x, y in zip(ipts[v], base)] for v in verts[1:]]))
        if not any(a):
            raise ValueError("degenerate facet points")
        b = sum(map(mul, a, base))
        s = sum(map(mul, a, inner)) - (d + 1) * b
        if s > 0:
            a, b = tuple(-x for x in a), -b
        elif s == 0:
            raise ValueError("interior point on facet hyperplane")
        fid = next_id
        next_id += 1
        facets[fid] = (verts, a, b)
        for ridge in ridges(verts):
            ridge_map.setdefault(ridge, []).append(fid)

    for skip in range(d + 1):
        add_facet(tuple(sorted(init[:skip] + init[skip + 1:])))

    used = set(init)
    for i in uniq:
        if i in used:
            continue
        p = ipts[i]
        visible = [fid for fid, (_, a, b) in facets.items() if sum(map(mul, a, p)) > b]
        if not visible:
            continue
        visible_set = set(visible)
        # every ridge of the closed boundary complex has exactly two owner
        # facets; a horizon ridge has exactly one visible owner
        horizon: list[tuple[int, ...]] = []
        for fid in visible:
            for ridge in ridges(facets[fid][0]):
                if any(o not in visible_set for o in ridge_map[ridge]):
                    horizon.append(ridge)
        # remove visible facets
        for fid in visible:
            for ridge in ridges(facets.pop(fid)[0]):
                owners = ridge_map[ridge]
                owners.remove(fid)
                if not owners:
                    del ridge_map[ridge]
        for ridge in horizon:
            add_facet(tuple(sorted(ridge + (i,))))

    # integer planes (a, L b) sort like the rational planes (a, b) since L > 0
    planes: set[tuple[tuple[int, ...], int]] = set()
    simplices: list[tuple[int, ...]] = []
    incident: dict[int, set[tuple[int, ...]]] = {}
    for verts, a, b in facets.values():
        planes.add((a, b))
        simplices.append(verts)
        for v in verts:
            incident.setdefault(v, set()).add(a)
    vertex_indices = sorted(v for v, normals in incident.items() if rank(list(normals)) == d)
    interior = tuple(Fraction(s, (d + 1) * den) for s in inner)
    facet_list = [(tuple(Fraction(x) for x in a), Fraction(b, den)) for a, b in sorted(planes)]
    return HullResult(facet_list, simplices, vertex_indices, interior)


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
