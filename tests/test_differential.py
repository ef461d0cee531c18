"""Differential tests: exact kernel against independent numeric oracles."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from zhangforge import (
    Direction,
    axis_direction,
    intersect,
    make_polytope,
    polar_projection_body,
    project_drop_last,
    slice_at_height,
    translate,
    vertical_section,
    volume,
)
from zhangforge.errors import Infeasible
from zhangforge.harness import BodySpec, make_body
from zhangforge.inequalities import _B_exact, _h_exact, diamond_extension, section_profiles
from zhangforge.lattice import count_lattice, fattening, lattice_points
from zhangforge.linalg import dot
from zhangforge.lp import lp_solve
from zhangforge.moments import (
    RayMomentEngine,
    covariogram_on_ray,
    mc_section_samples,
    projection_power_moment,
    radial_batch,
    ray_moment,
    ray_support,
    section_distribution,
)
from zhangforge.steiner import steiner_symmetrize

F = Fraction


def _random_body(rng, dim, count=7, den=4):
    while True:
        raw = rng.integers(-8, 9, size=(count, dim))
        pts = [tuple(F(int(v), den) for v in row) for row in raw]
        P = make_polytope(pts, dim)
        if P.is_full_dimensional:
            return P


@pytest.mark.parametrize("dim", [2, 3])
def test_volume_and_vertices_match_qhull(dim):
    rng = np.random.default_rng(31 + dim)
    for _ in range(15):
        P = _random_body(rng, dim)
        arr = np.array([[float(c) for c in v] for v in P.vertices])
        hull = ConvexHull(arr)
        assert len(hull.vertices) == len(P.vertices)
        assert float(volume(P).exact) == pytest.approx(hull.volume, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_intersection_volume_against_monte_carlo(dim):
    rng = np.random.default_rng(77 + dim)
    for _ in range(6):
        P = _random_body(rng, dim)
        shift = tuple(F(int(s), 8) for s in rng.integers(-4, 5, size=dim))
        Q = intersect(P, translate(P, shift))
        exact = float(volume(Q).exact) if Q is not None else 0.0
        box = P.bounding_box()
        lo = np.array([float(a) for a, _ in box])
        hi = np.array([float(b) for _, b in box])
        samples = rng.uniform(lo, hi, size=(120_000, dim))
        # membership straight from the definition K cap (shift + K), so the
        # oracle is independent of the computed intersection representation
        A = np.array([[float(x) for x in a] for a, _ in P.halfspaces])
        b1 = np.array([float(bb) for _, bb in P.halfspaces])
        sh = np.array([float(s) for s in shift])
        inside = np.all(samples @ A.T <= b1 + 1e-12, axis=1) & np.all(
            (samples - sh) @ A.T <= b1 + 1e-12, axis=1
        )
        boxvol = float(np.prod(hi - lo))
        est = boxvol * inside.mean()
        sigma = boxvol * inside.std() / math.sqrt(len(samples))
        assert abs(est - exact) <= 4 * sigma + 1e-9


def test_steiner_volume_preserved_on_random_bodies():
    rng = np.random.default_rng(2718)
    for dim in (2, 3):
        for _ in range(8):
            P = _random_body(rng, dim, count=6)
            assert steiner_symmetrize(P).volume_fraction() == P.volume_fraction()


@pytest.mark.parametrize("dim", [2, 3])
def test_ray_moment_engine_against_dense_trapezoid(dim):
    rng = np.random.default_rng(424 + dim)
    P = _random_body(rng, dim, count=6)
    theta = axis_direction(dim)
    engine = RayMomentEngine(P, theta)
    support = ray_support(P, theta)
    R = float(support[0])
    if R == 0:
        pytest.skip("flat support")
    grid = np.linspace(0.0, R, 1500)
    g = np.array([float(covariogram_on_ray(P, theta, F(float(r)), support=support))
                  for r in grid])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    for p in (1, 2):
        integrand = p * np.maximum(grid, 0.0) ** (p - 1) * g
        ref = float(trapezoid(integrand, grid))
        mine = engine.moment(p).value
        assert mine == pytest.approx(ref, rel=5e-3)


def test_engine_exactness_in_the_plane():
    rng = np.random.default_rng(999)
    for _ in range(6):
        P = _random_body(rng, 2, count=6)
        for raw in [(1, 0), (0, 1), (2, 1)]:
            engine = RayMomentEngine(P, Direction(raw))
            mv = engine.moment(2)
            if Direction(raw).exact_norm() is not None:
                assert mv.exact is not None  # certified exact rational


@pytest.mark.parametrize("dim, raws", [
    (2, [(1, 0), (0, 1), (3, 4), (-4, 3)]),
    (3, [(1, 1, 1), (0, 0, 1), (1, -2, 3), (0, 1, -1), (1, 2, 2), (2, 3, 6)]),
])
def test_ray_moment_against_engine(dim, raws):
    # the layer-cake of the linearly mapped body against the panel engine in
    # the same direction; the engine's moment is per unit length of theta,
    # exact whenever |theta| is rational
    for seed in range(4):
        P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": seed}))
        for raw in raws:
            theta = Direction(raw)
            engine = RayMomentEngine(P, theta)
            for p in range(1, dim + 1):
                mine = ray_moment(P, theta, p)
                ref = engine.moment(p)
                if theta.exact_norm() is not None:
                    assert mine.exact * theta.exact_norm() ** p == ref.exact, (seed, raw, p)
                else:
                    scaled = float(mine.exact) * math.sqrt(float(theta.norm_sq)) ** p
                    assert scaled == pytest.approx(ref.value, rel=1e-12), (seed, raw, p)


def test_projection_power_against_monte_carlo():
    # the exact layer-cake value against a Monte Carlo estimate built here
    # from sampled section lengths over the projection's bounding box
    rng = np.random.default_rng(5150)
    for i in range(4):
        P = _random_body(rng, 3)
        boxvol, ell = mc_section_samples(P, seed=600 + i, nsamp=200_000)
        for p in (1, 2, 3):
            exact = float(projection_power_moment(P, p).exact)
            vals = ell ** (p + 1) / (p + 1)
            est = boxvol * vals.mean()
            sigma = boxvol * vals.std(ddof=1) / math.sqrt(len(ell))
            assert abs(est - exact) <= 4 * sigma + 1e-12


def _overlap_projection_volume(P, u):
    """vol{ell >= u} from its definition: the projected volume of K cap (K + u e_n)."""
    shift = tuple(F(0) for _ in range(P.dim - 1)) + (u,)
    Q = intersect(P, translate(P, shift))
    return F(0) if Q is None else project_drop_last(Q).volume_fraction()


def test_section_distribution_against_overlap_projection():
    # the symmetral's slice polynomial against the overlap projection, at the
    # panel ends and at two points that are not interpolation nodes
    bodies = [make_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)]
    for dim in (2, 3):
        bodies += [make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": s}))
                   for s in range(4)]
    for P in bodies:
        dist = section_distribution(P)
        assert dist.reach == dist.pieces[-1][1]
        for a, b, coeffs in dist.pieces:
            for u in (a, a + (b - a) / 5, a + 5 * (b - a) / 7, b):
                value = sum(c * u**k for k, c in enumerate(coeffs))
                assert value == _overlap_projection_volume(P, u), (P, u)


@pytest.mark.parametrize("dim", [2, 3])
def test_polar_projection_body_against_facet_weight_radial(dim):
    # the exact polytope's radial min b/<a,u> against the float radial
    # 1/h_PiK(u) that radial_batch computes from the facet weights
    rng = np.random.default_rng(8080 + dim)
    for seed in range(4):
        P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": seed}))
        polar = polar_projection_body(P)
        A = np.array([[float(x) for x in a] for a, _ in polar.halfspaces])
        b = np.array([float(bb) for _, bb in polar.halfspaces])
        dirs = rng.normal(size=(200, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        s = dirs @ A.T
        ratios = np.where(s > 0, b[None, :] / np.where(s > 0, s, 1.0), np.inf)
        mine = ratios.min(axis=1)
        ref = radial_batch("polar-projection", P, dirs, None)
        assert mine == pytest.approx(ref, rel=1e-12)


_HULLS = [BodySpec("random_hull", 2, {"count": 8, "radius": 2, "seed": s}) for s in range(4)] + [
    BodySpec("random_hull", 3, {"count": 6, "radius": 2, "seed": s}) for s in range(3)
]


def _diamond_lp(P, x):
    """max (t2 - t1)/2 over (y, t1), (y, t2) in P with ||y - x||_inf <= 1; None if infeasible."""
    n = P.dim
    rows, rhs = [], []
    for a, b in P.halfspaces:  # variables y (n-1), t1, t2
        rows.append(list(a[:-1]) + [a[-1], F(0)])
        rhs.append(b)
        rows.append(list(a[:-1]) + [F(0), a[-1]])
        rhs.append(b)
    for j in range(n - 1):
        e = [F(0)] * (n + 1)
        e[j] = F(1)
        rows.append(e)
        rhs.append(x[j] + 1)
        rows.append([-v for v in e])
        rhs.append(1 - x[j])
    try:
        res = lp_solve([F(0)] * (n - 1) + [F(-1), F(1)], rows, rhs)
    except Infeasible:
        return None
    return res.value / 2


def test_diamond_extension_against_lp():
    # the fattened symmetral's section against the two-copy LP on the body
    missed = 0
    for spec in _HULLS:
        P = make_body(spec)
        S = steiner_symmetrize(P)
        box = project_drop_last(P).bounding_box()
        for x in product(*(range(math.floor(lo) - 1, math.ceil(hi) + 2) for lo, hi in box)):
            ref = _diamond_lp(P, x)
            missed += ref is None
            assert diamond_extension(S, x).exact == (F(0) if ref is None else ref)
    assert missed  # some windows miss the projection


def test_section_profiles_against_slices():
    # height counts of one enumeration against per-height slice polytopes
    for spec in _HULLS:
        anchored = make_body(BodySpec(spec.family, spec.dim, spec.params, anchor=True))
        for Q in (anchored, make_polytope([tuple(3 * c for c in v) for v in anchored.vertices],
                                          spec.dim)):
            S = steiner_symmetrize(Q)
            pr = section_profiles(Q, S)
            top = math.floor(max(v[-1] for v in S.vertices))
            f, ft = {}, {}
            for k in range(top + 1):
                sl = slice_at_height(S, k)
                f[k] = count_lattice(sl) if sl is not None else 0
                ft[k] = count_lattice(sl, Q.dim - 1) if sl is not None else 0
            assert {k: v for k, v in f.items() if v} == pr.f
            assert {k: v for k, v in ft.items() if v} == pr.f_tilde
            assert pr.M == max(pr.f, default=0)


# -- the fraction-free lattice layer against the routes it replaced ------------

def _lattice_bodies():
    bodies = [make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": s}))
              for dim in (2, 3) for s in range(4)]
    bodies.append(make_polytope([(0, 0, 1), (F(5, 2), 0, 1), (F(1, 3), F(7, 3), 1)], 3))
    return bodies


def _box_scan(P, k):
    """Every integer point of the fattening's bounding box that passes each row,
    strictly on the rows whose normal sees the first k coordinates."""
    fat = fattening(P, k)
    rows = [(tuple(int(x) for x in a), b.numerator, b.denominator, any(a[:k]))
            for a, b in fat.halfspaces]

    def contains(x):
        for a, num, den, strict in rows:
            s = sum(ai * xi for ai, xi in zip(a, x)) * den
            if s > num or (strict and s == num):
                return False
        return True

    box = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in fat.bounding_box()]
    return tuple(x for x in product(*box) if contains(x))


def test_lattice_points_against_box_scan():
    for P in _lattice_bodies():
        for k in range(P.dim + 1):
            assert lattice_points(P, k).points == _box_scan(P, k), (P, k)


def _B_terms(m, p, n):
    """sum_k (p/m)(1 - k/m)^{n-1}(k/m)^{p-1} term by term, 0^0 = 1."""
    total = F(0)
    for k in range(math.floor(m) + 1):
        t = F(k) / m
        pw = (F(1) if p == 1 else F(0)) if k == 0 else t ** (p - 1)
        total += F(p) * (1 - t) ** (n - 1) * pw / m
    return total


def _h_terms(x, p, n):
    """sum_k p (1 - k/x)^{n-1} k^{p-1} term by term, 0^0 = 1."""
    total = F(0)
    for k in range(math.floor(x) + 1):
        pw = (F(1) if p == 1 else F(0)) if k == 0 else F(k) ** (p - 1)
        total += p * (1 - F(k) / x) ** (n - 1) * pw
    return total


def test_profile_weights_against_term_sums():
    rng = np.random.default_rng(2024)
    ms = [F(1, 3), F(2, 5), F(1), F(7, 2), F(12)]
    ms += [F(int(a), int(b)) for a, b in zip(rng.integers(1, 90, 12), rng.integers(1, 9, 12))]
    for m in ms:
        for p in range(1, 6):
            for n in range(2, 6):
                assert _B_exact(m, p, n) == _B_terms(m, p, n), (m, p, n)
                assert _h_exact(m, p, n) == _h_terms(m, p, n), (m, p, n)


def _section_fraction(P, y):
    """{t : (y, t) in P} from the rows in Fractions, or None."""
    lo = hi = None
    for a, b in P.halfspaces:
        c = b - dot(a[:-1], y)
        if a[-1] > 0:
            hi = c / a[-1] if hi is None else min(hi, c / a[-1])
        elif a[-1] < 0:
            lo = c / a[-1] if lo is None else max(lo, c / a[-1])
        elif c < 0:
            return None
    return None if lo > hi else (lo, hi)


def test_vertical_section_against_fraction_rows():
    kinds = {"empty": 0, "point": 0, "segment": 0}
    for P in _lattice_bodies():
        box = project_drop_last(P).bounding_box()
        anchors = list(product(*(range(math.floor(lo) - 1, math.ceil(hi) + 2) for lo, hi in box)))
        anchors += [v[:-1] for v in P.vertices]
        anchors += list(product(*([lo + (hi - lo) * F(j, 7) for j in (1, 3, 6)] for lo, hi in box)))
        for body in (P, fattening(P, P.dim - 1)):
            for y in anchors:
                ref = _section_fraction(body, tuple(F(c) for c in y))
                seg = vertical_section(body, y)
                assert (None if seg is None else (seg.lo, seg.hi)) == ref, (body, y)
                kinds["empty" if ref is None else "point" if ref[0] == ref[1] else "segment"] += 1
    assert all(kinds.values()), kinds
