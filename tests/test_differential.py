"""Differential tests: exact kernel against independent numeric oracles."""

import math
from collections import Counter
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
    minkowski_sum,
    polar_projection_body,
    project_drop_last,
    slice_at_height,
    transform,
    translate,
    vertical_section,
    volume,
)
from zhangforge.errors import DegenerateBody, Infeasible, Unbounded
from zhangforge.hull import HullResult, convex_hull
from zhangforge.harness import BodySpec, default_corpus, make_body
from zhangforge.inequalities import (
    B_coeff,
    BodyWorkspace,
    _B_exact,
    _discrete_star_volume,
    _g_profile,
    _h_exact,
    _profile_sum,
    _purely_discrete_zhang_sides,
    applicability,
    diamond_extension,
    section_profiles,
)
from zhangforge.lattice import (
    closed_unit_cube,
    column_lengths,
    column_moment,
    count_lattice,
    fattening,
    lattice_points,
    ray_interval,
)
from zhangforge.linalg import (
    affine_basis,
    det,
    dot,
    mat_inv,
    nullspace,
    primitive,
    rank,
    rref,
    solve_linear,
)
from zhangforge.lp import LPResult, lp_solve, max_slack_point
from zhangforge.moments import (
    RayMomentEngine,
    _interval_batch,
    covariogram_on_ray,
    facet_angles,
    mc_section_samples,
    projection_power_moment,
    radial_batch,
    ray_moment,
    ray_support,
    section_distribution,
    star_volume,
)
from zhangforge.polytope import Polytope, _lagrange_coeffs, integer_rows, parametric_volume
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


def _jump_angles(P):
    """Angles of lattice-point-to-vertex directions, straddled by +-1e-7 nodes.

    The radial of a lattice-covariogram star body jumps exactly when the exit
    ray grazes a vertex; putting rule nodes on both sides of each jump keeps
    the circle rule's error at the smooth-piece level.
    """
    out = []
    for y in lattice_points(P):
        for v in P.vertices:
            d0 = float(y[0]) - float(v[0])
            d1 = float(y[1]) - float(v[1])
            if abs(d0) + abs(d1) > 1e-12:
                a = math.atan2(d1, d0)
                out.extend(((a - 1e-7) % (2 * math.pi), a % (2 * math.pi),
                            (a + 1e-7) % (2 * math.pi)))
    return out


def test_discrete_radial_quadrature_against_exact_star_volume():
    # the float radial of the n-th lattice-covariogram Ball body, integrated
    # by the circle rule over jump and facet-normal nodes, against the exact
    # cone sum that volume_identity_discrete reads off the facet weights
    checked = 0
    for spec in default_corpus():
        P = make_body(spec)
        ws = BodyWorkspace(P)
        if applicability("volume_identity_discrete", ws) is not None:
            continue
        sv = star_volume(lambda dirs: radial_batch("discrete", P, dirs, 2), 2,
                         extra_angles=facet_angles(P) + _jump_angles(P))
        vol = float(ws.vol)
        assert abs(sv.value - float(_discrete_star_volume(P))) <= 1e-3 * vol, spec.name
        checked += 1
    assert checked == 7


def _interval_batch_per_facet(body, pts, dirs, strict):
    """The ray clip facet by facet, with index-masked column updates: the
    reference for the fused clip of ``moments._interval_batch``."""
    A = np.array([[float(x) for x in a] for a, _ in body.halfspaces])
    b = np.array([float(bb) for _, bb in body.halfspaces])
    S = A @ dirs.T
    C = A @ pts.T - b[:, None]
    m, D = pts.shape[0], S.shape[1]
    lo = np.zeros((m, D))
    hi = np.full((m, D), np.inf)
    feas = np.ones((m, D), dtype=bool)
    tol = 1e-12
    for s, c in zip(S, C):
        zero = np.abs(s) <= tol
        if zero.any():
            bad = c > (-tol if strict else tol)
            feas &= ~(np.outer(bad, zero))
        pos = (~zero) & (s > 0)
        if pos.any():
            lo[:, pos] = np.maximum(lo[:, pos], c[:, None] / s[None, pos])
        neg = (~zero) & (s < 0)
        if neg.any():
            hi[:, neg] = np.minimum(hi[:, neg], c[:, None] / s[None, neg])
    feas &= hi >= lo - 1e-12
    return lo, hi, feas


def _float_points(points):
    return np.array([[float(c) for c in y] for y in points], dtype=float)


@pytest.mark.parametrize("dim", [2, 3])
def test_interval_batch_against_per_facet_clip(dim):
    # bitwise: the fused clip takes the same quotients c/s and the same
    # reductions as the per-facet reference, so lo, hi and feas agree to the
    # bit on lattice points of the body and of its open fattening, on points
    # outside (where the lower pass runs) and, on cubes, along the axes
    # (|s| <= 1e-12, where only feasibility is decided)
    rng = np.random.default_rng(4242 + dim)
    cube = make_polytope(list(product((0, 1), repeat=dim)), dim)
    bodies = [cube] + [
        make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": s}))
        for s in range(5)
    ]
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    lower_fired = zero_decided = 0
    for P in bodies:
        dirs = rng.normal(size=(120, dim))
        dirs = np.concatenate([dirs / np.linalg.norm(dirs, axis=1)[:, None], axes])
        for k in (0, dim):
            body = fattening(P, k)
            inside = _float_points(lattice_points(P, k))
            outside = rng.integers(-5, 6, size=(25, dim)).astype(float)
            for pts in (inside, outside, _float_points(body.vertices)):
                for strict in (False, True):
                    ref = _interval_batch_per_facet(body, pts, dirs, strict)
                    got = _interval_batch(body, pts, dirs, strict)
                    for name, r, g in zip(("lo", "hi", "feas"), ref, got):
                        assert r.tobytes() == g.tobytes(), (P, k, strict, name)
                    lower_fired += bool(ref[0].any())
                    zero_decided += bool((~ref[2][:, -2 * dim:]).any())
    assert lower_fired and zero_decided


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
            want = _box_scan(P, k)
            assert lattice_points(P, k).points == want, (P, k)
            assert count_lattice(P, k) == len(want), (P, k)


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
    profile = {k: int(v) for k, v in enumerate(rng.integers(0, 40, 9))}
    for m in ms:
        for p in range(1, 6):
            for n in range(2, 6):
                assert _B_exact(m, p, n) == _B_terms(m, p, n), (m, p, n)
                assert _h_exact(m, p, n) == _h_terms(m, p, n), (m, p, n)
                for k in range(math.floor(m) + 2):
                    g = (1 - F(k) / m) ** (n - 1) * 7 if k <= m else 0
                    assert _g_profile(k, m, 7, n) == g, (k, m, n)
    for p in range(1, 6):
        terms = [(v if p == 1 else 0) if k == 0 else p * F(k) ** (p - 1) * v
                 for k, v in profile.items()]
        assert _profile_sum(profile, p) == sum(terms), p


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


def _column_lengths_via_projection(P):
    """The route ``column_lengths`` replaced: the lattice points of the
    projection, then one vertical section per column."""
    out = {}
    for y in lattice_points(project_drop_last(P)):
        seg = vertical_section(P, y)
        if seg is not None:
            out[y] = seg.length
    return out


def test_column_lengths_against_projection_columns():
    bodies = [make_body(spec) for spec in default_corpus()]
    bodies += [make_body(BodySpec("random_hull", dim, {"count": dim + 5, "radius": 2, "seed": s}))
               for dim in (2, 3, 4) for s in range(4)]
    # vertical facets: a triangle with one, a prism over a triangle (whose
    # slanted side cuts integer columns out of the bounding box) and a box
    bodies.append(make_polytope([(0, 0), (2, 1), (0, 2)], 2))
    bodies.append(make_polytope([(x, y, z) for x, y in ((0, 0), (F(5, 2), 0), (0, F(7, 3)))
                                 for z in (F(-1, 2), F(3, 2))], 3))
    bodies.append(make_polytope(list(product((F(-3, 2), 2), (0, F(9, 4)), (1, 3), (0, 1))), 4))
    bodies += [P.translated(tuple(F(2 * i + 1, 3 + i) for i in range(P.dim))) for P in bodies]
    kinds = {"point": 0, "segment": 0, "vertical facet": 0}
    for P in bodies:
        got = column_lengths(P)
        want = _column_lengths_via_projection(P)
        assert list(got.items()) == list(want.items()), P
        assert all(type(v) is F for v in got.values())
        kinds["point"] += sum(v == 0 for v in got.values())
        kinds["segment"] += sum(v > 0 for v in got.values())
        kinds["vertical facet"] += any(a[-1] == 0 for a, _b in P.halfspaces)
    assert all(kinds.values()), kinds


# -- column reads of the symmetral and the anchored body against the point routes --
#
# The profile layer reads column ranges and column lengths; the routes below
# enumerate points or cut one section per column, as the profile layer did.

def _workspace_cases():
    """Workspaces of the corpus, of seeded hulls with n = 2, 3, 4, and of
    some of them scaled by 2 and 3 (``BodyWorkspace.scaled``)."""
    specs = list(default_corpus())
    specs += [BodySpec("random_hull", dim, {"count": dim + 5, "radius": 2, "seed": s})
              for dim in (2, 3, 4) for s in range(3)]
    out = []
    for spec in specs:
        ws = BodyWorkspace(make_body(spec))
        out.append(ws)
        if spec.dim < 4:
            out += [ws.scaled(2), ws.scaled(3)]
    return out


def _vertical_moment_by_ray_interval(body, p):
    """The per-point route: sum of hi^p - lo^p over the lattice points y of
    ``body``, [lo, hi] = {r >= 0 : y - r e_n in body}."""
    e_n = tuple(F(0) for _ in range(body.dim - 1)) + (F(1),)
    mom = F(0)
    for y in lattice_points(body):
        seg = ray_interval(body, y, e_n)
        if seg is not None:
            lo, hi = seg
            mom += hi**p - lo**p
    return mom


def _diamond_values_by_sections(ws):
    """The per-column route: the upper end of the fattened symmetral's vertical
    section over each integer point of the projection's open fattening."""
    fat = fattening(ws.asym, ws.n - 1)
    out = {}
    for y in lattice_points(ws.aproj, ws.n - 1):
        seg = vertical_section(fat, y)
        out[y] = F(0) if seg is None else seg.hi
    return out


def test_column_reads_against_point_routes():
    cases = _workspace_cases()
    assert {ws.n for ws in cases} == {2, 3, 4}
    for ws in cases:
        pr = ws.profiles
        counts = Counter(x[:-1] for x in lattice_points(ws.asym))
        assert list(pr.column_counts.items()) == list(counts.items()), ws.body
        assert pr.G_proj == ws.G_aproj == count_lattice(project_drop_last(ws.anchored))
        got = ws.diamond_values
        want = _diamond_values_by_sections(ws)
        assert list(got.items()) == list(want.items()), ws.body
        assert tuple(got) == _box_scan(ws.aproj, ws.n - 1)  # the open rule, independently
        assert all(type(v) is F for v in got.values())
        for p in (1, ws.n):
            assert column_moment(ws.anchored, p) == _vertical_moment_by_ray_interval(
                ws.anchored, p), (ws.body, p)


def _purely_discrete_lhs_B_form(ws, m0):
    """The left side of the purely discrete Zhang inequality in its stated form,
    (n+1) B_m0(1)^(n+1) / B_m0(n+1) * 2^n sum_{x in S K} |x_n|^n: a Fraction for
    a rational m0, and for a float m0 the binary64 value of the B weights."""
    n = ws.n
    sum_abs = 2 * sum((F(k) ** n * v for k, v in ws.profiles.f.items() if k), F(0))
    if isinstance(m0, F):
        return (n + 1) * _B_exact(m0, 1, n) ** (n + 1) / _B_exact(m0, n + 1, n) * 2**n * sum_abs
    return (n + 1) * B_coeff(m0, 1, n) ** (n + 1) / B_coeff(m0, n + 1, n) * 2.0**n * float(sum_abs)


def test_purely_discrete_lhs_against_the_B_form():
    # the h-form top / h_(n+1)(m0) equals the B form exactly when m0 is
    # rational; for an irrational m0 the B form at the bracket's right end,
    # given its binary64 error of 1e-9 |v|, lies in the enclosure
    kinds = Counter()
    for ws in _workspace_cases():
        if ws.n == 4 or ws.profiles.M == 0:
            continue
        lhs, _rhs, (lo, hi) = _purely_discrete_zhang_sides(ws)
        if lo == hi:
            assert lhs.exact == _purely_discrete_lhs_B_form(ws, lo), ws.body
            kinds["rational"] += 1
        else:
            v = _purely_discrete_lhs_B_form(ws, float(hi))
            assert lhs.lo - F(1e-9 * abs(v)) <= F(v) <= lhs.hi + F(1e-9 * abs(v)), ws.body
            kinds["irrational"] += 1
    assert kinds["rational"] >= 12 and kinds["irrational"] >= 2, kinds


# -- the fraction-free linalg, hull and lp kernels against their Fraction routes --
#
# The routines below are the Fraction implementations the integer kernels
# replaced, kept here as oracles: the kernels must return the same values.

def _rref_fraction(rows):
    m = [[F(x) for x in r] for r in rows]
    nrow, ncol = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m, pivots


def _rank_fraction(rows):
    return len(_rref_fraction(rows)[1]) if rows else 0


def _solve_fraction(rows, rhs):
    n = len(rows[0])
    red, pivots = _rref_fraction([list(r) + [v] for r, v in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return tuple(x)


def _nullspace_fraction(rows, n):
    if not rows:
        return [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    red, pivots = _rref_fraction(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        x = [F(0)] * n
        x[fc] = F(1)
        for i, pc in enumerate(pivots):
            x[pc] = -red[i][fc]
        basis.append(tuple(x))
    return basis


def _det_fraction(rows):
    m = [[F(x) for x in r] for r in rows]
    n, sign, d = len(m), 1, F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * d


def _inv_fraction(rows):
    n = len(rows)
    red, pivots = _rref_fraction([list(r) + [F(int(i == j)) for j in range(n)]
                                  for i, r in enumerate(rows)])
    return [tuple(red[i][n:]) for i in range(n)] if pivots == list(range(n)) else None


def _primitive_fraction(a):
    den = math.lcm(*(F(x).denominator for x in a))
    ints = [int(x * den) for x in a]
    g = math.gcd(*ints)
    return tuple(F(v // g) if g else F(0) for v in ints)


def _affine_basis_fraction(points):
    idx, dirs = [0], []
    for i in range(1, len(points)):
        d = [x - y for x, y in zip(points[i], points[0])]
        if _rank_fraction(dirs + [d]) > len(dirs):
            dirs.append(d)
            idx.append(i)
    return idx


def _hull_fraction(points):
    """Monotone chain (d = 2) or beneath-beyond (d >= 3) over Fractions."""
    d = len(points[0])
    dotf = lambda a, b: sum((x * y for x, y in zip(a, b)), F(0))  # noqa: E731
    uniq = []
    for i in sorted(range(len(points)), key=lambda i: points[i]):
        if not uniq or points[i] != points[uniq[-1]]:
            uniq.append(i)
    if d == 2:
        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        def chain(idx):
            out = []
            for i in idx:
                while len(out) >= 2 and cross(points[out[-2]], points[out[-1]], points[i]) <= 0:
                    out.pop()
                out.append(i)
            return out

        ring = chain(uniq)[:-1] + chain(uniq[::-1])[:-1]
        interior = tuple(sum((points[i][k] for i in ring), F(0)) / len(ring) for k in range(2))
        facets = []
        for k in range(len(ring)):
            i, j = ring[k], ring[(k + 1) % len(ring)]
            a = _primitive_fraction((points[j][1] - points[i][1], points[i][0] - points[j][0]))
            facets.append((a, dotf(a, points[i])))
        simplices = [(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))]
        return HullResult(facets, simplices, sorted(ring), interior)

    init, dirs = [uniq[0]], []
    for i in uniq[1:]:
        row = [x - y for x, y in zip(points[i], points[init[0]])]
        if _rank_fraction(dirs + [row]) > len(dirs):
            dirs.append(row)
            init.append(i)
        if len(init) == d + 1:
            break
    interior = tuple(sum((points[i][k] for i in init), F(0)) / (d + 1) for k in range(d))
    facets, ridge_map, next_id = {}, {}, 0

    def ridges(verts):
        return [frozenset(verts[:s] + verts[s + 1:]) for s in range(len(verts))]

    def add_facet(verts):
        nonlocal next_id
        base = [points[v] for v in verts]
        (ns,) = _nullspace_fraction([[x - y for x, y in zip(p, base[0])] for p in base[1:]], d)
        a = _primitive_fraction(ns)
        b = dotf(a, base[0])
        if dotf(a, interior) > b:
            a, b = tuple(-x for x in a), -b
        facets[next_id] = (verts, a, b)
        for ridge in ridges(verts):
            ridge_map.setdefault(ridge, []).append(next_id)
        next_id += 1

    for skip in range(d + 1):
        add_facet(tuple(sorted(init[:skip] + init[skip + 1:])))
    for i in uniq:
        if i in init:
            continue
        visible = [fid for fid, (_, a, b) in facets.items() if dotf(a, points[i]) > b]
        horizon = [ridge for fid in visible for ridge in ridges(facets[fid][0])
                   if any(o not in visible for o in ridge_map[ridge])]
        for fid in visible:
            for ridge in ridges(facets.pop(fid)[0]):
                ridge_map[ridge].remove(fid)
                if not ridge_map[ridge]:
                    del ridge_map[ridge]
        for ridge in horizon:
            add_facet(tuple(sorted(ridge | {i})))
    incident = {}
    for verts, a, b in facets.values():
        for v in verts:
            incident.setdefault(v, set()).add((a, b))
    vertex_indices = sorted(v for v, keys in incident.items()
                            if _rank_fraction([list(a) for a, _ in keys]) == d)
    planes = {(a, b) for _, a, b in facets.values()}
    return HullResult(sorted(planes), [v for v, _, _ in facets.values()], vertex_indices, interior)


def _lp_fraction(c, A, b):
    """Two-phase Bland simplex on a Fraction tableau; x = x+ - x-, slacks, artificials."""
    m, n = len(A), len(c)

    def pivot(T, basis, row, col):
        T[row] = [x / T[row][col] for x in T[row]]
        for i in range(len(T)):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                T[i] = [x - f * y for x, y in zip(T[i], T[row])]
        basis[row] = col

    def simplex(T, basis, cost):
        while True:
            enter = next((j for j in range(len(T[0]) - 1) if j not in basis and
                          cost[j] - sum(cost[bv] * T[i][j] for i, bv in enumerate(basis)) > 0), -1)
            if enter < 0:
                return sum((cost[bv] * T[i][-1] for i, bv in enumerate(basis)), F(0))
            leave, best = -1, None
            for i in range(len(T)):
                if T[i][enter] > 0:
                    ratio = T[i][-1] / T[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            if leave < 0:
                raise Unbounded("oracle")
            pivot(T, basis, leave, enter)

    neg = [F(b[i]) < 0 for i in range(m)]
    nart, total = sum(neg), 2 * n + m
    T, basis, k = [], [], 0
    for i in range(m):
        s = -1 if neg[i] else 1
        row = [s * F(x) for x in A[i]] + [-s * F(x) for x in A[i]]
        row += [F(s if j == i else 0) for j in range(m)] + [F(0)] * nart + [s * F(b[i])]
        if neg[i]:
            row[total + k] = F(1)
            k += 1
        basis.append(total + k - 1 if neg[i] else 2 * n + i)
        T.append(row)
    if nart:
        if simplex(T, basis, [F(0)] * total + [F(-1)] * nart) < 0:
            raise Infeasible("oracle")
        for i in range(m):
            if basis[i] >= total:
                pivot(T, basis, i, next(j for j in range(total) if T[i][j] != 0))
        T = [row[:total] + [row[-1]] for row in T]
    cost = [F(x) for x in c] + [-F(x) for x in c] + [F(0)] * m
    value = simplex(T, basis, cost)
    x = [F(0)] * n
    for i, bv in enumerate(basis):
        if bv < 2 * n:
            x[bv % n] += T[i][-1] if bv < n else -T[i][-1]
    return LPResult(tuple(x), value)


def _random_matrix(rng, rows, cols, den):
    big = 10**12
    m = []
    for _ in range(rows):
        m.append([F(int(rng.integers(-4, 5)) * int(rng.choice([0, 1, 1, big // 997])),
                    int(rng.choice([1, den]))) for _ in range(cols)])
    if rows > 2 and rng.random() < 0.4:  # a dependent row
        m[-1] = [2 * x - 3 * y for x, y in zip(m[0], m[1])]
    return m


def test_linalg_against_fraction_elimination():
    rng = np.random.default_rng(1968)
    for trial in range(300):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        M = _random_matrix(rng, r, c, int(rng.choice([1, 2, 997])))
        rhs = [F(int(v), 997) for v in rng.integers(-5, 6, r)]
        S = [row[:r] + [F(0)] * (r - len(row[:r])) for row in M]
        assert rref(M) == _rref_fraction(M)
        assert rank(M) == _rank_fraction(M)
        assert nullspace(M, c) == _nullspace_fraction(M, c)
        assert solve_linear(M, rhs) == _solve_fraction(M, rhs)
        assert det(S) == _det_fraction(S)
        assert mat_inv(S) == _inv_fraction(S)
        assert primitive(M[0]) == _primitive_fraction(M[0])
        assert affine_basis([tuple(x) for x in M]) == _affine_basis_fraction(M)


def _sphere_points(d, params):
    """Rational points of the unit sphere in R^d (inverse stereographic projection)."""
    out = []
    for t in params:
        t = tuple(F(x) for x in t)
        q = sum(x * x for x in t)
        out.append(tuple(2 * x / (q + 1) for x in t) + ((q - 1) / (q + 1),))
    return out


def _hull_point_sets(d):
    rng = np.random.default_rng(1997 + d)
    sets = []
    for _ in range(12):
        count = int(rng.integers(d + 2, 14))
        sets.append([tuple(F(int(v), 4) for v in row) for row in rng.integers(-8, 9, (count, d))])
    big, tiny = 10**12, F(1, 997)
    for _ in range(4):  # numerators near 10^12, denominators 997
        raw = rng.integers(-5, 6, (d + 5, d))
        sets.append([tuple(big + F(int(v), 997) for v in row) for row in raw])
        sets.append([tuple(tiny * int(v) for v in row) for row in raw])
    grid = [F(j, 2) for j in range(3 if d == 4 else 5)]  # coplanar clusters on faces of a cube
    face_pts = [p for p in product(grid, repeat=d) if any(x in (0, grid[-1]) for x in p)]
    sets.append(face_pts)
    sets.append(face_pts[::-1] + [(grid[-1] / 2,) * d])
    ts = [F(v, 2) for v in range(-3, 4)]
    sets.append(_sphere_points(d, list(product(ts, repeat=d - 1))[::2 if d < 4 else 7]))
    sets.append(_sphere_points(d, list(product([-1, 0, 1, F(1, 3)], repeat=d - 1))))
    return sets


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hull_against_fraction_beneath_beyond(dim):
    merged = 0
    for pts in _hull_point_sets(dim):
        if _rank_fraction([[x - y for x, y in zip(p, pts[0])] for p in pts]) < dim:
            continue
        got = convex_hull(pts)
        assert got == _hull_fraction(pts), pts
        merged += len(got.simplices) > len(got.facets)
    assert merged or dim == 2  # coplanar simplices shared a facet at least once


def _lp_cases():
    rng = np.random.default_rng(1967)
    cases = []
    for _ in range(150):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        den = int(rng.choice([1, 3, 997]))
        A = [[F(int(v), int(rng.choice([1, den]))) for v in row]
             for row in rng.integers(-3, 4, (m, n))]
        b = [F(int(v), int(rng.choice([1, den]))) for v in rng.integers(-3, 5, m)]
        c = [F(int(v), int(rng.choice([1, den]))) for v in rng.integers(-2, 3, n)]
        cases.append((c, A, b))
    # degenerate vertices: many rows, some scaled copies, through one point
    for _ in range(40):
        n = int(rng.integers(2, 4))
        v = [F(int(x), 5) for x in rng.integers(-3, 4, n)]
        A = [[F(int(x)) for x in row] for row in rng.integers(-2, 3, (2 * n + 3, n))]
        A += [[997 * x for x in A[0]], [x / 997 for x in A[1]]]
        b = [sum((x * y for x, y in zip(row, v)), F(0)) for row in A]
        cases.append(([F(int(x)) for x in rng.integers(-1, 2, n)], A, b))
    # entries in {-1, 0, 1} inside a box: many ratio ties and non-unique optima,
    # where the vertex returned depends on Bland's tie-break
    for _ in range(300):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 1, 3 * n + 3))
        A = [[F(int(x)) for x in row] for row in rng.integers(-1, 2, (m, n))]
        A += [[F(s * int(j == i)) for j in range(n)] for s in (1, -1) for i in range(n)]
        b = [F(int(x)) for x in rng.integers(-1, 2, m)] + [F(2)] * (2 * n)
        cases.append(([F(int(x)) for x in rng.integers(-1, 2, n)], A, b))
    # equality pairs with a negative right-hand side, some duplicated (redundant rows)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        rows = [[F(int(x), int(rng.choice([1, 997]))) for x in row]
                for row in rng.integers(-2, 3, (n + 1, n))]
        vals = [F(-int(x) - 1, 3) for x in rng.integers(0, 4, n + 1)]
        A, b = [], []
        for row, val in list(zip(rows, vals)) + [(rows[0], vals[0])]:
            A += [row, [-x for x in row]]
            b += [val, -val]
        A += [[F(int(j == i)) for j in range(n)] for i in range(n)]
        b += [F(9)] * n
        cases.append(([F(int(x)) for x in rng.integers(-2, 3, n)], A, b))
    return cases


def test_lp_against_fraction_simplex():
    kinds = Counter()
    for c, A, b in _lp_cases():
        try:
            ref = _lp_fraction(c, A, b)
        except (Infeasible, Unbounded) as exc:
            with pytest.raises(type(exc)):
                lp_solve(c, A, b)
            kinds[type(exc).__name__] += 1
            continue
        assert lp_solve(c, A, b) == ref, (c, A, b)
        kinds["optimal"] += 1
    assert len(kinds) == 3, kinds


# ---------------------------------------------------------------------------
# the polytope layer: the two-hull from_halfspaces and the Fraction
# parametric_volume, kept as oracles for the integer one-hull versions
# ---------------------------------------------------------------------------

def _from_halfspaces_two_hulls(halfspaces, dim, interior=None):
    """Fraction rows, the polar dual hull for the vertices, then ``from_points``
    re-hulls them for the facets and the triangulation."""
    canon = {}
    for a, b in halfspaces:
        a, b = tuple(F(x) for x in a), F(b)
        if not any(a):
            if b < 0:
                return None
            continue
        p = primitive(a)
        j = next(i for i, x in enumerate(a) if x)
        a, b = p, b * p[j] / a[j]
        canon[a] = min(canon.get(a, b), b)
    rows = sorted(canon.items())
    if interior is not None:
        x0 = tuple(F(x) for x in interior)
        if not all(dot(a, x0) < b for a, b in rows):
            interior = None
    if interior is None:
        t, x0 = max_slack_point([list(a) for a, _ in rows], [b for _, b in rows])
        if t < 0:
            return None
        if t == 0:
            return Polytope._degenerate_from_halfspaces(rows, dim, x0)
    duals = [tuple(x / (b - dot(a, x0)) for x in a) for a, b in rows]
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


def _facet_weights_by_facet_hulls(P):
    """vol_{n-1}(F)/||a|| per facet by one hull per facet: dropping the
    coordinate j of largest |a_j| scales vol_{n-1}(F) by |a_j|/||a||."""
    out = []
    for a, b in P.halfspaces:
        j = max(range(P.dim), key=lambda i: abs(a[i]))
        pts = [v[:j] + v[j + 1:] for v in P.vertices if dot(a, v) == b]
        w = F(1) if P.dim == 1 else make_polytope(pts, P.dim - 1).volume_fraction() / abs(a[j])
        out.append((a, b, w))
    return tuple(out)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Unbounded:
        return Unbounded


def _halfspace_cases():
    """(rows, dim, interior hint) in dims 1-4: plain, redundant, weakly redundant,
    duplicate normals, hints valid/absent/invalid, empty, unbounded and flat."""
    rng = np.random.default_rng(1983)
    bodies = [make_polytope([(F(-1, 3),), (F(5, 2),)], 1)]
    for dim in (2, 3, 4):
        for seed in range(3 if dim < 4 else 2):
            bodies.append(make_body(BodySpec(
                "random_hull", dim, {"count": dim + 4, "radius": 2, "seed": seed})))
    bodies.append(make_polytope([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)], 3))
    bodies.append(make_polytope([tuple(s * int(i == j) for j in range(3))
                                 for i in range(3) for s in (1, -1)], 3))
    cases = []
    for P in bodies:
        dim, rows = P.dim, list(P.halfspaces)
        extra = []
        for _ in range(4):
            a = tuple(F(int(x)) for x in rng.integers(-3, 4, size=dim))
            if any(a):
                top = max(dot(a, v) for v in P.vertices)  # weakly redundant: tight at a face
                extra.append((a, top))
                extra.append((tuple(2 * x for x in a), 2 * top + F(1, 3)))
        a, b = rows[0]
        dup = [(tuple(3 * x for x in a), 3 * b), (a, b + 1), (a, b - F(1, 7))]
        inside = P.interior_point
        outside = tuple(x + 100 for x in inside)
        for hint in (None, inside, P.vertices[0], outside):
            cases.append((rows + extra + dup, dim, hint))
        cases.append((extra + rows[::-1], dim, inside))
        cases.append((rows + [(tuple(-x for x in a), -b - 1)], dim, None))  # empty
        cases.append((rows + [(tuple(-x for x in a), -b)], dim, None))  # the facet only
        cases.append((rows[1:] + [(tuple(-x for x in a), -b)], dim, inside))
        cases.append(([r for r in rows if r[0][0] > 0], dim, None))  # unbounded
        cases.append((rows + [((F(0),) * dim, F(-1))], dim, inside))  # 0 <= -1
    cases.append(([], 2, None))
    return cases


def test_from_halfspaces_against_two_hulls():
    full = flat = 0
    seen = Counter()
    for rows, dim, hint in _halfspace_cases():
        got = _outcome(Polytope.from_halfspaces, rows, dim, hint)
        want = _outcome(_from_halfspaces_two_hulls, rows, dim, hint)
        if want is None or want is Unbounded:
            assert got is want, (rows, hint)
            seen[want] += 1
            continue
        assert got.vertices == want.vertices, (rows, hint)
        assert got.halfspaces == want.halfspaces, (rows, hint)
        assert got.affine_dim == want.affine_dim
        assert got.interior_point == want.interior_point
        assert got.volume_fraction() == want.volume_fraction()
        if want.is_full_dimensional:
            assert got.facet_weights() == want.facet_weights()
            assert want.facet_weights() == _facet_weights_by_facet_hulls(want)
            full += 1
        else:
            flat += 1
    assert full >= 50 and flat >= 10 and seen[None] >= 10 and seen[Unbounded] >= 10


def _parametric_volume_fraction(rows, shifts, lo, hi, interior=None):
    """parametric_volume over Fractions: dot-scan active sets, Fraction paths,
    the largest interval around m where every path keeps every slack >= 0, and
    Fraction node determinants, on the triangulation of the same midpoint body.
    Returns (coeffs, a, b); (None, m, m) when a vertex splits at m."""
    lo, hi = F(lo), F(hi)
    m = (lo + hi) / 2
    rows = [(tuple(F(x) for x in a), F(b), F(c)) for (a, b), c in zip(rows, shifts)]
    dim = len(rows[0][0])
    Q = Polytope.from_halfspaces([(a, b + m * c) for a, b, c in rows], dim, interior)
    pts, simplices = Q._tri
    paths = []
    for v in pts:
        act = [(list(a), c) for a, b, c in rows if dot(a, v) == b + m * c]
        d = solve_linear([a for a, _c in act], [c for _a, c in act])
        if d is None:
            return None, m, m
        paths.append((v, d))
    a, b = lo, hi
    for v, d in paths:
        for row, off, c in rows:
            slack, rate = off + m * c - dot(row, v), c - dot(row, d)
            if rate > 0:
                a = max(a, m - slack / rate)
            elif rate < 0:
                b = min(b, m - slack / rate)

    def at(t):
        return [tuple(v[i] + (t - m) * d[i] for i in range(dim)) for v, d in paths]

    nodes = [a + (b - a) * F(j + 1, dim + 2) for j in range(dim + 1)]
    vals = []
    for t in nodes:
        xs = at(t)
        cen = tuple(sum(x[i] for x in xs) / len(xs) for i in range(dim))
        total = sum(abs(det([[x - c for x, c in zip(xs[i], cen)] for i in s])) for s in simplices)
        vals.append(total / math.factorial(dim))
    return _lagrange_coeffs(nodes, vals), a, b


def _parametric_cases():
    """(rows, shifts, lo, hi, hint) families for the parametric oracle."""
    rng = np.random.default_rng(1017)
    cases = []
    # seeded random panels, dims 1-3: random, homothetic and translating shifts
    bodies = [make_polytope([(F(-1, 2),), (F(7, 4),)], 1)]
    bodies += [make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": s}))
               for dim in (2, 3) for s in range(3)]
    # more than dim rows tight at a vertex: square-pyramid apex, octahedron vertices
    bodies.append(make_polytope([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)], 3))
    bodies.append(make_polytope([tuple(s * int(i == j) for j in range(3))
                                 for i in range(3) for s in (1, -1)], 3))
    for P in bodies:
        P = P.translated(tuple(-x for x in P.interior_point))  # b > 0 on every row
        rows = list(P.halfspaces)
        w = tuple(F(int(x), 3) for x in rng.integers(-3, 4, size=P.dim))
        families = [
            [F(int(x), 4) for x in rng.integers(-2, 3, size=len(rows))],
            [b for _a, b in rows],
            [dot(a, w) for a, _b in rows],
        ]
        for shifts in families:
            for lo, hi in ((F(0), F(1, 8)), (F(1, 16), F(1, 5))):
                cases.append((rows, shifts, lo, hi, None))
    # the ray engine: doubled rows, zero shifts on the first copy
    from zhangforge.moments import _overlap_point, ray_breakpoints

    for dim, raw in ((2, (1, 2)), (3, (1, 2, 2)), (3, (0, 1, -1))):
        P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": 1}))
        theta = Direction(raw)
        support = ray_support(P, theta)
        breaks = [F(0)] + ray_breakpoints(P, theta, support[0])
        rows = list(P.halfspaces) * 2
        shifts = [F(0)] * len(P.halfspaces) + [dot(a, theta.raw) for a, _b in P.halfspaces]
        for lo, hi in zip(breaks, breaks[1:]):
            hint = _overlap_point(P, (lo + hi) / 2, support)
            cases.append((rows, shifts, lo, hi, hint))
    # panels whose type changes inside: merged across a symmetral break, and
    # centred on it so that a vertex splits at the midpoint
    for dim in (2, 3):
        for seed in range(2):
            P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": seed}))
            S = steiner_symmetrize(P)
            heads = [(a, b) for a, b in S.halfspaces if any(a[:-1])]
            rows = [(a[:-1], b) for a, b in heads]
            shifts = [-a[-1] / 2 for a, _b in heads]
            breaks = sorted({2 * v[-1] for v in S.vertices if v[-1] >= 0} | {F(0)})
            for a, b, c in zip(breaks, breaks[1:], breaks[2:]):
                cases.append((rows, shifts, a, c, None))
                if 2 * b - a <= breaks[-1]:
                    cases.append((rows, shifts, a, 2 * b - a, None))
    return cases


def test_parametric_volume_against_fraction_paths():
    seen = Counter()
    for rows, shifts, lo, hi, hint in _parametric_cases():
        try:
            got = parametric_volume(rows, shifts, lo, hi, interior=hint)
        except DegenerateBody:
            continue
        want = _parametric_volume_fraction(rows, shifts, lo, hi, hint)
        assert got == want, (rows, shifts, lo, hi)
        _coeffs, a, b = want
        seen["whole" if (a, b) == (lo, hi) else "split" if a == b else "cut"] += 1
    assert seen["whole"] >= 60
    assert seen["split"] >= 5  # a vertex splits at the midpoint
    assert seen["cut"] >= 5  # consistent paths that leave the body inside the panel


def _assert_same_body(got, want, label):
    assert got.vertices == want.vertices, label
    assert got.halfspaces == want.halfspaces, label
    assert got.affine_dim == want.affine_dim, label
    assert got.volume_fraction() == want.volume_fraction(), label
    if want.is_full_dimensional:
        assert integer_rows(got) == integer_rows(want), label
        assert got.facet_weights() == want.facet_weights(), label
        assert got.contains(got.interior_point, strict=True), label


def _derived_body_cases():
    """Seeded random hulls in dims 2-4, bodies with many facets parallel to
    the axes, and lower-dimensional bodies."""
    bodies = [make_polytope([(F(-1, 3),), (F(5, 2),)], 1)]
    for dim in (2, 3, 4):
        for seed in range(4 if dim < 4 else 2):
            bodies.append(make_body(BodySpec(
                "random_hull", dim, {"count": dim + 4, "radius": 2, "seed": 40 + seed})))
        bodies.append(make_body(BodySpec("cube", dim, {"edge": [0, F(3, 2)]})))
        bodies.append(make_body(BodySpec("cross", dim, {"scale": 2})))
    bodies.append(make_polytope([(0, 0), (F(3, 2), F(1, 2))], 2))  # a segment
    bodies.append(make_polytope([(0, 0, 0), (2, 0, 1), (0, 1, 1)], 3))  # a triangle
    return bodies


def test_fattening_against_cube_minkowski_sum():
    flat = 0
    for P in _derived_body_cases():
        flat += not P.is_full_dimensional
        for k in range(1, P.dim + 1):
            want = minkowski_sum(P, closed_unit_cube(k, P.dim))
            _assert_same_body(fattening(P, k), want, (P.vertices, k))
    assert flat == 2


def test_affine_images_against_hull_of_mapped_vertices():
    seen = Counter()
    for P in _derived_body_cases():
        n = P.dim
        eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        shear = [row[:] for row in eye]
        shear[0][-1] += 3
        rational = [[F(i + 2 * j + 1, 3) if i != j else F(-2 + i, 2) - 1 for j in range(n)]
                    for i in range(n)]
        singular = [row[:] for row in eye]
        singular[-1] = [F(0)] * n
        maps = {"negation": [[-x for x in row] for row in eye], "shear": shear,
                "scale": [[F(5, 2) * x for x in row] for row in eye], "rational": rational,
                "singular": singular}
        for name, A in maps.items():
            b = [F(j - 1, 3) for j in range(n)]
            image = [tuple(dot(A[i], v) + b[i] for i in range(n)) for v in P.vertices]
            want = make_polytope(image, n)
            got = transform(P, A, b)
            _assert_same_body(got, want, (P.vertices, name))
            assert got.interior_point == want.interior_point
            seen[name, det(A) != 0] += 1
    assert seen["rational", True] >= 10 and seen["singular", False] >= 10
