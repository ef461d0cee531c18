"""Differential tests: exact kernel against independent numeric oracles."""

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from zhangforge import (
    Direction,
    axis_direction,
    difference_body,
    intersect,
    make_polytope,
    max_section_anchor,
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
from zhangforge.hull import convex_hull
from zhangforge.harness import (
    BodySpec,
    default_config,
    default_corpus,
    make_body,
    report_json,
    run_suite,
)
from zhangforge.inequalities import (
    BodyWorkspace,
    _B_exact,
    _discrete_star_volume,
    _g_profile,
    _h_exact,
    _profile_sum,
    _purely_discrete_zhang_sides,
    _solve_m0,
    _top_heights,
    applicability,
    diamond_extension,
    section_profiles,
    verify,
)
from zhangforge.lattice import (
    _column_walk,
    _columns,
    _floor_sum,
    _run_length_sum,
    _power_sums,
    _rows_mu,
    closed_unit_cube,
    column_count,
    column_length_sum,
    column_lengths,
    column_moment,
    count_lattice,
    fattened_mu,
    fattening,
    lattice_points,
    mu_measure,
    ray_decomposition,
)
from zhangforge.linalg import (
    _null_vectors,
    affine_basis,
    det,
    independent_rows,
    integer_points,
    integer_row,
    mat_inv,
    rref,
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
from zhangforge.polytope import (
    Polytope,
    _column_rows,
    _integer_interior,
    _line_ends,
    cube_sum,
    integer_rows,
    parametric_volume,
    projection_support,
)
from zhangforge.steiner import steiner_symmetrize

F = Fraction


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


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
    # exact in every rational direction, |theta| rational or not
    rng = np.random.default_rng(999)
    for _ in range(6):
        P = _random_body(rng, 2, count=6)
        for raw in [(1, 0), (0, 1), (2, 1), (1, 1), (-3, 2)]:
            assert RayMomentEngine(P, Direction(raw)).moment(2).exact is not None, raw


@pytest.mark.parametrize("dim, raws", [
    (2, [(1, 0), (0, 1), (3, 4), (-4, 3)]),
    (3, [(1, 1, 1), (0, 0, 1), (1, -2, 3), (0, 1, -1), (1, 2, 2), (2, 3, 6)]),
])
def test_ray_moment_against_engine(dim, raws):
    # the layer-cake of the linearly mapped body against the panel engine in
    # the same direction, both in units of theta.raw: equal rationals for
    # every direction, |theta| rational or not
    for seed in range(4):
        P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": seed}))
        for raw in raws:
            theta = Direction(raw)
            engine = RayMomentEngine(P, theta)
            for p in range(1, dim + 1):
                mine = ray_moment(P, theta, p).exact
                assert mine is not None and engine.moment(p).exact == mine, (seed, raw, p)


def test_projection_power_against_monte_carlo():
    # the exact layer-cake value against a Monte Carlo estimate built here
    # from sampled section lengths over the projection's bounding box
    rng = np.random.default_rng(5150)
    for i in range(4):
        P = _random_body(rng, 3)
        boxvol, ell = mc_section_samples(P, seed=600 + i, nsamp=200_000)
        dist = section_distribution(steiner_symmetrize(P))
        for p in (1, 2, 3):
            exact = float(projection_power_moment(dist, p).exact)
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
        dist = section_distribution(steiner_symmetrize(P))
        assert dist.reach == dist.pieces[-1][1]
        # vol(PK) off the symmetral's facet weights, the body's, and the distribution at 0
        e_n = axis_direction(P.dim).raw
        assert dist.projvol == projection_support(P, e_n) == dist.pieces[0][2][0], P
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


@pytest.mark.parametrize("name", ["cross3", "rand3_11", "tiny2", "slab2"])
def test_blocked_moment_against_the_full_table(name, monkeypatch):
    # discrete_moment_batch clips a few directions at a time; with blocks of
    # 7 (several blocks, a partial last one) and of 2 it equals the
    # full-table reduction of _interval_batch bit for bit, on the sample
    # directions and on a count D = 1 mod 7, whose last block takes 8.  The
    # open passes take the strictly-inside path; the closed passes of cross3
    # and rand3_11 clip lattice points on facets (c = 0) by the full table,
    # and tiny2 and slab2 have no closed lattice point at all (G = 0)
    import zhangforge.moments as moments
    from zhangforge.moments import _clip_moment, discrete_moment_batch

    P = make_body({b.name: b for b in default_corpus()}[name])
    full_calls = []
    real = moments._clip_table

    def counting(S, C, strict):
        full_calls.append(S.shape[1])
        return real(S, C, strict)

    monkeypatch.setattr(moments, "_clip_table", counting)
    dirs = BodyWorkspace(P).sample_dirs
    paths = set()
    for block in (7, 2):
        monkeypatch.setattr(moments, "_BLOCK", block)
        for D in (len(dirs), 15):
            for open_cube in (True, False):
                k = P.dim if open_cube else 0
                Y = _float_points(lattice_points(P, k))
                Y = Y.reshape(len(Y), P.dim)
                for p in (1, 2):
                    full = _interval_batch(fattening(P, k), Y, dirs[:D], open_cube)
                    want = _clip_moment(full, p)
                    del full_calls[:]
                    got = discrete_moment_batch(P, dirs[:D], p, open_cube)
                    assert got.tobytes() == want.tobytes(), (name, block, D, open_cube, p)
                    assert all(2 <= w <= block + 1 for w in full_calls)
                    paths.add((open_cube, bool(full_calls)))
    assert (True, False) in paths
    assert ((False, True) in paths) == (name in ("cross3", "rand3_11"))


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
            pr = section_profiles(S)
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
            assert lattice_points(P, k) == want, (P, k)
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


def test_power_sums_against_direct_sums():
    # the recurrence (e+1) S_e = (j+1)^(e+1) - sum_{i<e} C(e+1, i) S_i against
    # sum_{k<=j} k^e, with 0^0 = 1
    for j in range(101):
        assert _power_sums(j, 8) == [sum(k**e for k in range(j + 1)) for e in range(9)], j


def test_m0_against_term_sums():
    # m0 solves h_p(m0) G = sum_k p k^(p-1) f~(k): a rational root comes back
    # exact (every n = 2 root is rational), an irrational one as a bracket of
    # width < 1e-12 inside one integer segment, straddling the target
    solved = Counter()
    for dim in (2, 3, 4):
        for s in range(300, 308 if dim < 4 else 306):
            ws = BodyWorkspace(make_body(
                BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": s})))
            if applicability("completely_discrete_berwald", ws) is not None:
                continue
            pr = ws.profiles
            for p in (1, 2, 3):
                target = sum(((v if p == 1 else 0) if k == 0 else p * F(k) ** (p - 1) * v
                              for k, v in pr.f_tilde.items()), F(0)) / pr.G_proj
                lo, hi = _solve_m0(pr, p)
                if lo == hi:
                    assert _h_terms(lo, p, dim) == target, (dim, s, p)
                else:
                    assert dim > 2, (s, p, lo, hi)
                    assert _h_terms(lo, p, dim) < target <= _h_terms(hi, p, dim), (dim, s, p)
                    assert 0 < hi - lo < F(1, 10**12)
                    assert hi <= math.floor(lo) + 1
                solved[dim, lo == hi] += 1
    assert solved[2, True] >= 6 and solved[3, False] >= 6 and solved[4, False] >= 3, solved


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


def test_projection_reads_against_the_projection_hull():
    # the route the workspace replaced becomes the oracle: vol_{n-1}(PK) by
    # Cauchy's formula and G_{n-1}(PK) as the number of integer columns,
    # against the hull of the vertices with the last coordinate dropped
    bodies = [make_body(spec) for spec in default_corpus()]
    bodies += [make_body(BodySpec("random_hull", dim, {"count": dim + 5, "radius": 2, "seed": s}))
               for dim in (2, 3, 4) for s in range(6)]
    bodies += [P.translated(tuple(F(2 * i + 1, 3 + i) for i in range(P.dim))) for P in bodies]
    assert {P.dim for P in bodies} == {2, 3, 4}
    for P in bodies:
        proj = project_drop_last(P)
        assert projection_support(P, axis_direction(P.dim).raw) == proj.volume_fraction(), P
        assert len(column_lengths(P)) == count_lattice(proj), P
        assert column_count(P) == count_lattice(proj), P


def test_suite_builds_no_projection_hull(monkeypatch):
    # with ``project_drop_last`` raising in every module that binds it, the
    # default report is byte-identical to an unstubbed run
    want = report_json(run_suite(default_config()))

    def stub(P):
        raise AssertionError("a projection hull was built")

    patched = set()
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "zhangforge" and hasattr(mod, "project_drop_last"):
            monkeypatch.setattr(mod, "project_drop_last", stub)
            patched.add(name)
    assert {"zhangforge", "zhangforge.polytope"} <= patched
    assert report_json(run_suite(default_config())) == want


# -- the memoized, stepped column table against ``_line_ends`` per column --

def _column_table_by_box_scan(P, k):
    """``_line_ends`` on each integer column of the k-fattening's bounding box
    alone, each row's residual from its own dot product."""
    fat = fattening(P, k)
    rows = _column_rows(fat, k)
    box = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in fat.bounding_box()[:-1]]
    return tuple((y, ends) for y in product(*box)
                 for ends in _line_ends(rows, y) if ends is not None)


def _column_table_cases():
    """(body, ks): the corpus and its symmetrals with k = 0..n, the corpus
    with n < 4 scaled by 4 and 16, a prism whose slanted vertical facet cuts
    columns out of the box, 1-d bodies (an empty prefix box: two segments
    and the projections of the planar corpus bodies), the lattice bodies
    with k = 0..n, and seeded rational hulls with n = 2, 3 and k = 0..n at
    dilates 1, 4, 16 and 64, on some of whose lines the strict vertical
    facets start or end the admitted run inside an envelope piece, and two
    seeded hulls with n = 4 and the symmetral of one, with k = 0..n."""
    corpus = [make_body(spec) for spec in default_corpus()]
    cases = [(P, range(P.dim + 1)) for P in corpus]
    cases += [(steiner_symmetrize(P), range(P.dim + 1)) for P in corpus]
    cases += [(P.scaled(lam), (0, P.dim - 1)) for P in corpus if P.dim < 4 for lam in (4, 16)]
    cases.append((make_polytope([(x, y, z) for x, y in ((0, 0), (F(5, 2), 0), (0, F(7, 3)))
                                 for z in (F(-1, 2), F(3, 2))], 3), range(4)))
    cases += [(make_polytope([(F(-3, 2),), (F(5, 2),)], 1), (0, 1)),
              (make_polytope([(F(1, 3),), (F(1, 2),)], 1), (0, 1))]
    cases += [(project_drop_last(P), (0, 1)) for P in corpus if P.dim == 2]
    cases += [(P, range(P.dim + 1)) for P in _lattice_bodies()]
    rng = np.random.default_rng(37)
    cases += [(P.scaled(lam), range(dim + 1)) for dim in (2, 3) for _ in range(2)
              for P in (_random_body(rng, dim, count=dim + 4, den=15),) for lam in (1, 4, 16, 64)]
    fours = [make_body(BodySpec("random_hull", 4, {"count": 9, "radius": 2, "seed": s}))
             for s in (0, 1)]
    cases += [(P, range(5)) for P in fours + [steiner_symmetrize(fours[0])]]
    return cases


def _line_pieces(P, k):
    """Brute force over each line of the k-fattening's box in the last
    coordinate of the columns: (first, last, pieces), the first and the last
    column the vertical rows admit, counted from the line's start, and each
    column's joint envelope piece.  A piece is a run of columns over which
    the binding upper row and the binding lower row (least bound, then least
    step) stay the same affine functions along the line.  Lines that the
    vertical rows leave empty, or with no upper or no lower row, are left
    out."""
    fat = fattening(P, k)
    parts = {1: [], -1: [], 0: []}
    for a, num, den in integer_rows(fat):
        parts[(a[-1] > 0) - (a[-1] < 0)].append((a, num - any(a[:k]), den))
    if not parts[1] or not parts[-1]:
        return
    # each row's slack c - den <a', y> times Q / (den |a_n|), Q the lcm of its
    # part (1 for the vertical rows), as (m, c, den a') per part
    scaled = {}
    for sgn, part in parts.items():
        Q = math.lcm(*(den * abs(a[-1]) for a, _c, den in part)) if sgn else 1
        scaled[sgn] = [(Q // (den * abs(a[-1])) if sgn else 1, c, [den * x for x in a[:-1]])
                       for a, c, den in part]
    box = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in fat.bounding_box()[:-1]]
    for head in product(*box[:-1]):
        # each row's scaled slack along the line as (value at t = 0, step)
        lines = {sgn: [(m * (c - dot(h[:-1], head)), -m * h[-1]) for m, c, h in rows]
                 for sgn, rows in scaled.items()}
        admitted, pieces, keys = [], [], None
        for t in box[-1]:
            if all(v + s * t >= 0 for v, s in lines[0]):
                admitted.append(len(pieces))
            # the binding row of each part as (step, value at t = 0)
            key = [min((v + s * t, s, v) for v, s in lines[sgn])[1:] for sgn in (1, -1)]
            pieces.append(pieces[-1] + (key != keys) if pieces else 0)
            keys = key
        if admitted:
            yield admitted[0], admitted[-1], pieces


def _expanded(table):
    """A run table's columns as (y, (lo_n, Qd, hi_n, Qu)), the per-column
    table the runs replaced."""
    Qd, Qu, lines = table
    return tuple((y, (lo_n, Qd, hi_n, Qu)) for y, lo_n, hi_n in _columns(lines))


def _column_moment_per_column(P, p):
    """The route ``column_moment`` replaced: one Fraction per column."""
    total = F(0)
    for _y, (lo_n, lo_d, hi_n, hi_d) in _expanded(_column_walk(P)):
        ts = range(-(-lo_n // lo_d), hi_n // hi_d + 1)
        total += F(sum((t * lo_d - lo_n) ** p for t in ts), lo_d**p)
    return total


def test_column_table_against_box_scan_of_single_columns():
    kinds = Counter()
    for P, ks in _column_table_cases():
        for k in ks:
            table = _column_walk(P, k)
            assert _expanded(table) == _column_table_by_box_scan(P, k), (P, k)
            assert _column_walk(P, k) is table  # built once per (P, k)
            if k == 0 and P.dim > 1:  # the ends against the rows in Fractions
                for y, (lo_n, lo_d, hi_n, hi_d) in _expanded(table):
                    assert (F(lo_n, lo_d), F(hi_n, hi_d)) == _section_fraction(P, y), (P, y)
            for first, last, pieces in _line_pieces(P, k) if P.dim > 1 else ():
                # a piece boundary among the columns that the vertical rows
                # leave out before (after) the admitted run: a walk must skip
                # the pieces before the run and stop at its end
                kinds["run starts inside a later piece"] += first > 0 and pieces[first - 1] > 0
                kinds["run ends inside an earlier piece"] += (
                    last + 1 < len(pieces) and pieces[last + 1] < pieces[-1])
        kinds["1-d"] += P.dim == 1
        # a vertical facet whose residual steps along the box's lines
        kinds["stepped flat row"] += any(a[-1] == 0 and a[-2] != 0 for a, _b in P.halfspaces)
        if P.dim < 2:
            continue
        lengths = column_lengths(P)
        assert mu_measure(P).exact == sum(lengths.values(), F(0))
        for e in (1, 2, 3):
            assert column_length_sum(P, e) == sum((v**e for v in lengths.values()), F(0))
        for p in (1, P.dim):
            assert column_moment(P, p) == _column_moment_per_column(P, p), (P, p)
    assert kinds["1-d"] and kinds["stepped flat row"], kinds
    assert kinds["run starts inside a later piece"] and kinds["run ends inside an earlier piece"], kinds


def test_run_sums_against_per_column_sums():
    # the closed forms per run (floor sums, power sums, top heights) against
    # the same sums over the expanded columns, for every k
    kinds = Counter()
    for P, ks in _column_table_cases():
        for k in ks:
            table = _column_walk(P, k)
            cols = _expanded(table)
            counts = [hi_n // hi_d + (-lo_n // lo_d) + 1 for _y, (lo_n, lo_d, hi_n, hi_d) in cols]
            assert min(counts, default=0) >= 0, (P, k)
            assert count_lattice(P, k) == sum(counts) == len(lattice_points(P, k)), (P, k)
            for e in (1, 2, 3, P.dim + 1):
                want = sum((F(hi_n * lo_d - lo_n * hi_d, hi_d * lo_d) ** e
                            for _y, (lo_n, lo_d, hi_n, hi_d) in cols), F(0))
                assert _run_length_sum(table, e) == want, (P, k, e)
            want = Counter(hi_n // hi_d for _y, (_lo, _ld, hi_n, hi_d) in cols)
            assert _top_heights(table) == dict(want), (P, k)
            for j0, j1, _lo, dlo, _hi, dhi in (run for line in table[2] for run in line[2]):
                kinds["length-1 run"] += j1 - j0 == 1
                kinds["negative step"] += dlo < 0 or dhi < 0
                kinds["steep run"] += abs(dhi) > table[1]
            kinds[f"n = {P.dim}"] += 1
    assert all(kinds[f"n = {n}"] for n in (1, 2, 3, 4)), kinds
    assert kinds["length-1 run"] and kinds["negative step"] and kinds["steep run"], kinds


def test_floor_sum_against_brute_force():
    # sum_{i<n} floor((a i + b) / m) for signed a, b, including n = 0 and m = 1
    rng = np.random.default_rng(41)
    for _ in range(3000):
        n = int(rng.integers(0, 40))
        m = int(rng.integers(1, 60))
        a, b = (int(x) for x in rng.integers(-500, 500, size=2))
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), (n, m, a, b)
    big = 10**12 + 39
    assert _floor_sum(10**5, big, -(10**9 + 7), big - 1) == sum(
        (-(10**9 + 7) * i + big - 1) // big for i in range(10**5))


def test_column_table_has_one_denominator_pair():
    # every run's ends are over Qd and Qu, the lcm of den*|a_n| over the
    # fattening's lower and upper rows
    for P, ks in _column_table_cases():
        for k in ks:
            rows = integer_rows(fattening(P, k))
            Qu = math.lcm(*(den * a[-1] for a, _num, den in rows if a[-1] > 0))
            Qd = math.lcm(*(-den * a[-1] for a, _num, den in rows if a[-1] < 0))
            assert _column_walk(P, k)[:2] == (Qd, Qu)


def test_column_table_raises_unbounded_at_the_box_scans_column():
    # not a polytope: {2 <= x <= 3, y >= 0} over the box 0 <= x <= 3; the
    # vertical rows leave out the columns x = 0, 1 and x = 2 has no upper row
    rows = (((-1, 0), -2, 1), ((0, -1), 0, 1), ((1, 0), 3, 1))
    strip = Polytope(2, 2, ((0, 0), (3, 0)), 1, rows, (F(5, 2), F(1)), None)
    crows = _column_rows(strip)
    assert [_line_ends(crows, (x,)) for x in (0, 1)] == [[None], [None]]
    with pytest.raises(Unbounded) as want:
        _line_ends(crows, (2,))
    with pytest.raises(Unbounded) as got:
        column_lengths(strip)
    assert str(got.value) == str(want.value) == "vertical line section over (2,)/1 is unbounded"


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


def _diamond_values_by_sections(ws, proj):
    """The per-column route: the upper end of the fattened symmetral's vertical
    section over each integer point of the projection's open fattening."""
    fat = fattening(ws.asym, ws.n - 1)
    out = {}
    for y in lattice_points(proj, ws.n - 1):
        seg = vertical_section(fat, y)
        out[y] = F(0) if seg is None else seg.hi
    return out


def test_column_reads_against_point_routes():
    cases = _workspace_cases()
    assert {ws.n for ws in cases} == {2, 3, 4}
    for ws in cases:
        pr = ws.profiles
        counts = Counter(x[:-1] for x in lattice_points(ws.asym))
        assert (pr.G_proj, pr.zero_count, pr.max_count) == (
            len(counts), counts[(0,) * (ws.n - 1)], max(counts.values())), ws.body
        for prof, k in ((pr.f, 0), (pr.f_tilde, ws.n - 1)):
            heights = Counter(x[-1] for x in lattice_points(ws.asym, k) if x[-1] >= 0)
            assert list(prof.items()) == sorted(heights.items()), (ws.body, k)
        assert pr.M == max(pr.f)
        proj = project_drop_last(ws.anchored)
        assert pr.G_proj == ws.G_proj == count_lattice(proj)
        got = ws.diamond_values
        want = _diamond_values_by_sections(ws, proj)
        assert list(got.items()) == list(want.items()), ws.body
        assert tuple(got) == _box_scan(proj, ws.n - 1)  # the open rule, independently
        assert all(type(v) is F for v in got.values())
        # the integer read, summed per denominator, against the diamond values
        assert fattened_mu(ws.asym) == 2 * sum(got.values(), F(0)), ws.body
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
    b1, bn = (float(_B_exact(F(m0), p, n)) for p in (1, n + 1))
    return (n + 1) * b1 ** (n + 1) / bn * 2.0**n * float(sum_abs)


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
    """Monotone chain (d = 2) or beneath-beyond (d >= 3) over Fractions:
    (facets (a, b), simplices, vertex indices)."""
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
        facets = []
        for k in range(len(ring)):
            i, j = ring[k], ring[(k + 1) % len(ring)]
            a = _primitive_fraction((points[j][1] - points[i][1], points[i][0] - points[j][0]))
            facets.append((a, dotf(a, points[i])))
        simplices = [(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))]
        return facets, simplices, sorted(ring)

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
    return sorted(planes), [v for v, _, _ in facets.values()], vertex_indices


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
        S = [row[:r] + [F(0)] * (r - len(row[:r])) for row in M]
        assert rref(M) == _rref_fraction(M)
        assert len(independent_rows([integer_row(row)[0] for row in M])) == _rank_fraction(M)
        assert det(S) == _det_fraction(S)
        assert mat_inv(S) == _inv_fraction(S)
        assert affine_basis(integer_points(M)[0]) == _affine_basis_fraction(M)
        # the null vectors are the primitive multiples of the Fraction basis
        pivots, vectors = _null_vectors([integer_row(row)[0] for row in M], c)
        assert pivots == _rref_fraction(M)[1]
        assert vectors == [_primitive_fraction(v) for v in _nullspace_fraction(M, c)]
    assert _null_vectors([], 3) == ([], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


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
    if d == 3:
        sets.append(_polar_zonotope_points(make_body(BodySpec(
            "random_hull", 3, {"count": 6, "radius": 2, "seed": 100}))))
        sets.append(_dual_points(make_body(BodySpec(
            "random_hull", 3, {"count": 6, "radius": 2, "seed": 101}))))
    return sets


def _polar_zonotope_points(P):
    """The points ±c/h_ΠK(c) that ``polar_projection_body`` hulls for a 3-d P,
    one denominator per point: c the cross product of two facet normals,
    parallel normals repeated."""
    rows = [a for a, _num, _den in integer_rows(P)]
    pts = []
    for (a0, a1, a2), (b0, b1, b2) in combinations(rows, 2):
        c = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        if any(c):
            h = projection_support(P, c)
            pts += [tuple(x / h for x in c), tuple(-x / h for x in c)]
    return pts


def _dual_points(P):
    """The dual points a/(b - <a, x0>) of P's rows about its interior point
    x0, cleared to ``int``s as ``Polytope.from_int_rows`` hulls them; two
    weakly redundant rows put dual points on dual facets, and a row parallel
    to a facet's, with a larger offset, puts one inside."""
    x0 = _interior(P)
    rows = list(P.halfspaces)
    for a in ((1, 1, 1), (2, -1, 0)):
        rows.append((a, max(dot(a, v) for v in P.vertices)))
    a, b = rows[0]
    rows.append((a, b + 1))
    Y, _ = integer_points([tuple(x / (b - dot(a, x0)) for x in a) for a, b in rows])
    assert all(type(x) is int for y in Y for x in y)
    return Y


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hull_against_fraction_beneath_beyond(dim):
    merged = 0
    for pts in _hull_point_sets(dim):
        if _rank_fraction([[x - y for x, y in zip(p, pts[0])] for p in pts]) < dim:
            continue
        got = convex_hull(pts)
        facets = [(tuple(map(F, a)), F(b, got.den)) for a, b in got.planes]
        assert (facets, got.simplices, got.vertex_indices) == _hull_fraction(pts), pts
        merged += len(got.simplices) > len(got.planes)
    assert merged or dim == 2  # coplanar simplices shared a facet at least once


def _normal_sets(rng, d: int) -> list[list[tuple[int, ...]]]:
    """Seeded sets of nonzero integer normals in R^d of every rank 1..d:
    integer combinations of r random generators, so parallel (r = 1) and
    coplanar (r < d) sets come up as often as spanning ones, plus the
    signed unit vectors and a few duplicated and negated normals."""
    sets = []
    for _ in range(300):
        r = int(rng.integers(1, d + 1))
        gens = rng.integers(-3, 4, (r, d))
        coeffs = rng.integers(-2, 3, (int(rng.integers(1, 8)), r))
        normals = [tuple(int(x) for x in row) for row in coeffs @ gens if any(row)]
        if normals:
            normals += [tuple(-x for x in normals[0]), normals[-1]]
            sets.append(normals)
    units = [tuple(s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    sets += [units[:k] for k in range(1, len(units) + 1)]
    return sets


@pytest.mark.parametrize("d", [3, 4])
def test_extreme_point_test_against_rank(d):
    # the hull calls a point extreme when its incident normals span R^d;
    # in d = 3 it looks for a nonzero triple product instead of a rank
    from zhangforge.hull import _spans

    rng = np.random.default_rng(3100 + d)
    ranks = Counter()
    for normals in _normal_sets(rng, d):
        want = _rank_fraction(normals)
        ranks[want] += 1
        assert _spans(set(normals), d) == (want == d), normals
        assert _spans(normals, d) == (want == d), normals
        assert _spans(normals[::-1], d) == (want == d), normals
    assert all(ranks[r] >= 10 for r in range(1, d + 1)), ranks


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
# the polytope layer: the two-hull from_halfspaces, the Fraction flat sets
# and the Fraction parametric_volume, kept as oracles for the integer
# versions
# ---------------------------------------------------------------------------

def _scale_pair_fraction(a, b):
    """(a, b) scaled by the positive factor that makes a primitive."""
    p = _primitive_fraction(a)
    j = next(i for i, x in enumerate(a) if x != 0)
    return p, b * p[j] / a[j]


def _flat_from_points_fraction(uniq, dim):
    """The hull of the sorted distinct rational points ``uniq`` of affine
    dimension r < dim, over Fractions: coordinates z with x = origin +
    sum z_k dirs_k through the left inverse of the Gram matrix of the
    affinely independent directions, one hull in those coordinates, its
    facets mapped back, and the equalities from the Fraction nullspace of the
    directions."""
    basis = _affine_basis_fraction(uniq)
    r = len(basis) - 1
    origin = uniq[basis[0]]
    dirs = [tuple(x - y for x, y in zip(uniq[i], origin)) for i in basis[1:]]
    ginv = _inv_fraction([[dot(di, dj) for dj in dirs] for di in dirs])
    M = [tuple(sum(ginv[k][j] * dirs[j][i] for j in range(r)) for i in range(dim))
         for k in range(r)]
    verts, halfspaces = [origin], []
    if r:
        hull = convex_hull([tuple(dot(M[k], [x - y for x, y in zip(p, origin)])
                                  for k in range(r)) for p in uniq])
        verts = sorted(uniq[i] for i in hull.vertex_indices)
        for az, B in hull.planes:
            a_amb = tuple(sum(az[k] * M[k][i] for k in range(r)) for i in range(dim))
            halfspaces.append(_scale_pair_fraction(a_amb, F(B, hull.den) + dot(a_amb, origin)))
    for nrm in _nullspace_fraction([list(d) for d in dirs], dim):
        a = _primitive_fraction(nrm)
        halfspaces += [(a, dot(a, origin)), (tuple(-x for x in a), -dot(a, origin))]
    V, L = integer_points(verts)
    V = tuple(V)
    rows = sorted((tuple(int(x) for x in a), b.numerator, b.denominator)
                  for a, b in set(halfspaces))
    return Polytope(dim, r, V, L, tuple(rows), _integer_interior(V, L), None)


def _flat_from_halfspaces_fraction(rows, dim, x0):
    """The set of the canonical Fraction rows (a, b) whose max-slack point x0
    has slack 0: the rows with zero slack over it (one LP each) are its
    equalities, and the rows restricted to x0 + their Fraction nullspace
    give its vertices, hulled by :func:`_flat_from_points_fraction`."""
    eq_rows = []
    for a, b in rows:
        res = lp_solve([-x for x in a], [list(r) for r, _ in rows], [c for _, c in rows])
        if -res.value == b:
            eq_rows.append(a)
    basis = _nullspace_fraction([list(a) for a in eq_rows], dim)
    if not basis:
        return _flat_from_points_fraction([x0], dim)
    red = []
    for a, b in rows:
        az = tuple(dot(a, nb) for nb in basis)
        if any(az):
            red.append((az, b - dot(a, x0)))
    sub = Polytope.from_halfspaces(red, len(basis))
    amb = {tuple(x0[i] + sum(z[k] * basis[k][i] for k in range(len(basis))) for i in range(dim))
           for z in sub.vertices}
    return _flat_from_points_fraction(sorted(amb), dim)


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
        a, b = _scale_pair_fraction(a, b)
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
            return _flat_from_halfspaces_fraction(rows, dim, x0)
    duals = [tuple(x / (b - dot(a, x0)) for x in a) for a, b in rows]
    try:
        dual_hull = convex_hull(duals)
    except DegenerateBody as exc:
        raise Unbounded("halfspace intersection is unbounded") from exc
    verts = []
    for u, C in dual_hull.planes:
        if C <= 0:
            raise Unbounded("halfspace intersection is unbounded")
        verts.append(tuple(x0[i] + F(u[i] * dual_hull.den, C) for i in range(dim)))
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


def _tri(P):
    """P's boundary triangulation with its points as rationals: (points, simplices)."""
    points, den, simplices = P._tri
    return tuple(tuple(F(x, den) for x in p) for p in points), simplices


def _point(pair):
    """The rational point z/D of an integer pair (z, D)."""
    z, D = pair
    return tuple(F(x, D) for x in z)


def _interior(P):
    """P's interior point as rationals, from its integer pair (Z, D)."""
    return _point(P._interior)


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
        inside = _interior(P)
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
        assert got._interior == want._interior
        assert got.volume_fraction() == want.volume_fraction()
        if want.is_full_dimensional:
            assert got.facet_weights() == want.facet_weights()
            assert want.facet_weights() == _facet_weights_by_facet_hulls(want)
            full += 1
        else:
            flat += 1
    assert full >= 50 and flat >= 10 and seen[None] >= 10 and seen[Unbounded] >= 10


def _flat_point_sets():
    """Seeded point sets of affine dimension r < n in n = 2..4: a rational
    origin plus combinations of r tilted integer directions over a
    denominator, with the coefficients on a half-integer grid, so that
    several points share a facet, and some off it."""
    rng = np.random.default_rng(2945)
    sets = []
    for n in (2, 3, 4):
        for r in range(n):
            for _ in range(8):
                origin = tuple(F(int(x), int(d)) for x, d in zip(rng.integers(-6, 7, n),
                                                                  rng.integers(1, 5, n)))
                dirs = rng.integers(-3, 4, (r, n))
                den = int(rng.choice([1, 3, 7]))
                pts = []
                for _ in range(int(rng.integers(r + 1, r + 9))):
                    lam = [F(int(x), 2) for x in rng.integers(0, 4, r)]
                    if rng.random() < 0.2:
                        lam = [F(int(x), 5) for x in rng.integers(0, 16, r)]
                    pts.append(tuple(o + sum((k * int(w[i]) for k, w in zip(lam, dirs)), F(0)) / den
                                     for i, o in enumerate(origin)))
                sets.append((pts, n))
    return sets


def _flat_halfspace_sets(flat_bodies):
    """(family, integer rows, dim) with an empty interior, mostly: the rows
    of flat bodies with loosened and scaled copies, the touching
    intersections K cap (K + v - w) for the vertices v, w of K extreme along
    u and -u, and the top slices of Steiner symmetrals.  Prisms over random
    bases touch along a whole facet."""
    sets = []
    for P in flat_bodies:
        rows = list(integer_rows(P))
        extra = [(tuple(3 * x for x in a), 3 * num, den) for a, num, den in rows[::2]]
        extra += [(a, num + den, den) for a, num, den in rows[1::3]]
        extra += [(tuple(2 * x for x in a), 6 * num + 1, 3 * den) for a, num, den in rows[::4]]
        sets.append(("flat body", rows + extra, P.dim))
    rng = np.random.default_rng(1676)
    bodies = [make_body(BodySpec("random_hull", n, {"count": n + 4, "radius": 2, "seed": s}))
              for n, seeds in ((2, 3), (3, 3), (4, 1)) for s in range(seeds)]
    bodies += [make_body(BodySpec(fam, n)) for fam in ("cube", "cross", "simplex") for n in (2, 3)]
    bodies.append(make_body(BodySpec("simplex", 4)))
    for n in (2, 3, 4):
        base = [tuple(F(int(x), 2) for x in row) for row in rng.integers(-4, 5, (n + 2, n - 1))]
        bodies.append(make_polytope([p + (F(0),) for p in base] + [p + (F(3, 2),) for p in base], n))
    for P in bodies:
        normals = [a for a, _b in P.halfspaces][:2] + [axis_direction(P.dim).raw]
        normals += [tuple(F(int(x)) for x in rng.integers(-3, 4, P.dim)) for _ in range(2)]
        for u in normals:
            if not any(u):
                continue
            # the lex-least vertices of the top and the bottom face
            v = min(P.vertices, key=lambda x: (-dot(u, x), x))
            w = min(P.vertices, key=lambda x: (dot(u, x), x))
            T = translate(P, tuple(x - y for x, y in zip(v, w)))
            sets.append(("touching", list(integer_rows(P)) + list(integer_rows(T)), P.dim))
        S = steiner_symmetrize(P)
        h = max(x[-1] for x in S.vertices)
        sets.append(("top slice", [(a[:-1], num * h.denominator - den * a[-1] * h.numerator,
                                    den * h.denominator) for a, num, den in integer_rows(S)],
                     P.dim - 1))
    return sets


def _flat_fields(P):
    return P._V, P._L, P._rows, P.affine_dim, P._interior


def test_flat_sets_against_fraction_oracles(monkeypatch):
    # the integer flat paths of from_points and from_int_rows against the
    # Fraction Gram-matrix and nullspace routes; a flat from_points builds
    # one hull and solves no LP, a flat halfspace set with m canonical rows
    # two hulls and m + 2 LPs (none and m + 1 for a point)
    import zhangforge.lp as lp
    import zhangforge.polytope as poly

    hulls, lps = [], []
    real_hull, real_lp = poly.convex_hull, lp.lp_solve

    def counted_hull(points):
        hull = real_hull(points)
        hulls.append(hull)
        return hull

    def counted_lp(*args):
        lps.append(args)
        return real_lp(*args)

    monkeypatch.setattr(poly, "convex_hull", counted_hull)
    monkeypatch.setattr(poly, "lp_solve", counted_lp)
    monkeypatch.setattr(lp, "lp_solve", counted_lp)

    def cost(fn, *args):
        del hulls[:], lps[:]
        return fn(*args), len(hulls), len(lps)

    seen = Counter()
    flat_bodies = []
    for pts, n in _flat_point_sets():
        got, nhull, nlp = cost(make_polytope, pts, n)
        want = _flat_from_points_fraction(sorted(set(pts)), n)
        assert _flat_fields(got) == _flat_fields(want), pts
        assert (nhull, nlp) == (int(want.affine_dim > 0), 0), pts
        seen["points", n, want.affine_dim] += 1
        flat_bodies.append(got)
    for family, rows, n in _flat_halfspace_sets(flat_bodies):
        got, nhull, nlp = cost(Polytope.from_int_rows, rows, n)
        want = _from_halfspaces_two_hulls([(a, F(num, den)) for a, num, den in rows], n)
        assert _flat_fields(got) == _flat_fields(want), rows
        if not want.is_full_dimensional:
            m = len({tuple(x // math.gcd(*a) for x in a) for a, _num, _den in rows if any(a)})
            assert (nhull, nlp) == ((2, m + 2) if want.affine_dim else (0, m + 1)), rows
        seen[family, n, want.affine_dim] += 1
    assert all(seen["points", n, r] >= 5 for n in (2, 3, 4) for r in range(n)), seen
    assert all(seen["flat body", n, r] >= 5 for n in (2, 3, 4) for r in range(n)), seen
    assert sum(k for (fam, _n, r), k in seen.items() if fam == "touching" and r) >= 15, seen
    assert sum(k for (fam, n, r), k in seen.items() if fam == "top slice" and r < n) >= 10, seen


# -- the integer kernel against the rational adapter, the lazy rational views
# against an eager hull, and the integer producers against their rational-row
# forms, kept as oracles --

def _same_kernel_outcome(got, want, label):
    """The same None, ``Unbounded`` or polytope, with the same vertices,
    halfspaces, integer rows, interior pair, incidences and triangulation."""
    if want is None or want is Unbounded:
        assert got is want, label
        return
    assert got.vertices == want.vertices and got.halfspaces == want.halfspaces, label
    assert integer_rows(got) == integer_rows(want) and got.affine_dim == want.affine_dim, label
    assert got._interior == want._interior, label
    assert got._incidence == want._incidence and got._tri == want._tri, label


def _int_rows(rows):
    """Each rational row (a, b), cleared to <A, x> <= B, as the integer row
    (q A, q^2 B, q): a normal that is not primitive, over a denominator q."""
    ints = []
    for i, (a, b) in enumerate(rows):
        X, _ = integer_row(list(a) + [F(b)])
        q = i % 3 + 1
        ints.append(([q * x for x in X[:-1]], q * q * X[-1], q))
    return ints


def test_from_int_rows_against_from_halfspaces():
    # the rows as _int_rows; the rational hint x as the integer pair
    # (2 X, 2 L), not in lowest terms
    seen = Counter()
    for rows, dim, hint in _halfspace_cases():
        ints = _int_rows(rows)
        pair = None
        if hint is not None:
            X, L = integer_row([F(x) for x in hint])
            pair = ([2 * x for x in X], 2 * L)
        want = _outcome(Polytope.from_halfspaces, rows, dim, hint)
        _same_kernel_outcome(_outcome(Polytope.from_int_rows, ints, dim, pair), want, (rows, hint))
        seen[want if want is None or want is Unbounded else want.is_full_dimensional] += 1
    assert seen[True] >= 50 and seen[False] >= 10 and seen[None] >= 10 and seen[Unbounded] >= 10


def test_from_int_rows_incidence_against_fraction_tight_rows():
    # per vertex, the input rows tight there, recounted with Fraction dot
    # products: duplicated rows (a normal scaled by 3, or the same row over
    # another denominator) and weakly redundant rows are tight where their
    # plane touches, and a row with a larger offset never is
    full = with_spare = 0
    for rows, dim, hint in _halfspace_cases():
        pair = None if hint is None else integer_row([F(x) for x in hint])
        P = _outcome(Polytope.from_int_rows, _int_rows(rows), dim, pair)
        if P is None or P is Unbounded or not P.is_full_dimensional:
            continue
        assert len(P._incidence) == len(P.vertices), (rows, hint)
        for v, got in zip(P.vertices, P._incidence):
            want = [i for i, (a, b) in enumerate(rows) if any(a) and dot(a, v) == b]
            assert sorted(got) == want, (rows, hint, v)
            with_spare += len(want) > dim
        full += 1
    assert full >= 50 and with_spare > 0


def _views_match_an_eager_hull(Q, label):
    """Q's rational views against a fresh hull of its vertices, and Q's
    integer vertices and triangulation points over their least common
    denominators."""
    fresh = make_polytope(Q.vertices, Q.dim)
    assert Q.vertices == fresh.vertices and Q.halfspaces == fresh.halfspaces, label
    assert integer_rows(Q) == integer_rows(fresh), label
    assert Q.bounding_box() == fresh.bounding_box(), label
    assert Q.volume_fraction() == fresh.volume_fraction(), label
    V, L = integer_points(Q.vertices)
    assert (tuple(V), L) == (Q._V, Q._L), label
    if Q._tri is not None:
        X, LX, _simplices = Q._tri
        pts, _ = _tri(Q)
        assert integer_points(pts) == (list(X), LX), label


def test_each_constructor_builds_views_equal_to_an_eager_hull():
    # the pyramid has a point on a base edge, with its own denominator, in
    # its triangulation; the last two bodies are flat
    pyramid = make_polytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2),
                             (F(2, 3), 0, 0)], 3)
    assert pyramid._tri[0] is not pyramid._V and pyramid._tri[1] == 3
    bodies = [make_body(spec) for spec in default_corpus()]
    bodies += [make_polytope([(F(-1, 3),), (F(5, 2),)], 1), pyramid]
    bodies += [make_body(BodySpec("random_hull", dim, {"count": dim + 4, "radius": 2,
                                                       "seed": 3})) for dim in (2, 3, 4)]
    bodies += [make_polytope([(0, 0, 0), (1, 2, F(1, 3))], 3),
               make_polytope([(0, 0), (1, 0), (F(1, 2), 0)], 2)]
    made = Counter()
    for P in bodies:
        n = P.dim
        t = tuple(F(k + 1, 3) for k in range(n))
        A = [[F(i + 1, j + 2) if i != j else F(3) for j in range(n)] for i in range(n)]
        images = {"from_points": make_polytope(P.vertices, n), "translated": P.translated(t),
                  "scaled": make_polytope(P.vertices, n).scaled(3), "transform": transform(P, A, t)}
        if P.is_full_dimensional:
            images["from_int_rows"] = Polytope.from_int_rows(integer_rows(P), n)
            images["cube_sum"] = cube_sum(P, n)
        for name, Q in images.items():
            _views_match_an_eager_hull(Q, (P, name))
            made[name] += 1
    assert len(made) == 6 and min(made.values()) >= len(bodies) - 2


def _overlap_point_by_fractions(P, r, support):
    """``moments._overlap_point`` over Fractions: (1 - lam) c + lam w, lam = r/R,
    for P's interior point c and the ray_support witness w."""
    R, witness = support
    lam = r / R
    return tuple((1 - lam) * c + lam * w for c, w in zip(_interior(P), witness))


def _overlap_shifts(P, theta):
    """The rate c of each rational row (a, b + r c) of K cap (r theta.raw + K),
    r >= 0: <a, theta.raw> where that is negative, else 0 (K's own row)."""
    return [min(dot(a, theta.raw), F(0)) for a, _b in P.halfspaces]


def _overlap_by_rational_rows(P, theta, r, support):
    """The overlap hull over rational rows: each row of K shifted by
    r min(<a, theta.raw>, 0), through ``from_halfspaces``, hinted by the
    Fraction form of ``_overlap_point`` below the reach."""
    rows = [(a, b + r * c) for (a, b), c in zip(P.halfspaces, _overlap_shifts(P, theta))]
    hint = _overlap_point_by_fractions(P, r, support) if 0 <= r < support[0] else None
    return Polytope.from_halfspaces(rows, P.dim, interior=hint)


def _symmetral_by_rational_rows(P):
    """``steiner._symmetral`` over rational rows: the vertical facets and the
    pairs +-2 pu (-pl) t <= (-pl)(bu - <au, y>) + pu (bl - <al, y>)."""
    rows, uppers, lowers = [], [], []
    for a, b in P.halfspaces:
        if a[-1] == 0:
            rows.append((a, b))
        else:
            (uppers if a[-1] > 0 else lowers).append((a[:-1], a[-1], b))
    for au, pu, bu in uppers:
        for al, pl, bl in lowers:
            ay = tuple(-pl * x + pu * y for x, y in zip(au, al))
            rows += [(ay + (s * 2 * pu * -pl,), -pl * bu + pu * bl) for s in (1, -1)]
    return Polytope.from_halfspaces(rows, P.dim, interior=_interior(P)[:-1] + (F(0),))


def test_integer_producers_against_their_rational_row_forms(monkeypatch):
    # the symmetral, the overlaps K cap (K + r e_n) (covariogram_on_ray's hull
    # below the reach, the rows' unhinted hull from it on) and the midpoint
    # body of each ray engine panel, on the corpus and on 10 criterion-8 n = 3
    # hulls
    from zhangforge.moments import _overlap_point, ray_breakpoints
    from zhangforge.polytope import _overlap_rows, _rows_at
    from zhangforge.steiner import _symmetral

    built = []
    real = Polytope.from_int_rows
    monkeypatch.setattr(Polytope, "from_int_rows",
                        staticmethod(lambda *a, **k: built.append(real(*a, **k)) or built[-1]))
    checked = Counter()
    for spec in default_corpus() + _fuzz_specs(10)[10:]:
        P = make_body(spec)
        _same_kernel_outcome(_symmetral(P), _symmetral_by_rational_rows(P), spec)
        e_n = axis_direction(P.dim)
        support = ray_support(P, e_n)
        R = support[0]
        rows = _overlap_rows(P, e_n)
        for r in (R / 3, R / 2):
            del built[:]
            covariogram_on_ray(P, e_n, r, support=support)
            assert len(built) == 1, (spec, r)
            _same_kernel_outcome(built[0], _overlap_by_rational_rows(P, e_n, r, support), (spec, r))
        for r in (R, R + 1):
            _same_kernel_outcome(Polytope.from_int_rows(_rows_at(rows, r), P.dim),
                                 _overlap_by_rational_rows(P, e_n, r, support), (spec, r))
        shifts = _overlap_shifts(P, e_n)
        breaks = [F(0)] + ray_breakpoints(P, e_n, R)
        for lo, hi in zip(breaks, breaks[1:]):
            m = (lo + hi) / 2
            hint = _overlap_point(P, m, support)
            assert _point(hint) == _overlap_point_by_fractions(P, m, support), (spec, m)
            del built[:]
            parametric_volume(rows, lo, hi, interior=hint)
            want = Polytope.from_halfspaces([(a, b + m * c) for (a, b), c in
                                             zip(P.halfspaces, shifts)], P.dim, _point(hint))
            _same_kernel_outcome(built[0], want, (spec, lo, hi))
            checked["midpoint"] += 1
        checked["body"] += 1
    assert checked["body"] == 24 and checked["midpoint"] >= 48


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
    pts, simplices = _tri(Q)
    paths = []
    for v in pts:
        act = [(list(a), c) for a, b, c in rows if dot(a, v) == b + m * c]
        d = _solve_fraction([a for a, _c in act], [c for _a, c in act])
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
    return list(_solve_fraction([[t**k for k in range(dim + 1)] for t in nodes], vals)), a, b


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
        P = P.translated(tuple(-x for x in _interior(P)))  # b > 0 on every row
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
    # the ray engine's panels: its rows, one per row of K, and K's rows twice,
    # the second copy shifted (a redundant row per facet, a duplicate where
    # <a, theta> = 0)
    from zhangforge.moments import _overlap_point, ray_breakpoints

    for dim, raw in ((2, (1, 2)), (3, (1, 2, 2)), (3, (0, 1, -1))):
        P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": 1}))
        theta = Direction(raw)
        support = ray_support(P, theta)
        breaks = [F(0)] + ray_breakpoints(P, theta, support[0])
        doubled = [F(0)] * len(P.halfspaces) + [dot(a, theta.raw) for a, _b in P.halfspaces]
        for rows, shifts in ((list(P.halfspaces), _overlap_shifts(P, theta)),
                             (list(P.halfspaces) * 2, doubled)):
            for lo, hi in zip(breaks, breaks[1:]):
                hint = _point(_overlap_point(P, (lo + hi) / 2, support))
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
            ints = [integer_row(list(a) + [b, c])[0] for (a, b), c in zip(rows, shifts)]
            got = parametric_volume(ints, lo, hi, interior=hint and integer_row(hint))
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
        assert got.contains(_interior(got), strict=True), label


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
            assert got._interior == want._interior
            seen[name, det(A) != 0] += 1
    assert seen["rational", True] >= 10 and seen["singular", False] >= 10


# -- the lattice reach against the two-sided Fraction clip it replaced --

def ray_interval(body, point, raw, strict=False):
    """(lo, hi) of {r >= 0 : point - r*raw in body} in raw-direction units, or
    None: the two-sided clip against every halfspace, one Fraction per row.
    ``strict`` asks for the open interior of ``body`` (endpoints then open).
    With raw = W/L and point = Y/D over integers, the body's primitive
    integer normals a and b = num/den, the row <a, point - r raw> <= b reads
    r <a, W> D den >= (<a, Y> den - num D) L."""
    L = math.lcm(*(F(x).denominator for x in raw))
    D = math.lcm(*(F(x).denominator for x in point))
    W = [int(F(x) * L) for x in raw]
    Y = [int(F(x) * D) for x in point]
    lo, hi = F(0), None
    for a, b in body.halfspaces:
        a = [x.numerator for x in a]
        s = sum(x * w for x, w in zip(a, W))
        c = sum(x * y for x, y in zip(a, Y)) * b.denominator - b.numerator * D
        if s == 0:
            if c > 0 or (strict and c == 0):
                return None
        elif s > 0:
            lo = max(lo, F(c * L, s * D * b.denominator))
        else:
            t = F(c * L, s * D * b.denominator)
            hi = t if hi is None else min(hi, t)
    if hi is None or lo > hi or (strict and lo == hi):
        return None
    return lo, hi


def _reach_bodies():
    """The origin-containing corpus bodies and criterion-8 hulls (15 with
    n = 2, 5 with n = 3), the 4-simplex and a triangle in the plane x_3 = 0
    around 0."""
    fuzz = _fuzz_specs(40)
    bodies = [make_body(spec) for spec in [*default_corpus(), BodySpec("simplex", 4)]]
    for family, count in ((fuzz[:40], 15), (fuzz[40:], 5)):
        bodies += [P for P in map(make_body, family) if P.contains((F(0),) * P.dim)][:count]
    bodies.append(make_polytope([(-1, -1, 0), (2, 0, 0), (0, F(5, 2), 0)], 3))
    return [P for P in bodies if P.contains((F(0),) * P.dim)]


def _reach_directions(P, count, rng):
    """The axes both ways, directions parallel to facets (a row with
    <a, W> = 0), then random rational ones, ``count`` in all."""
    n = P.dim
    dirs = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    for a, _b in P.halfspaces:
        a = [int(x) for x in a]
        j = next(i for i, x in enumerate(a) if x)
        k = (j + 1) % n
        w = [0] * n
        w[j], w[k] = -a[k], a[j]  # <a, w> = 0
        if any(w):
            dirs.append(tuple(w))
        if len(dirs) >= count // 2:
            break
    while len(dirs) < count:
        w = tuple(F(int(x), int(d)) for x, d in zip(rng.integers(-7, 8, size=n),
                                                      rng.integers(1, 6, size=n)))
        if any(w):
            dirs.append(w)
    return dirs


def test_ray_reach_against_the_fraction_clip():
    # every lattice point of K (or of its open fattening) starts inside: the
    # clip's lower end is 0 and its upper end is the reach
    rng = np.random.default_rng(2718)
    bodies = _reach_bodies()
    dims = Counter(P.dim for P in bodies)
    assert len(bodies) == 33 and dims == {2: 22, 3: 10, 4: 1}
    flat = parallel = 0
    for P in bodies:
        flat += not P.is_full_dimensional
        for w in _reach_directions(P, 60, rng):
            raw = tuple(F(x) for x in w)
            parallel += any(dot(a, raw) == 0 for a, _b in P.halfspaces)
            for open_cube in (False, True):
                d = ray_decomposition(P, Direction(raw), open_cube=open_cube)
                k = P.dim if open_cube else 0
                assert d.open_cube is open_cube
                assert [y for y, _rho in d.entries] == list(lattice_points(P, k))
                body = fattening(P, k)
                for y, rho in d.entries:
                    assert type(rho) is F
                    assert ray_interval(body, y, raw, open_cube) == (0, rho), (P, w, y)
    assert flat == 1 and parallel >= 100


# -- the longest-section anchor read off the symmetral's top face, against the
# two-copy LP it replaced --

def _lex_min_over(A, b, coords, fixed=None):
    """Lexicographically smallest point of {x : A x <= b} in its first ``coords``
    coordinates, each fixed by one LP; ``fixed`` holds extra equality rows
    (row, value), used to pin an optimal objective level before breaking ties."""
    rows = [list(r) for r in A]
    rhs = list(b)
    for row, val in fixed or ():
        rows += [list(row), [-v for v in row]]
        rhs += [val, -val]
    n = len(rows[0])
    point = []
    for j in range(coords):
        c = [F(0)] * n
        c[j] = F(-1)
        vj = lp_solve(c, rows, rhs).x[j]
        point.append(vj)
        e = [F(int(i == j)) for i in range(n)]
        rows += [e, [-v for v in e]]
        rhs += [vj, -vj]
    return tuple(point)


def _lp_section_anchor(P):
    """max (t2 - t1) over (y, t1), (y, t2) in P, then the lex-min y over the
    optimal face."""
    n = P.dim
    rows, rhs = [], []
    for a, b in P.halfspaces:
        rows += [list(a[:-1]) + [a[-1], F(0)], list(a[:-1]) + [F(0), a[-1]]]
        rhs += [b, b]
    obj = [F(0)] * (n - 1) + [F(-1), F(1)]
    best = lp_solve(obj, rows, rhs)
    return _lex_min_over(rows, rhs, n - 1, fixed=[(obj, best.value)])


def test_lex_tie_break():
    # maximize x+y on the square has the whole edge optimal; lex-min is (0,...)
    A = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]
    b = [1, 0, 1, 0, 1]
    res = lp_solve([1, 1], A, b)
    assert res.value == 1
    pt = _lex_min_over(A, b, 2, fixed=[([F(1), F(1)], F(1))])
    assert pt == (F(0), F(1))


def test_max_section_anchor_against_lp():
    # random hulls, and the cube, simplex and cross families, whose longest
    # sections fill a whole face (lex-min ties), moved off the origin
    specs = [BodySpec("random_hull", n, {"count": n + 4, "radius": 2, "seed": s})
             for n, seeds in ((2, 10), (3, 8), (4, 4)) for s in range(seeds)]
    specs += [BodySpec("cube", n, {"edge": edge}) for n in (2, 3, 4)
              for edge in ([0, 1], ["-1/2", "3/2"])]
    specs += [BodySpec(fam, n, {"scale": scale}) for fam in ("simplex", "cross")
              for n in (2, 3, 4) for scale in (1, "5/3")]
    bodies = [make_body(spec) for spec in specs]
    bodies += [P.translated(tuple(F(i + 1, 3) for i in range(P.dim))) for P in bodies]
    for P in bodies:
        assert max_section_anchor(P) == _lp_section_anchor(P), P


def _route_b_nodes(P):
    """The radii at which ``identity_triple_discrete``'s route B reads
    mu(K cap (r e_n + K)): two nodes inside each gap between consecutive
    distinct positive column lengths."""
    ells = sorted({ell for ell in column_lengths(P).values() if ell > 0})
    nodes = []
    for lo, hi in zip([F(0)] + ells, ells):
        nodes += [lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3]
    return nodes


def _fuzz_specs(count_per_dim):
    """Criterion 8's bodies: the first seeds of its n = 2 and n = 3 families."""
    return ([BodySpec("random_hull", 2, {"count": 8, "radius": 2, "seed": s})
             for s in range(count_per_dim)]
            + [BodySpec("random_hull", 3, {"count": 6, "radius": 2, "seed": 100 + s})
               for s in range(count_per_dim)])


def test_overlap_against_intersect_of_a_translate(monkeypatch):
    # the hinted overlap that covariogram_on_ray hulls against K cap (K + r e_n)
    # built from a translate, at route B's nodes on the corpus and on 20
    # criterion-8 hulls; the overlaps take no LP once the e_n support is known
    import zhangforge.polytope as poly
    from zhangforge.polytope import _overlap_rows, _rows_at

    real = poly.max_slack_point
    real_rows = Polytope.from_int_rows
    lps = []
    built = []
    checked = 0
    for spec in default_corpus() + _fuzz_specs(10):
        P = make_body(spec)
        e_n = axis_direction(P.dim)
        support = ray_support(P, e_n)
        monkeypatch.setattr(poly, "max_slack_point", lambda *a: lps.append(a) or real(*a))
        for r in _route_b_nodes(P):
            monkeypatch.setattr(Polytope, "from_int_rows", staticmethod(
                lambda *a, **k: built.append(real_rows(*a, **k)) or built[-1]))
            g = covariogram_on_ray(P, e_n, r, support=support)
            monkeypatch.setattr(Polytope, "from_int_rows", staticmethod(real_rows))
            Q = built.pop()
            ref = intersect(P, translate(P, (F(0),) * (P.dim - 1) + (r,)))
            assert Q.vertices == ref.vertices and Q.halfspaces == ref.halfspaces, (spec, r)
            assert _tri(Q) == _tri(ref), (spec, r)
            assert g == Q.volume_fraction() == ref.volume_fraction(), (spec, r)
            assert mu_measure(Q).exact == mu_measure(ref).exact, (spec, r)
            checked += 1
        monkeypatch.setattr(poly, "max_slack_point", real)
    # the intersects took one LP each, the overlaps none
    assert len(lps) == checked and checked > 100 and not built
    # at and beyond the reach the overlap is the intersect too, unhinted
    P = make_body(default_corpus()[0])
    e_n = axis_direction(P.dim)
    support = ray_support(P, e_n)
    for r in (support[0], support[0] + 1):
        ref = intersect(P, translate(P, (F(0),) * (P.dim - 1) + (r,)))
        assert Polytope.from_int_rows(_rows_at(_overlap_rows(P, e_n), r), P.dim) == ref
        assert covariogram_on_ray(P, e_n, r, support=support) == 0


def test_route_b_row_read_against_the_hulled_overlap():
    # identity_triple_discrete's route B reads mu(K cap (r e_n + K)) off the
    # overlap's integer rows over K's bounding box, with no hull; at each of
    # its nodes that is mu of the overlap hulled from a translate, on the
    # corpus and on 20 criterion-8 hulls
    from zhangforge.polytope import _overlap_rows, _rows_at

    checked = 0
    for spec in default_corpus() + _fuzz_specs(10):
        P = make_body(spec)
        rows = _overlap_rows(P, axis_direction(P.dim))
        for r in _route_b_nodes(P):
            want = mu_measure(intersect(P, translate(P, (F(0),) * (P.dim - 1) + (r,)))).exact
            assert _rows_mu(_rows_at(rows, r), P) == want, (spec, r)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", ["cube2", "rand3_11"])
def test_route_b_without_the_shifted_rows_does_not_hold(monkeypatch, name):
    # a mutation check: with the down rows (<a, e_n> < 0) left unshifted, the
    # overlap's rows are K's own, route B reads mu(K) at every node and the
    # triple fails
    import zhangforge.inequalities as ineq

    P = make_body(next(spec for spec in default_corpus() if spec.name == name))
    assert verify("identity_triple_discrete", P).holds
    monkeypatch.setattr(ineq, "_overlap_rows", lambda body, theta: [
        [den * x for x in a] + [num, 0] for a, num, den in integer_rows(body)])
    assert not verify("identity_triple_discrete", P).holds


def test_overlap_rows_against_intersect_of_a_translate():
    # one overlap row per row of K; the rows' hull at r in {0, R/3, R/2, R,
    # R + 1}, hinted below the reach as covariogram_on_ray hints it, against
    # K cap (r theta + K) hulled from a translate, in vertices, rows, volume
    # and lattice count, on the corpus and 10 criterion-8 n = 3 hulls, along
    # e_n and two rational directions that are not axes
    from zhangforge.moments import _overlap_point
    from zhangforge.polytope import _overlap_rows, _rows_at

    seen = Counter()
    for spec in default_corpus() + _fuzz_specs(10)[10:]:
        P = make_body(spec)
        n = P.dim
        for raw in ((0,) * (n - 1) + (1,), (1, -2, 3)[:n], (F(1, 2), F(2, 3), F(-3, 4))[:n]):
            theta = Direction(raw)
            rows = _overlap_rows(P, theta)
            assert len(rows) == len(integer_rows(P)), (spec, raw)
            support = ray_support(P, theta)
            R = support[0]
            for r in (F(0), R / 3, R / 2, R, R + 1):
                hint = _overlap_point(P, r, support) if r < R else None
                Q = Polytope.from_int_rows(_rows_at(rows, r), n, interior=hint)
                ref = intersect(P, translate(P, tuple(r * w for w in theta.raw)))
                label = (spec, raw, r)
                if ref is None:
                    assert Q is None, label
                    seen["empty"] += 1
                    continue
                assert Q.vertices == ref.vertices and Q.halfspaces == ref.halfspaces, label
                assert integer_rows(Q) == integer_rows(ref), label
                assert Q.volume_fraction() == ref.volume_fraction(), label
                assert count_lattice(Q) == count_lattice(ref), label
                seen["full" if Q.is_full_dimensional else "flat"] += 1
    assert seen["empty"] == seen["flat"] == 3 * 24 and seen["full"] == 3 * 3 * 24, seen


def _covariogram_points(P):
    """x for the covariograms: 0, a grid with negative entries, the vertices
    of K - K and midpoints of its vertex pairs on its boundary, and points
    past the vertices."""
    D = difference_body(P)
    steps = (-2, -1, F(-1, 2), 0, F(1, 3), 1) if P.dim < 3 else (-1, F(-1, 2), 0, 1)
    xs = list(product(steps, repeat=P.dim))
    xs += D.vertices
    xs += [tuple(2 * c for c in v) for v in D.vertices]
    xs += [m for v, w in combinations(D.vertices, 2)
           for m in [tuple((a + b) / 2 for a, b in zip(v, w))]
           if D.contains(m) and not D.contains(m, strict=True)]
    return xs


def test_covariograms_against_intersect_of_a_translate():
    # covariogram and discrete_covariogram against the volume and the lattice
    # count of K cap (x + K) hulled from a translate, on corpus bodies, flat
    # bodies and 1-d bodies
    from zhangforge.lattice import discrete_covariogram
    from zhangforge.moments import covariogram

    corpus = {spec.name: make_body(spec) for spec in default_corpus()}
    bodies = [corpus[name] for name in ("simplex2", "rand2_7", "slab2", "simplex3", "cross3")]
    bodies += [make_polytope([(0, 0), (2, 1)], 2), make_polytope([(F(-1, 2), 1), (F(5, 2), 1)], 2),
               make_polytope([(0, 0, 1), (2, 0, 1), (0, 2, 1)], 3),
               make_polytope([(F(-3, 2),), (F(5, 2),)], 1), make_polytope([(0,), (3,)], 1)]
    seen = Counter()
    for P in bodies:
        for x in _covariogram_points(P):
            ref = intersect(P, translate(P, x))
            vol = F(0) if ref is None else ref.volume_fraction()
            count = 0 if ref is None else count_lattice(ref)
            assert covariogram(P, x).exact == vol, (P, x)
            assert discrete_covariogram(P, x) == count, (P, x)
            seen["empty" if ref is None else "positive" if vol else "count" if count else "zero"] += 1
        seen["flat"] += not P.is_full_dimensional
        seen["1-d"] += P.dim == 1
    assert min(seen.values()) >= 2, seen


def _ray_support_by_rational_rows(P, theta):
    """``ray_support`` over the rational rows: max r subject to <a, x> <= b
    and <a, x> - r <a, theta.raw> <= b for each halfspace (a, b) of P."""
    n = P.dim
    rows, rhs = [], []
    for a, b in P.halfspaces:
        rows += [list(a) + [F(0)], list(a) + [-dot(a, theta.raw)]]
        rhs += [b, b]
    res = lp_solve([F(0)] * n + [F(1)], rows, rhs)
    return res.value, res.x[:n]


def test_ray_support_against_the_rational_row_lp():
    # the LP over the integer overlap rows has the rational-row LP's reach,
    # and its witness u has u and u - R theta in K, on the corpus and 10
    # criterion-8 n = 3 hulls, along e_n and two other rational directions
    checked = 0
    for spec in default_corpus() + _fuzz_specs(10)[10:]:
        P = make_body(spec)
        n = P.dim
        for raw in ((0,) * (n - 1) + (1,), (1, -2, 3)[:n], (F(1, 2), F(2, 3), F(-3, 4))[:n]):
            theta = Direction(raw)
            R, u = ray_support(P, theta)
            assert R == _ray_support_by_rational_rows(P, theta)[0], (spec, raw)
            assert P.contains(u) and P.contains(tuple(x - R * w for x, w in zip(u, theta.raw)))
            checked += 1
    assert checked == 3 * 24


def test_power_integral_against_fraction_sum():
    # one Fraction over one integer numerator against the term-by-term
    # Fraction sum, on seeded rational coefficients and ends
    from zhangforge.moments import _power_integral

    rng = np.random.default_rng(2029)

    def rational():
        return F(int(rng.integers(-40, 41)), int(rng.choice([1, 2, 3, 7, 12, 997])))

    for _ in range(400):
        coeffs = [rational() if rng.random() < 0.8 else F(0)
                  for _ in range(int(rng.integers(1, 6)))]
        alpha, beta = sorted((abs(rational()), abs(rational())))
        q = int(rng.integers(0, 6))
        oracle = sum((c * (beta ** (q + k + 1) - alpha ** (q + k + 1)) / (q + k + 1)
                      for k, c in enumerate(coeffs) if c), F(0))
        assert _power_integral(coeffs, alpha, beta, q) == oracle
        assert _power_integral(coeffs, alpha, beta, float(q)) == oracle
    assert _power_integral([F(0), F(0)], F(0), F(1), 2) == 0


def _polar_projection_body_by_nullspace(P):
    """Π*K from the Fraction nullspace of each (n-1)-subset of facet normals."""
    from itertools import combinations

    pts = []
    for sub in combinations([a for a, _b, _w in P.facet_weights()], P.dim - 1):
        basis = _nullspace_fraction([list(a) for a in sub], P.dim)
        if len(basis) == 1:
            c = basis[0]
            h = projection_support(P, c)
            pts += [tuple(x / h for x in c), tuple(-x / h for x in c)]
    return Polytope.from_points(pts, P.dim)


def test_polar_projection_body_against_nullspace_normals():
    # n = 4 on the small families only: a random 4-d hull's zonotope takes seconds
    specs = default_corpus() + _fuzz_specs(6)
    specs += [BodySpec(fam, n) for fam in ("cube", "cross", "simplex") for n in (2, 3, 4)]
    for spec in specs:
        P = make_body(spec)
        got, ref = polar_projection_body(P), _polar_projection_body_by_nullspace(P)
        assert got.vertices == ref.vertices and got.halfspaces == ref.halfspaces, spec
        assert _tri(got) == _tri(ref) and got.volume_fraction() == ref.volume_fraction(), spec


def test_carried_symmetral_equals_a_fresh_one():
    # the symmetral read off by the anchor and moved with the body, against
    # the symmetral of a copy of the anchored body that carries nothing
    for spec in _fuzz_specs(8):
        spec = BodySpec(spec.family, spec.dim, spec.params, anchor=True)
        body = make_body(spec)
        carried = steiner_symmetrize(body)
        fresh = steiner_symmetrize(make_polytope(body.vertices, body.dim))
        assert carried.vertices == fresh.vertices, spec
        assert carried.halfspaces == fresh.halfspaces, spec
        assert _tri(carried) == _tri(fresh) and carried._interior == fresh._interior
        assert max_section_anchor(body) == (F(0),) * (body.dim - 1)
