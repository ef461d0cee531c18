import math
from fractions import Fraction

import numpy as np
import pytest

from zhangforge import Direction, axis_direction, make_polytope, vertical_section, volume
from zhangforge.errors import DimensionMismatch, ExponentOutOfRange, RouteUnsupported
from zhangforge.harness import default_corpus, make_body
from zhangforge.lattice import discrete_ray_moment, lattice_points, ray_decomposition
from zhangforge.moments import (
    SOURCES,
    RayMomentEngine,
    covariogram,
    discrete_moment,
    facet_angles,
    polar_projection_radial,
    projection_power_moment,
    radial_Rp,
    radial_ball_body,
    radial_batch,
    ray_moment,
    ray_support,
    section_distribution,
    section_power_integral,
    slab_moment,
    star_volume,
)
from zhangforge.steiner import steiner_symmetrize

F = Fraction
E2 = axis_direction(2)


def _dist(P):
    return section_distribution(steiner_symmetrize(P))


class TestCovariogram:
    def test_examples(self, unit_square):
        assert covariogram(unit_square, (F(1, 2), 0)).exact == F(1, 2)
        assert covariogram(unit_square, (0, 0)).exact == 1
        assert covariogram(unit_square, (2, 0)).exact == 0

    def test_value_at_zero_is_volume(self, triangle, simplex3):
        for P in (triangle, simplex3):
            assert covariogram(P, tuple(0 for _ in range(P.dim))).exact == volume(P).exact

    def test_support_is_difference_body(self, triangle):
        from zhangforge import difference_body

        D = difference_body(triangle)
        for x in [(F(3, 2), 0), (0, F(3, 2)), (F(1), F(1))]:
            assert not D.contains(x, strict=True)
            assert covariogram(triangle, x).exact == 0


def _three_routes(P, theta, p):
    # the ray engine, the symmetral slab and the projection-power form
    return (RayMomentEngine(P, theta).moment(p), slab_moment(_dist(P), p),
            projection_power_moment(_dist(P), p))


class TestRoutes:
    @pytest.mark.parametrize(
        "p,expected", [(1, F(1, 2)), (2, F(1, 3))]
    )
    def test_unit_square_routes(self, unit_square, p, expected):
        for mv in _three_routes(unit_square, E2, p):
            assert mv.exact == expected

    def test_simplex3_routes_agree(self, simplex3):
        e3 = axis_direction(3)
        for p in (1, 2, 3):
            vals = {mv.exact for mv in _three_routes(simplex3, e3, p)}
            assert len(vals) == 1 and None not in vals, p

    def test_vertex_facet_kink_body(self):
        # the covariogram of this triangle kinks at r = 3/2, which is not a
        # vertex height difference; all routes must still agree exactly
        K = make_polytope([(0, 0), (2, -1), (1, 1)], 2)
        for mv in _three_routes(K, E2, 2):
            assert mv.exact == F(9, 16)

    def test_exact_plane_ray_moments(self, unit_square, triangle):
        for P, p, expected in [(unit_square, 1, F(1, 2)), (unit_square, 2, F(1, 3)),
                               (triangle, 1, F(1, 6))]:
            mv = RayMomentEngine(P, E2).moment(p)
            assert mv.exact == expected

    def test_discrete_routes(self, big_square):
        e1 = Direction((1, 0))
        assert discrete_moment(big_square, e1, 2).exact == 15
        # columns 0,1,2 -> open reach 1,2,3 per 3 rows
        assert discrete_moment(big_square, e1, 1, open_cube=True).exact == 18

    @pytest.mark.parametrize("name", ["cube2", "rand2_7", "rand3_11", "cross3"])
    def test_fractional_exponents_along_e_n(self, name):
        # the binary64 branches: the engine against the projection-power
        # form, and the discrete moment and Ball body against a direct sum of
        # the reaches rho_y = y_n - lo(y'), each within the asserted errors
        P = make_body(next(s for s in default_corpus() if s.name == name))
        e_n = axis_direction(P.dim)
        engine = RayMomentEngine(P, e_n)
        for p in (F(1, 2), F(3, 2), F(5, 2)):
            got, want = engine.moment(p), projection_power_moment(_dist(P), p)
            assert got.exact is None and want.exact is None
            assert abs(got.value - want.value) <= got.abs_error + want.abs_error, p
        if not P.contains((0,) * P.dim):
            return
        pts = lattice_points(P)
        reaches = [float(y[-1] - vertical_section(P, y[:-1]).lo) for y in pts]
        for p in (F(1, 2), F(3, 2)):
            total = math.fsum(r ** float(p) for r in reaches)
            mom = discrete_ray_moment(ray_decomposition(P, e_n), p)
            assert mom.exact is None and abs(mom.value - total) <= mom.abs_error, p
            rho = radial_ball_body("discrete", P, e_n, p)
            want = (total / len(pts)) ** (1 / float(p))
            assert rho.exact is None and abs(rho.value - want) <= rho.abs_error, p


class TestSectionPowers:
    def test_exact_integer_powers(self, unit_square, triangle):
        assert section_power_integral(_dist(unit_square), 3).exact == 1
        assert section_power_integral(_dist(triangle), 3).exact == F(1, 4)

    def test_negative_power_triangle(self, triangle):
        mv = section_power_integral(_dist(triangle), F(-1, 2))
        assert mv.exact is None
        assert mv.value == pytest.approx(2.0, rel=1e-9)

    def test_out_of_range(self, triangle):
        with pytest.raises(ExponentOutOfRange):
            section_power_integral(_dist(triangle), -1)
        with pytest.raises(ExponentOutOfRange):
            section_power_integral(_dist(triangle), 0)


class TestRadials:
    def test_chord_mean_examples(self, unit_square, triangle):
        assert radial_Rp(unit_square, E2, 1).value == pytest.approx(0.5, abs=1e-12)
        assert radial_Rp(triangle, E2, 1).value == pytest.approx(1 / 3, abs=1e-12)

    def test_chord_mean_negative_exponent_uncertified(self, unit_square):
        # p = -1/2: rho^p = (1/(vol (p+1))) int ell^{p+1} = 2 -> rho = 1/4
        mv = radial_Rp(unit_square, E2, -F(1, 2))
        assert mv.exact is None
        assert mv.value == pytest.approx(0.25, rel=1e-9)
        with pytest.raises(ExponentOutOfRange):
            radial_Rp(unit_square, E2, 0)
        with pytest.raises(ExponentOutOfRange):
            radial_Rp(unit_square, E2, -1)

    def test_rotated_matches_ray_route(self, unit_square, simplex3):
        cases = [(unit_square, raw, p) for raw, p in
                 [((1, 1), 1), ((2, 1), 2), ((1, -2), 1), ((-1, 0), 2)]]
        # 3-d directions off the last axis, with a zero last coordinate and
        # with negative entries
        cases += [(simplex3, raw, 2) for raw in
                  [(1, 1, 1), (0, 1, 2), (1, 2, 0), (3, -1, 2), (-2, 1, -1)]]
        for P, raw, p in cases:
            theta = Direction(raw)
            rho_rot = radial_Rp(P, theta, p).value
            mom = RayMomentEngine(P, theta).moment(p)
            rho_ray = (mom.value / float(volume(P).exact)) ** (1.0 / p)
            assert rho_rot == pytest.approx(rho_ray, rel=1e-9), raw

    def test_large_p_approaches_difference_body(self, unit_square):
        # rho_{K_p(g_K)} <= rho_{K-K} with the binomial-scaled sandwich
        n = 2
        for raw in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            theta = Direction(raw)
            rho_diff = _difference_radial(unit_square, theta)
            prev = None
            for p in (8, 64):
                rho_p = radial_ball_body("continuous", unit_square, theta, p).value
                assert rho_p <= rho_diff * (1 + 1e-9)
                assert rho_diff <= math.comb(n + p, n) ** (1.0 / p) * rho_p * (1 + 1e-9)
                gap = rho_diff / rho_p
                if prev is not None:
                    assert gap <= prev + 1e-9  # improves with p
                prev = gap
            assert prev <= 1.15  # ~ (n ln p)/p envelope at p = 64

    def test_ball_body_collapse_on_a_one_point_lattice_set(self):
        # K cap Z^2 = {0}: the discrete Ball body's moment is one term, the
        # ray from 0 through -K, so it is rho_{-K}(theta)^p exactly, in raw
        # units; rho_{-K}(theta) = 1 / max_F <a_F, -theta> / b_F by the gauge
        K = make_polytope([(F(-1, 2), F(-1, 3)), (F(2, 3), F(-1, 2)), (F(1, 3), F(3, 4))], 2)
        assert list(lattice_points(K)) == [(0, 0)]
        for raw in [(1, 0), (1, 1), (1, 2), (-2, 3), (0, -1)]:
            theta = Direction(raw)
            rho = 1 / max(-sum(x * y for x, y in zip(a, theta.raw)) / b for a, b in K.halfspaces)
            assert radial_ball_body("discrete", K, theta, 1).exact == rho, raw
            for p in (1, 2, 3):
                assert discrete_moment(K, theta, p).exact == rho**p, (raw, p)

    def test_discrete_sources(self, big_square, unit_square):
        e1 = Direction((1, 0))
        assert radial_ball_body("discrete", big_square, e1, 1).exact == 1
        assert radial_ball_body("discrete", unit_square, e1, 1).exact == F(1, 2)
        assert radial_ball_body("discrete-open", unit_square, e1, 1).exact == F(3, 2)
        tilde = radial_ball_body("discrete-open-tilde", unit_square, e1, 1)
        assert tilde.exact == F(3, 2)  # G(K+C)/G(K) = 1 here

    def test_polar_projection(self, unit_square, big_square, triangle):
        assert polar_projection_radial(unit_square, E2).exact == 1
        assert polar_projection_radial(big_square, E2).exact == F(1, 2)
        # in units of theta.raw: 1/h_{Pi K}(1, 1) = 1/2, and degree -1 in theta
        assert polar_projection_radial(triangle, Direction((1, 1))).exact == F(1, 2)
        assert polar_projection_radial(triangle, Direction((2, 2))).exact == F(1, 4)

    def test_per_direction_routes_are_exact_in_raw_units(self, triangle, unit_square):
        # exact rationals at every rational direction, |theta| rational or
        # not; doubling theta.raw halves a radial (degree -1) and divides a
        # p-th moment by 2^p (degree p)
        for P in (triangle, unit_square):
            for raw in [(1, 1), (2, 1), (-1, 3), (0, 1)]:
                theta, twice = Direction(raw), Direction(tuple(2 * c for c in raw))
                for p in (1, 2, 3):
                    for open_cube in (False, True):
                        m = discrete_moment(P, theta, p, open_cube=open_cube).exact
                        assert m is not None, (raw, p)
                        assert discrete_moment(P, twice, p, open_cube=open_cube).exact == m / 2**p
                    assert RayMomentEngine(P, twice).moment(p).exact == \
                        ray_moment(P, theta, p).exact / 2**p
                for source in ("difference-set", "polar-projection", "discrete"):
                    rho = radial_ball_body(source, P, theta, 1).exact
                    assert rho is not None, (source, raw)
                    assert radial_ball_body(source, P, twice, 1).exact == rho / 2, (source, raw)
                half = radial_Rp(P, twice, 2).value
                assert half == pytest.approx(radial_Rp(P, theta, 2).value / 2, rel=1e-12), raw

    def test_difference_set_radial(self, unit_square):
        mv = radial_ball_body("difference-set", unit_square, Direction((1, 0)), None)
        assert mv.exact == 1


class TestStarVolume:
    def test_one_evaluation_matches_the_two_rule_evaluations(self):
        # criterion 6's continuous companion: the star volume of the
        # covariogram Ball body, against the fine and the coarse rule each
        # evaluated on its own nodes
        from zhangforge.harness import default_corpus, make_body
        from zhangforge.inequalities import BodyWorkspace, applicability
        from zhangforge.moments import circle_nodes
        from zhangforge.verdict import MeasureValue

        def rule(evaluator, angles):
            rho = evaluator(np.stack([np.cos(angles), np.sin(angles)], axis=1))
            gaps = np.append(np.diff(angles), 2.0 * math.pi - angles[-1] + angles[0])
            w = (np.roll(gaps, 1) + gaps) / 2.0
            return float(0.5 * np.sum(rho**2 * w))

        seen = 0
        for spec in default_corpus():
            body = make_body(spec)
            if applicability("volume_identity_discrete", BodyWorkspace(body)) is not None:
                continue
            calls = []

            def ev(dirs, body=body, calls=calls):
                calls.append(len(dirs))
                return radial_batch("continuous", body, dirs, body.dim)

            extra = facet_angles(body)
            got = star_volume(ev, 2, extra_angles=extra)
            fine = rule(ev, circle_nodes(2048, extra))
            coarse = rule(ev, circle_nodes(1024, extra))
            want = MeasureValue.approx(fine, abs(fine - coarse) + 1e-12 * abs(fine))
            assert (got.value, got.abs_error) == (want.value, want.abs_error), spec.name
            assert len(calls) == 3 and calls[0] == calls[1]
            seen += 1
        assert seen >= 3

    def test_unit_disc(self):
        mv = star_volume(lambda dirs: np.ones(len(dirs)), 2)
        assert mv.value == pytest.approx(math.pi, abs=1e-6)

    def test_only_the_plane(self):
        with pytest.raises(RouteUnsupported):
            star_volume(lambda dirs: np.ones(len(dirs)), 3)

    def test_polar_body_of_triangle(self, triangle):
        ev = lambda dirs: radial_batch("polar-projection", triangle, dirs, None)
        mv = star_volume(ev, 2, extra_angles=facet_angles(triangle))
        assert abs(mv.value - 3.0) < 2e-3

    def test_continuous_ball_body_volume_identity(self, unit_square, triangle):
        for P in (unit_square, triangle):
            ev = lambda dirs: radial_batch("continuous", P, dirs, P.dim)
            mv = star_volume(ev, 2, extra_angles=facet_angles(P))
            assert abs(mv.value - float(volume(P).exact)) < 1e-3 * float(volume(P).exact)

    def test_inclusion_chain_scaled_radials(self, unit_square):
        # binom(n+q,n)^{1/q} rho_q <= binom(n+p,n)^{1/p} rho_p for p < q
        n = 2
        angles = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        grid = [1, 2, 3]
        prev = None
        for p in grid:
            rho = radial_batch("continuous", unit_square, dirs, p)
            scaled = math.comb(n + p, n) ** (1.0 / p) * rho
            if prev is not None:
                assert np.all(scaled <= prev * (1 + 1e-9))
            prev = scaled


def _difference_radial(P, theta: Direction) -> F:
    """rho_{K-K}(theta.raw), exactly."""
    from zhangforge import difference_body
    from test_differential import ray_interval

    origin = tuple(F(0) for _ in range(P.dim))
    return ray_interval(difference_body(P), origin, tuple(-c for c in theta.raw))[1]


@pytest.mark.parametrize("source", SOURCES)
def test_every_source_has_a_radial(source, unit_square):
    # perfbench names one metric per entry of SOURCES
    assert math.isfinite(radial_ball_body(source, unit_square, Direction((1, 0)), 1).value)
    angles = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert np.all(np.isfinite(radial_batch(source, unit_square, dirs, 1)))


class TestBatchConsistency:
    def test_continuous_batch_matches_exact_ray_moments(self, triangle, unit_square):
        # integer p: the chord form against the exact ray moment at rational
        # directions, normalized
        from zhangforge.harness import BodySpec, make_body

        hull = make_body(BodySpec("random_hull", 2, {"count": 9, "radius": 3, "seed": 1}))
        raws = [(1, 0), (0, 1), (1, 2), (3, -1), (-2, 5)]
        for P in (triangle, unit_square, hull):
            vol = float(volume(P).exact)
            for raw in raws:
                theta = Direction(raw)
                nrm = math.sqrt(float(theta.norm_sq))
                d = np.array([[raw[0] / nrm, raw[1] / nrm]])
                for p in range(1, 5):
                    ref = float(ray_moment(P, theta, p).exact) * nrm**p
                    got = vol * radial_batch("continuous", P, d, p)[0] ** p
                    assert got == pytest.approx(ref, rel=1e-12, abs=0), (raw, p)

    def test_continuous_batch_at_fractional_p(self, triangle, unit_square):
        # along e2 every chord of the unit square has length 1, so the moment
        # is 1/(p+1) and rho = (1/(p+1))^{1/p}
        for p in (F(1, 2), F(5, 2)):
            got = radial_batch("continuous", unit_square, np.array([[0.0, 1.0]]), p)[0]
            assert got == pytest.approx((1 / (1 + p)) ** (1 / p), rel=1e-12), p
            for P in (triangle, unit_square):
                for raw in [(1, 0), (1, 2), (3, -1)]:
                    theta = Direction(raw)
                    nrm = math.sqrt(float(theta.norm_sq))
                    d = np.array([[raw[0] / nrm, raw[1] / nrm]])
                    # the batch reads the unit direction: |theta| rho(theta.raw)
                    ref = nrm * radial_Rp(P, theta, p).value
                    got = radial_batch("continuous", P, d, p)[0]
                    assert got == pytest.approx(ref, rel=1e-9), (raw, p)

    def test_discrete_batch_matches_exact(self, big_square):
        from zhangforge.moments import discrete_moment, discrete_moment_batch

        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = discrete_moment_batch(big_square, dirs, 2, open_cube=False)
        ref = discrete_moment(big_square, Direction((1, 0)), 2).exact
        assert got[0] == pytest.approx(float(ref))


def test_every_ray_breakpoint_separates_two_polynomials():
    # the breaks are the exact kinks of r -> vol(K cap (K + r theta)): the
    # overlap keeps one type between two neighbours, and neighbouring panels
    # carry different polynomials
    from zhangforge.harness import BodySpec, make_body
    from zhangforge.linalg import integer_row
    from zhangforge.moments import ray_breakpoints
    from zhangforge.polytope import parametric_volume

    for dim, raw in ((2, (1, 2)), (3, (1, 2, 2)), (4, (1, 2, -1, 3))):
        P = make_body(BodySpec("random_hull", dim, {"count": dim + 5, "radius": 2, "seed": 0}))
        theta = Direction(raw)
        R, _ = ray_support(P, theta)
        breaks = ray_breakpoints(P, theta, R)
        assert breaks[-1] == R and len(breaks) >= 3
        rows = list(P.halfspaces) * 2
        shifts = [0] * len(P.halfspaces) + [sum(x * y for x, y in zip(a, theta.raw))
                                            for a, _b in P.halfspaces]
        ints = [integer_row(list(a) + [b, c])[0] for (a, b), c in zip(rows, shifts)]
        polys = []
        for lo, hi in zip([0] + breaks, breaks):
            coeffs, a, b = parametric_volume(ints, lo, hi)
            assert (a, b) == (lo, hi), (dim, lo, hi)
            polys.append(coeffs)
        assert all(p != q for p, q in zip(polys, polys[1:])), dim


def test_engine_is_exact_on_a_four_dimensional_hull():
    # a hull whose kinks include edge-2-face contacts, which a breakpoint list
    # of vertex differences and vertex-facet contacts misses
    from zhangforge.harness import BodySpec, make_body
    from zhangforge.moments import ray_moment

    P = make_body(BodySpec("random_hull", 4, {"count": 7, "radius": 1, "seed": 0}))
    theta = Direction((1, 2, 2, 4))
    engine = RayMomentEngine(P, theta)
    for p in range(1, 5):
        assert engine.moment(p).exact == ray_moment(P, theta, p).exact, p
    assert engine.certified


@pytest.mark.parametrize("raw", [(1, 2, 2, 4), (2, -1, 2, 4), (0, 0, 0, 1)])
def test_engine_on_the_four_simplex_matches_ray_moment(raw):
    from zhangforge.moments import ray_moment

    S = make_polytope([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    theta = Direction(raw)
    engine = RayMomentEngine(S, theta)
    for p in range(1, 5):
        assert engine.moment(p).exact == ray_moment(S, theta, p).exact
    assert engine.certified


def test_section_length_layer_needs_two_dimensions():
    # a segment has no projection to read section lengths over: a typed
    # error, as column_lengths raises, not an IndexError; the moments take
    # the distribution, so this is the layer's one entry
    with pytest.raises(DimensionMismatch):
        section_distribution(make_polytope([(0,), (1,)], 1))


def test_ray_moment_along_e_n_reads_the_memoized_symmetral(monkeypatch):
    # once P's symmetral is in its memo, ray_moment along e_n builds no hull;
    # radial_Rp is (ray moment / vol)^(1/p) in every direction, on the corpus
    import zhangforge.polytope as poly
    from zhangforge.harness import default_corpus, make_body

    hulls = []
    real = poly.convex_hull
    for spec in default_corpus():
        P = make_body(spec)
        n = P.dim
        e_n = axis_direction(n)
        steiner_symmetrize(P)
        monkeypatch.setattr(poly, "convex_hull", lambda pts: hulls.append(pts) or real(pts))
        moments = {p: ray_moment(P, e_n, p) for p in (1, 2, n)}
        monkeypatch.setattr(poly, "convex_hull", real)
        assert hulls == [], spec.name
        vol = P.volume_fraction()
        for raw in ((0,) * (n - 1) + (1,), (1,) * n, (F(1, 2), -1, 3)[:n]):
            theta = Direction(raw)
            for p in (1, 2, n):
                mom = moments[p] if theta.raw == e_n.raw else ray_moment(P, theta, p)
                want = (float(mom.exact) / float(vol)) ** (1.0 / p)
                assert radial_Rp(P, theta, p).value == want, (spec.name, raw, p)
