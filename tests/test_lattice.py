import json
import math
from fractions import Fraction

import pytest

from zhangforge import Direction, Polytope, make_polytope, translate, vertical_section
from zhangforge.errors import DimensionMismatch, ExponentOutOfRange, OriginMissing, Unbounded
from zhangforge.lattice import (
    column_lengths,
    count_lattice,
    discrete_covariogram,
    discrete_ray_moment,
    fattened_mu,
    lattice_points,
    mu_measure,
    ray_decomposition,
)
from zhangforge.steiner import steiner_symmetrize
from test_differential import ray_interval

F = Fraction
E1 = Direction((1, 0))


class TestCounting:
    def test_closed_counts(self, big_square, unit_square, triangle):
        assert count_lattice(big_square) == 9
        assert count_lattice(unit_square) == 4
        assert count_lattice(triangle) == 3

    def test_open_cube_counts(self, big_square):
        # [0,2]^2 + (-1,3)^2 open: still the 9 points {0,1,2}^2
        assert count_lattice(big_square, 2) == 9

    def test_projection_counts(self, triangle):
        from zhangforge import project_drop_last

        assert count_lattice(project_drop_last(triangle)) == 2

    def test_empty_interior_lattice(self):
        tiny = make_polytope(
            [(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)), (F(3, 4), F(3, 4))], 2
        )
        assert count_lattice(tiny) == 0

    def test_strict_interval_count(self, sym_square):
        S = steiner_symmetrize(sym_square)
        # S + (-1,1) x {0} = (-2,2) x [-1,1]: 9 points {-1,0,1}^2
        assert count_lattice(S, 1) == 9

    def test_open_superset_of_closed(self, triangle, big_square):
        for P in (triangle, big_square):
            closed = set(lattice_points(P))
            for k in range(1, P.dim + 1):
                assert closed <= set(lattice_points(P, k))

    def test_lp_route_matches_strict_closure_route(self):
        # independent oracle: x is in P + (-1,1)^k x {0}^{n-k} exactly when the
        # l_inf distance from x to {y in P : y_j = x_j for j >= k} over the
        # first k coordinates is < 1; the LP minimizes that distance d
        from itertools import product

        from zhangforge.errors import Infeasible
        from zhangforge.lp import lp_solve

        def member(P, x, k):
            n = P.dim
            rows, rhs = [], []
            for a, b in P.halfspaces:  # variables y (n), d
                rows.append(list(a) + [0])
                rhs.append(b)
            for j in range(n):
                e = [0] * (n + 1)
                e[j] = 1
                if j < k:  # |y_j - x_j| <= d
                    e[n] = -1
                    rows += [e, [-c if i < n else -1 for i, c in enumerate(e)]]
                    rhs += [x[j], -x[j]]
                else:  # y_j = x_j
                    rows += [e, [-c for c in e]]
                    rhs += [x[j], -x[j]]
            try:
                res = lp_solve([0] * n + [-1], rows, rhs)
            except Infeasible:
                return False
            return -res.value < 1

        bodies = [
            make_polytope([(0, 0), (2, 1), (1, 2)], 2),
            make_polytope([(0, 0, 0), (2, 1, 0), (1, 2, F(1, 2)), (F(1, 2), 1, 2)], 3),
            # a lower-dimensional slice: a triangle in the plane x_3 = 1
            make_polytope([(0, 0, 1), (2, 1, 1), (F(1, 2), 2, 1)], 3),
        ]
        for body in bodies:
            # every point of the open fattening lies within distance 1 of P's box
            box = [range(math.floor(lo) - 1, math.ceil(hi) + 2) for lo, hi in body.bounding_box()]
            for k in range(1, body.dim + 1):
                got = set(lattice_points(body, k))
                want = {x for x in product(*box) if member(body, x, k)}
                assert got == want, (body, k)

    def test_large_dilates_exactly(self):
        # a run of columns is counted in closed form, so the count of a
        # dilate costs its runs, not its columns
        simplex2 = make_polytope([(0, 0), (1, 0), (0, 1)], 2)
        cube3 = make_polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 3)
        lam = 10**6
        assert count_lattice(simplex2.scaled(lam)) == (lam + 1) * (lam + 2) // 2
        assert count_lattice(cube3.scaled(1000)) == 1001**3

    def test_sorted_and_json(self, unit_square):
        pts = lattice_points(unit_square)
        assert type(pts) is tuple and list(pts) == sorted(pts)
        assert [list(p) for p in pts] == [[0, 0], [0, 1], [1, 0], [1, 1]]


class TestMu:
    def test_big_square(self, big_square):
        assert mu_measure(big_square).exact == 6

    def test_paper_slab(self, slab_body):
        # positive column measure with an empty lattice
        assert count_lattice(slab_body) == 0
        assert mu_measure(slab_body).exact == F(5, 6)

    def test_triangle_columns(self, triangle):
        assert mu_measure(triangle).exact == 1

    def test_column_lengths_keep_point_sections(self):
        # the column over x = 2 meets the triangle in the one point (2, 1)
        T = make_polytope([(0, 0), (2, 1), (0, 2)], 2)
        assert column_lengths(T) == {(0,): 2, (1,): 1, (2,): 0}

    def test_column_lengths_without_an_upper_row_are_unbounded(self):
        # not a polytope: {x in [0, 1], y >= 0}, which only ``vertical_section``
        # and ``column_lengths`` can be asked about
        rows = (((-1, 0), 0, 1), ((0, -1), 0, 1), ((1, 0), 1, 1))
        half_strip = Polytope(2, 2, ((0, 0), (1, 0)), 1, rows, (F(1, 2), F(1)), None)
        with pytest.raises(Unbounded):
            vertical_section(half_strip, (0,))
        with pytest.raises(Unbounded):
            column_lengths(half_strip)

    def test_large_dilate(self, unit_square):
        for lam in (1, 7, 10**6):
            assert mu_measure(unit_square.scaled(lam)).exact == lam * (lam + 1)

    def test_fattened_mu_needs_a_symmetric_body(self):
        # the open fattening of [0,3] x [1/5,7/10] has mu 4 * 1/2 = 2 but no
        # lattice point, so a read of its lattice columns would give 0; its
        # symmetral [0,3] x [-1/4,1/4] holds each (x, 0) and reads 2
        P = make_polytope([(x, y) for x in (0, 3) for y in (F(1, 5), F(7, 10))], 2)
        with pytest.raises(ValueError, match="symmetric in x_n"):
            fattened_mu(P)
        assert fattened_mu(steiner_symmetrize(P)) == 2

    def test_column_measure_needs_two_dimensions(self):
        with pytest.raises(DimensionMismatch):
            mu_measure(make_polytope([(0,), (2,)], 1))

    def test_symmetral_invariance(self, triangle, big_square, slab_body):
        for P in (triangle, big_square, slab_body):
            assert mu_measure(steiner_symmetrize(P)).exact == mu_measure(P).exact

    def test_sandwich(self, triangle, big_square, unit_square, slab_body, sym_square):
        from zhangforge import project_drop_last

        for P in (triangle, big_square, unit_square, slab_body, sym_square):
            gn = count_lattice(P)
            gp = count_lattice(project_drop_last(P))
            mu = mu_measure(P).exact
            assert gn - gp <= mu <= gn + gp
        assert count_lattice(big_square) - 3 <= 6 <= count_lattice(big_square) + 3


class TestDiscreteCovariogram:
    def test_examples(self, big_square, unit_square):
        assert discrete_covariogram(big_square, (1, 0)) == 6
        assert discrete_covariogram(unit_square, (0, 0)) == 4
        assert discrete_covariogram(unit_square, (2, 2)) == 0


class TestRayDecomposition:
    def test_closed_slabs(self, big_square):
        d = ray_decomposition(big_square, E1)
        assert not d.open_cube
        for (a, b), rho in d.entries:
            assert rho == a

    def test_unit_square(self, unit_square):
        d = ray_decomposition(unit_square, E1)
        by_point = dict(d.entries)
        assert by_point[(0, 0)] == 0
        assert by_point[(1, 1)] == 1

    def test_open_intervals(self, unit_square):
        d = ray_decomposition(unit_square, E1, open_cube=True)
        by_point = dict(d.entries)
        assert d.open_cube  # each reach is excluded: [0, rho)
        assert (by_point[(0, 0)], by_point[(1, 0)]) == (1, 2)

    def test_origin_required(self, unit_square):
        with pytest.raises(OriginMissing):
            ray_decomposition(translate(unit_square, (5, 5)), E1)

    def test_moments(self, big_square, unit_square):
        assert discrete_ray_moment(ray_decomposition(big_square, E1), 1).exact == 9
        assert discrete_ray_moment(ray_decomposition(big_square, E1), 2).exact == 15
        # an integer exponent given as a float or a Fraction is exact too
        for p in (2.0, F(2)):
            assert discrete_ray_moment(ray_decomposition(big_square, E1), p).exact == 15
        d = ray_decomposition(unit_square, E1, open_cube=True)
        assert discrete_ray_moment(d, 1).exact == 6

    def test_moment_exponent_must_be_positive(self, big_square):
        d = ray_decomposition(big_square, E1)
        for p in (0, -1, F(0), -0.5):
            with pytest.raises(ExponentOutOfRange):
                discrete_ray_moment(d, p)

    def test_max_reach_is_difference_set_radial(self, unit_square):
        d = ray_decomposition(unit_square, E1)
        assert d.max_reach() == 1  # (K cap Z^2) - K = [-1,1]^2 along e_1

    def test_trapezoid_oracle_for_p1(self, unit_square):
        # p=1 moment equals int g~(r e_1) dr; Riemann sum on a 1e-3 grid
        d = ray_decomposition(unit_square, E1)
        moment = float(discrete_ray_moment(d, 1).exact)
        h = 1e-3
        total = 0.0
        r = 0.0
        while r < 1.5:
            total += discrete_covariogram(unit_square, (F(round(r * 1000), 1000), 0)) * h
            r += h
        assert abs(total - moment) < 4 * h * 4  # grid error x max jump count

    def test_json(self, unit_square):
        d = ray_decomposition(unit_square, E1)
        rows = [{"point": list(y), "reach": [rho.numerator, rho.denominator]}
                for y, rho in d.entries]
        assert json.loads(json.dumps(rows)) == rows
        assert rows[0] == {"point": [0, 0], "reach": [0, 1]}


class TestRayInterval:
    def test_matches_membership(self, triangle):
        raw = (F(1), F(1, 2))
        seg = ray_interval(triangle, (0, 1), raw)
        lo, hi = seg
        mid = (lo + hi) / 2
        pt = (0 - mid * raw[0], 1 - mid * raw[1])
        assert triangle.contains(pt)
