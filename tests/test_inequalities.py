import math
import time
from fractions import Fraction

import pytest

from zhangforge import make_polytope, transform
from zhangforge.errors import HypothesesViolated, UnknownChecker
from zhangforge.inequalities import (
    B_coeff,
    BodyWorkspace,
    InequalityReport,
    SectionProfiles,
    applicability,
    checker_ids,
    checker_statement,
    crossing_point,
    diamond_extension,
    h_func,
    hypotheses_h,
    limit_sweep,
    section_profiles,
    solve_m0,
    verify,
    _solve_m0,
)
from zhangforge.polytope import MeasureValue
from zhangforge.steiner import steiner_symmetrize

F = Fraction


class TestBCoeff:
    def test_small_m_p1(self):
        assert B_coeff(F(1, 2), 1, 2) == 2.0  # 1/m on (0,1)

    def test_small_m_p_large_is_zero(self):
        assert B_coeff(F(1, 2), 2, 2) == 0.0
        assert B_coeff(F(1, 2), 2, 5) == 0.0

    def test_finite_sum(self):
        assert B_coeff(2, 1, 2) == 0.75  # (1/2)(1 + 1/2 + 0)

    def test_h_examples(self):
        assert h_func(F(7, 10), 1, 2) == 1.0
        assert h_func(1, 1, 2) == 1.0
        assert h_func(3, 1, 2) == 2.0
        assert h_func(F(7, 10), 2, 2) == 0.0

    @pytest.mark.parametrize("p", [-1, 0, F(1, 2)])
    def test_h_rejects_p_below_one(self, p):
        # B_coeff rejects the same exponents; the sum would otherwise reach 0^(p-1)
        with pytest.raises(ValueError, match="need x > 0 and p >= 1"):
            h_func(2, p, 2)

    def test_h_nondecreasing(self):
        vals = [h_func(F(k, 7), 2, 3) for k in range(1, 80)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestProfiles:
    def test_sym_square(self, sym_square):
        pr = section_profiles(sym_square)
        assert pr.f == {0: 3, 1: 3}
        assert pr.f_tilde == {0: 3, 1: 3}
        assert pr.M == 1

    def test_unit_square_anchored(self, unit_square):
        ws = BodyWorkspace(unit_square)
        pr = ws.profiles
        assert pr.M == 0 and pr.f[0] == 2

    def test_scaled_simplex(self):
        twoT = make_polytope([(0, 0), (2, 0), (0, 2)], 2)
        ws = BodyWorkspace(twoT)
        pr = ws.profiles
        assert pr.f == {0: 3, 1: 1} and pr.M == 1

    def test_f_below_f_tilde_and_support(self, sym_square, big_square):
        for P in (sym_square, big_square):
            ws = BodyWorkspace(P)
            pr = ws.profiles
            for k in set(pr.f) | set(pr.f_tilde):
                assert pr.f_at(k) <= pr.f_tilde_at(k)
            assert all(k <= pr.M for k in pr.f)


class TestDiamond:
    def test_examples(self, triangle, sym_square):
        S = steiner_symmetrize(triangle)
        assert diamond_extension(S, (-1,)).exact == F(1, 2)
        assert diamond_extension(S, (2,)).exact == 0
        assert diamond_extension(S, (3,)).exact == 0  # window misses the projection
        assert diamond_extension(sym_square, (0,)).exact == 1

    def test_needs_a_symmetric_body(self, triangle):
        with pytest.raises(ValueError):
            diamond_extension(triangle, (0,))


class TestM0AndCrossing:
    def test_sym_square_m0(self, sym_square):
        root, exact = _solve_m0(sym_square, 1)
        assert exact == 3
        assert abs(root - 3.0) <= 1e-12
        assert solve_m0(sym_square, 1) == root

    def test_m0_exceeds_lattice_height(self, sym_square):
        pr = section_profiles(sym_square)
        root, _ = _solve_m0(sym_square, 1)
        assert root >= pr.M and root > 1

    def test_scaled_square_m0(self):
        big = make_polytope([(-2, -2), (2, -2), (-2, 2), (2, 2)], 2)
        pr = section_profiles(big)
        assert pr.M == 2
        root, _ = _solve_m0(big, 1, pr)
        assert root >= 2

    def test_crossing_sym_square(self, sym_square):
        assert crossing_point(sym_square, 1) == 2

    def test_crossing_postconditions(self):
        for pts in [[(-2, -2), (2, -2), (-2, 2), (2, 2)], [(0, 0), (4, 0), (0, 4)]]:
            P = make_polytope(pts, 2)
            ws = BodyWorkspace(P)
            pr = ws.profiles
            body = ws.anchored
            kstar = crossing_point(body, 1, pr)
            from zhangforge.inequalities import _g_profile, _solve_m0 as sm
            from zhangforge.lattice import count_lattice
            from zhangforge import project_drop_last

            root, exact = sm(body, 1, pr)
            m0 = exact if exact is not None else root
            G = count_lattice(project_drop_last(body))
            for k in range(0, kstar):
                assert pr.f_tilde_at(k) >= _g_profile(k, m0, G, 2)
            for k in range(kstar, math.ceil(float(m0)) + 3):
                assert _g_profile(k, m0, G, 2) >= pr.f_at(k)

    def test_hypotheses_violated(self, unit_square):
        with pytest.raises(HypothesesViolated):
            # anchored unit square has M = 0
            ws = BodyWorkspace(unit_square)
            _solve_m0(ws.anchored, 1, ws.profiles)


class TestVerify:
    def test_unknown_checker(self, triangle):
        with pytest.raises(UnknownChecker):
            verify("nope", triangle)

    def test_registry_statements(self):
        for cid in checker_ids():
            assert checker_statement(cid)

    def test_discrete_zhang_mu_example(self, sym_square):
        rep = verify("discrete_zhang_mu", sym_square)
        assert rep.lhs.exact == 12 and rep.rhs.exact == 24 and rep.holds

    def test_purely_discrete_example(self, sym_square):
        rep = verify("purely_discrete_zhang", sym_square)
        assert rep.lhs.exact == 96 and rep.rhs.exact == 192 and rep.holds
        assert abs(rep.context["m0"] - 3.0) <= 1e-12

    def test_purely_discrete_trivial_when_M0(self, unit_square):
        rep = verify("purely_discrete_zhang", unit_square)
        assert rep.holds and rep.context["trivial"] and rep.lhs.exact == 0

    def test_zhang_preintegration_example(self, unit_square):
        rep = verify("zhang_preintegration", unit_square)
        assert rep.holds
        assert rep.lhs.exact == F(1, 2)
        assert rep.rhs.exact == 1

    def test_zhang_directional_equality_on_simplices(self, triangle, simplex3):
        # simplices are the equality case of the directional inequality in
        # every direction, so both exact sides agree
        for P, raws in ((triangle, [(1, 1), (1, -2), (0, 1)]),
                        (simplex3, [(1, 1, 1), (1, -2, 3), (0, 0, 1)])):
            for raw in raws:
                rep = verify("zhang_directional", P, {"theta": raw})
                assert rep.lhs.exact is not None and rep.lhs.exact == rep.rhs.exact, raw

    def test_zhang_directional_on_the_axis_is_preintegration(self, triangle, simplex3,
                                                             slab_body):
        cross3 = make_polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                (0, 0, 1), (0, 0, -1)], 3)
        for P in (triangle, slab_body, simplex3, cross3):
            e_n = tuple(int(i == P.dim - 1) for i in range(P.dim))
            on_axis = verify("zhang_directional", P, {"theta": e_n})
            pre = verify("zhang_preintegration", P)
            assert on_axis.lhs.exact == pre.lhs.exact
            assert on_axis.rhs.exact == pre.rhs.exact

    def test_zhang_volume_equality_case(self, triangle):
        rep = verify("zhang_volume", triangle)
        assert rep.holds
        assert rep.lhs.exact == rep.rhs.exact == Fraction(3, 2)

    def test_zhang_volume_in_dimension_four(self):
        simplex4 = make_polytope(
            [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)], 4
        )
        rep = verify("zhang_volume", simplex4)
        assert rep.holds and rep.lhs.exact == rep.rhs.exact == Fraction(35, 128)

    def test_sandwich_tight(self, big_square):
        rep = verify("mu_gn_sandwich", big_square)
        assert rep.holds and rep.lhs.exact == 3 and rep.rhs.exact == 3

    def test_completely_discrete_rhs_is_m0(self, sym_square):
        rep = verify("completely_discrete_berwald", sym_square)
        assert rep.holds
        assert abs(rep.rhs.value - rep.context["m0"]) <= 1e-10
        assert rep.rhs.value == pytest.approx(3.0, abs=1e-10)
        assert rep.context["crossing_point"] == 2

    def test_berwald_discrete_closed_form(self, sym_square):
        rep = verify("berwald_discrete", sym_square)
        assert rep.holds
        for row in rep.context["pairs"]:
            p, q = row["p"], row["q"]
            assert row["lhs"] == pytest.approx((q + 1) ** (1 / q), rel=1e-12)
            assert row["rhs"] == pytest.approx((p + 1) ** (1 / p), rel=1e-12)

    def test_berwald_continuous_equality_for_affine_profile(self, triangle):
        rep = verify("berwald_continuous", triangle)
        assert rep.holds
        chain = rep.context["chain"]
        assert all(abs(v - 1.0) <= 1e-12 for v in chain)

    def test_ball_inclusion_example(self, unit_square):
        rep = verify("ball_inclusion_discrete", unit_square, params={"p": 1, "q": 2})
        assert rep.holds

    def test_difference_set_example(self, unit_square):
        rep = verify("difference_set_inclusion", unit_square)
        assert rep.holds

    def test_one_point_collapse_remark_body(self):
        K = make_polytope([(0, 0), (F(1, 2), 1), (F(1, 2), -1)], 2)
        rep = verify("one_point_collapse", K)
        assert rep.holds
        # the stated instance: radial at -e1 equals 1/2 on both sides
        row = [d for d in rep.context["directions"] if d["dir"] == ["-1", "0"]]
        assert row and row[0]["ball"] == "1/2" and row[0]["neg"] == "1/2"

    def test_inconclusive_on_precondition(self, slab_body):
        rep = verify("ball_inclusion_discrete", slab_body)
        assert rep.verdict == "inconclusive"
        assert "0" in rep.context["reason"]

    def test_applicability(self, slab_body, unit_square):
        ws = BodyWorkspace(slab_body)
        assert applicability("ball_inclusion_discrete", ws) is not None
        assert applicability("zhang_preintegration", ws) is None
        ws2 = BodyWorkspace(unit_square)
        assert applicability("completely_discrete_berwald", ws2) is not None  # M = 0

    def test_identity_triples_exact(self, big_square):
        rep = verify("identity_triple_discrete", big_square)
        assert rep.holds
        for row in rep.context["per_p"]:
            assert row["equal"]

    def test_volume_identity_retries_at_doubled_circle_order(self, unit_square, monkeypatch):
        assert "retried" not in verify("volume_identity_discrete", unit_square).context
        # a quadrature that misses at 2048 nodes and lands at 4096: only the
        # second decides the verdict, and the report says it was retried
        orders = []

        def fake_star_volume(evaluator, dim, extra_angles=(), n_circle=2048):
            orders.append(n_circle)
            return MeasureValue.approx(1.5 if n_circle == 2048 else 1.0, 0.0)

        monkeypatch.setattr("zhangforge.inequalities.star_volume", fake_star_volume)
        rep = verify("volume_identity_discrete", unit_square)
        assert rep.holds and rep.context["retried"] is True
        assert orders == [2048, 4096]

    def test_lattice_zhang_holds(self, sym_square, big_square):
        for P in (sym_square, big_square):
            assert verify("lattice_zhang", P).holds


class TestSweeps:
    def test_gn_volume_rows(self, unit_square):
        rows = limit_sweep(unit_square, "gn_volume", [10, 64])
        r10 = rows[0]
        assert r10["value"] == pytest.approx(1.21)
        assert r10["rel_error"] == pytest.approx(0.21)
        r64 = rows[1]
        assert r64["rel_error"] == pytest.approx((65 / 64) ** 2 - 1)
        assert r64["rel_error"] < 0.05

    def test_B_limit(self):
        rows = limit_sweep(None, "B_limit", [1000], {"n": 2, "p": 1})
        assert rows[0]["value"] == pytest.approx(0.5005, abs=1e-6)
        assert rows[0]["reference"] == 0.5

    def test_discrete_zhang_sweep_converges(self, unit_square):
        rows = limit_sweep(unit_square, "discrete_to_continuous_zhang", [16, 64])
        final = [r for r in rows if r["scale"] == 64]
        assert all(r["rel_error"] < 0.1 for r in final)

    def test_mu_volume(self, triangle):
        rows = limit_sweep(triangle, "mu_volume", [64])
        assert rows[0]["rel_error"] < 0.05

    def test_unknown_target(self, triangle):
        with pytest.raises(ValueError):
            limit_sweep(triangle, "nope", [2])


class TestFullRegistryOnSpotBodies:
    @pytest.mark.parametrize("pts,dim", [
        ([(0, 0), (1, 0), (0, 1)], 2),
        ([(-1, -1), (1, -1), (-1, 1), (1, 1)], 2),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
    ])
    def test_no_fails_anywhere(self, pts, dim):
        body = make_polytope(pts, dim)
        ws = BodyWorkspace(body)
        for cid in checker_ids():
            if applicability(cid, ws) is None:
                rep = verify(cid, body, ws=ws)
                assert rep.verdict == "holds", (cid, rep.context)
