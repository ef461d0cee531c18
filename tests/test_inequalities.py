import math
from collections import Counter
from fractions import Fraction

import pytest

from zhangforge import make_polytope, max_section_anchor, moments, project_drop_last
from zhangforge.errors import HypothesesViolated, UnknownChecker
from zhangforge.harness import BodySpec, default_corpus, make_body
from zhangforge.inequalities import (
    BodyWorkspace,
    applicability,
    checker_ids,
    checker_statement,
    crossing_point,
    diamond_extension,
    limit_sweep,
    section_profiles,
    verify,
    _B_exact,
    _discrete_star_volume,
    _h_exact,
    _solve_m0,
)
from zhangforge.lattice import count_lattice, lattice_points
from zhangforge.polytope import Polytope
from zhangforge.steiner import steiner_symmetrize

F = Fraction

_BALL_BODY_CHECKERS = ("ball_inclusion_discrete", "convexhull_inclusion",
                       "difference_set_inclusion")


class TestBExact:
    def test_small_m_p1(self):
        assert _B_exact(F(1, 2), 1, 2) == 2  # 1/m on (0,1)

    def test_small_m_p_large_is_zero(self):
        assert _B_exact(F(1, 2), 2, 2) == 0
        assert _B_exact(F(1, 2), 2, 5) == 0

    def test_finite_sum(self):
        assert _B_exact(F(2), 1, 2) == F(3, 4)  # (1/2)(1 + 1/2 + 0)

    def test_h_examples(self):
        # h(x) = x^p B_x(p) = sum_{k <= x} p (1 - k/x)^(n-1) k^(p-1), exactly
        assert _h_exact(F(7, 10), 1, 2) == 1
        assert _h_exact(F(1), 1, 2) == 1
        assert _h_exact(F(3), 1, 2) == 2
        assert _h_exact(F(7, 10), 2, 2) == 0
        assert _h_exact(F(5, 2), 2, 3) == F(22, 25)  # 2 (3/5)^2 + 2 (1/5)^2 2

    def test_h_nondecreasing(self):
        vals = [_h_exact(F(k, 7), 2, 3) for k in range(1, 80)]
        assert all(isinstance(v, Fraction) for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestProfiles:
    def test_sym_square(self, sym_square):
        pr = section_profiles(sym_square)
        assert pr.f == {0: 3, 1: 3}
        assert pr.f_tilde == {0: 3, 1: 3}
        assert pr.M == 1

    def test_longest_column_at_the_end_of_a_run(self):
        # conv{(0,0), (4,-2), (4,2)}: the columns x = 0..4 reach heights
        # 0, 0, 1, 1, 2 along one run, so the longest column (5 points) is
        # the run's last and the column at 0 holds one point: (H) fails
        S = make_polytope([(0, 0), (4, -2), (4, 2)], 2)
        pr = section_profiles(S)
        assert pr.f == {0: 5, 1: 3, 2: 1} and pr.M == 2
        assert (pr.G_proj, pr.zero_count, pr.max_count) == (5, 1, 5)
        assert not pr.satisfies_h
        mirrored = section_profiles(make_polytope([(0, 0), (-4, -2), (-4, 2)], 2))
        assert (mirrored.G_proj, mirrored.zero_count, mirrored.max_count) == (5, 1, 5)

    def test_layer_reads_only_a_symmetral(self, triangle, slab_body):
        # a body not symmetric in x_n is not its own symmetral: the
        # section-length and profile layers refuse it, and take its symmetral
        for P in (triangle, slab_body):
            for read in (moments.section_distribution, section_profiles):
                with pytest.raises(ValueError, match="symmetric in x_n"):
                    read(P)
                read(steiner_symmetrize(P))

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


def test_sweep_builds_each_column_table_once(monkeypatch):
    """On the ``sweep`` benchmark config (seed 1) no (polytope, k) run table
    is built twice: the readers of one body share its memoized runs, the two
    lattice targets of one scale share lam K, and on the four bodies with
    anchor 0 (cube2, simplex2, cube3, simplex3) so does the scaled workspace
    of the two Zhang targets (78 tables; 90 when lam K was built twice, 144
    walks over 108 bodies before that).  Every sweep read is a closed form
    per run: no run is expanded into its columns."""
    import zhangforge.inequalities as inequalities
    import zhangforge.lattice as lattice
    from zhangforge.harness import run_sweeps

    built = Counter()
    keep = []  # the polytopes stay alive, so no id is reused
    real = lattice._run_table

    def counting(P, k):
        keep.append(P)
        built[id(P), k] += 1
        return real(P, k)

    expanded = []
    real_columns = lattice._columns

    def columns(lines):
        expanded.append(lines)
        return real_columns(lines)

    monkeypatch.setattr(lattice, "_run_table", counting)
    for mod in (lattice, inequalities):
        monkeypatch.setattr(mod, "_columns", columns)
    run_sweeps(_load_workloads().build("sweep", 1))
    assert max(built.values()) == 1
    assert sum(built.values()) == 78
    assert expanded == []


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

    def test_workspace_columns_match_the_guarded_extension(self):
        # the workspace checks the symmetry once, then reads every column
        from zhangforge.harness import default_corpus, make_body
        from zhangforge.lattice import lattice_points

        for spec in default_corpus():
            ws = BodyWorkspace(make_body(spec))
            cols = lattice_points(project_drop_last(ws.anchored), ws.n - 1)
            assert ws.diamond_values == {y: diamond_extension(ws.asym, y).exact for y in cols}


class TestM0AndCrossing:
    def test_sym_square_m0(self, sym_square):
        assert _solve_m0(section_profiles(sym_square), 1) == (3, 3)  # a rational root: lo == hi

    def test_rational_m0_is_exact(self):
        # a rational root comes back as lo == hi whatever its denominator:
        # on [-1,1]^3 at p = 2 h_2 meets the target at 18/5, and on
        # [-64,64]^2 at p = 3 at 27594009/269515
        cube3 = make_polytope([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                               for z in (-1, 1)], 3)
        assert _solve_m0(section_profiles(cube3), 2) == (F(18, 5), F(18, 5))
        square = make_polytope([(x, y) for x in (-64, 64) for y in (-64, 64)], 2)
        rep = verify("completely_discrete_berwald", square, {"p": 3})
        assert rep.context["decided_by"] == "exact"
        assert rep.context["m0_exact"] == "27594009/269515"

    def test_m0_exceeds_lattice_height(self, sym_square):
        pr = section_profiles(sym_square)
        lo, hi = _solve_m0(pr, 1)
        assert lo >= pr.M and lo > 1

    def test_scaled_square_m0(self):
        big = make_polytope([(-2, -2), (2, -2), (-2, 2), (2, 2)], 2)
        pr = section_profiles(big)
        assert pr.M == 2
        lo, hi = _solve_m0(pr, 1)
        assert 2 <= lo <= hi

    def test_irrational_m0_is_a_tight_bracket(self):
        # [-1,1]^3 has an irrational m0: h_1 straddles the target across a
        # bracket of width below 1e-12, and both ends are rationals
        sym_cube3 = make_polytope([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                                   for z in (-1, 1)], 3)
        ws = BodyWorkspace(sym_cube3)
        pr = ws.profiles
        lo, hi = _solve_m0(pr, 1)
        target = sum(pr.f_tilde.values()) / F(pr.G_proj)
        assert type(lo) is F and type(hi) is F
        assert _h_exact(lo, 1, 3) < target <= _h_exact(hi, 1, 3)
        assert 0 < hi - lo < F(1, 10**12)

    def test_crossing_sym_square(self, sym_square):
        assert crossing_point(section_profiles(sym_square), 1) == 2

    def test_crossing_postconditions(self):
        from zhangforge.inequalities import _g_profile

        for pts in [[(-2, -2), (2, -2), (-2, 2), (2, 2)], [(0, 0), (4, 0), (0, 4)],
                    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]]:
            P = make_polytope(pts, len(pts[0]))
            ws = BodyWorkspace(P)
            pr = ws.profiles
            body = ws.anchored
            for p in (1, 2):
                kstar = crossing_point(pr, p)
                lo, hi = _solve_m0(pr, p)
                G = count_lattice(project_drop_last(body))

                def separates(t):
                    # g is nondecreasing in m0, so each side holds across the bracket
                    return (all(pr.f_tilde_at(k) >= _g_profile(k, hi, G, P.dim)
                                for k in range(0, t))
                            and all(_g_profile(k, lo, G, P.dim) >= pr.f_at(k)
                                    for k in range(t, math.ceil(hi) + 3)))

                # k* is the least threshold at which both sides hold
                assert separates(kstar)
                assert kstar == 0 or not separates(kstar - 1), (pts, p, kstar)

    def test_hypotheses_violated(self, unit_square):
        with pytest.raises(HypothesesViolated):
            # anchored unit square has M = 0
            ws = BodyWorkspace(unit_square)
            _solve_m0(ws.profiles, 1)


# (checker, params, the value the reason must name) on [-1,1]^2: exponents
# are positive integers and grid points nonnegative integers (rationals > -1
# and != 0 on the continuous Berwald grid), increasing wherever the
# statement orders them
_BAD_EXPONENTS = [
    ("completely_discrete_berwald", {"p": 1.5}, "1.5"),
    ("completely_discrete_berwald", {"qs": [1.5]}, "1.5"),
    ("completely_discrete_berwald", {"qs": [1]}, "1"),
    ("berwald_discrete", {"pairs": [[2, 1]]}, "1"),
    ("berwald_discrete", {"pairs": [[1, 2.5]]}, "2.5"),
    ("berwald_discrete", {"pairs": [[0, 1]]}, "0"),
    ("berwald_continuous", {"grid": [2, 1]}, "1"),
    ("berwald_continuous", {"grid": [1, 0.5]}, "0.5"),
    ("berwald_continuous", {"grid": [-0.5, -0.5, 1]}, "-0.5"),
    ("berwald_continuous", {"grid": [-1, 1]}, "-1"),
    ("berwald_continuous", {"grid": [0, 1]}, "0"),
    ("berwald_continuous", {"grid": ["x", 1]}, "'x'"),
    ("different_inclusion", {"grid": [0, 1.5]}, "1.5"),
    ("different_inclusion", {"grid": [3, 1]}, "1"),
    ("ball_inclusion_discrete", {"p": 2.5}, "2.5"),
    ("ball_inclusion_discrete", {"p": 3, "q": 2}, "2"),
    ("convexhull_inclusion", {"p": 2.5}, "2.5"),
    ("difference_set_inclusion", {"p": 2.5}, "2.5"),
    ("one_point_collapse", {"p": 2.5}, "2.5"),
]


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

    @pytest.mark.parametrize("name,raw,tie", [
        *((name, raw, True) for name, raw in [
            ("simplex2", (1, 0)), ("simplex2", (0, 1)), ("simplex2", (2, -1)),
            ("simplex2", (1, 3)), ("simplex3", (1, 0, 0)), ("simplex3", (1, 2, -1)),
            ("simplex2_scaled", (3, -2)), ("cube2", (1, 1)), ("cube2", (1, -1)),
            ("sym_cube2", (1, -1)), ("rect2", (1, -1)), ("tiny2", (-1, 1)),
            ("cross2", (1, 0)), ("cross2", (0, 1)), ("cross3", (1, 0, 0)),
            ("cross3", (0, 0, 1)), ("cube3", (1, 1, 1)), ("cube3", (1, -1, 1))]),
        *((name, raw, False) for name, raw in [
            ("cube2", (1, 0)), ("cube2", (2, 1)), ("cross2", (1, 1)), ("cross3", (1, 1, 0)),
            ("cube3", (1, 1, 0)), ("rand2_7", (1, 1)), ("rand2_7", (1, 0)),
            ("slab2", (1, 0)), ("slab2", (0, 1))]),
    ])
    def test_zhang_directional_ties_away_from_the_default_theta(self, name, raw, tie):
        # the corpus bodies' exact ties, and strict inequalities, at directions
        # other than the all-ones default
        spec = next(s for s in default_corpus() if s.name == name)
        rep = verify("zhang_directional", make_body(spec), {"theta": list(raw)})
        assert rep.context["decided_by"] == "exact"
        if tie:
            assert rep.lhs.exact == rep.rhs.exact
        else:
            assert rep.lhs.exact < rep.rhs.exact

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

    def test_completely_discrete_berwald_solves_m0_once(self, monkeypatch):
        import zhangforge.inequalities as ineq

        calls = []

        def counted(pr, p):
            calls.append(p)
            return _solve_m0(pr, p)

        monkeypatch.setattr(ineq, "_solve_m0", counted)
        for spec in default_corpus():
            body = make_body(spec)
            ws = BodyWorkspace(body)
            if applicability("completely_discrete_berwald", ws) is None:
                calls.clear()
                rep = verify("completely_discrete_berwald", body, ws=ws)
                assert calls == [1], spec.name
                # the public crossing point (its own m0) agrees with the row's
                assert rep.context["crossing_point"] == crossing_point(ws.profiles, 1)

    def test_berwald_continuous_default_grid_has_no_repeat(self, sym_square):
        # for n = 2 the grid {-1/2, 1, 2, n, n+1} held 2 twice, and the
        # trivial pair (2, 2) was reported as the worst
        rep = verify("berwald_continuous", sym_square)
        assert rep.holds
        assert rep.context["grid"] == ["-1/2", "1", "2", "3"]
        assert rep.context["worst_pair"] != [2.0, 2.0]

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

    def test_one_point_collapse_compares_pth_powers(self):
        # both sides are p-th powers of the same rational, so both stay exact
        K = make_polytope([(0, 0), (F(1, 2), 1), (F(1, 2), -1)], 2)
        for p in (2, 3):
            rep = verify("one_point_collapse", K, params={"p": p})
            assert rep.holds and rep.lhs.exact == 0, p
            row = [d for d in rep.context["directions"] if d["dir"] == ["-1", "0"]]
            assert row[0]["ball"] == row[0]["neg"] == str(F(1, 2) ** p), p

    @pytest.mark.parametrize("route", ["discrete_moment", "lp_solve"])
    def test_one_point_collapse_reaches_both_routes(self, route, monkeypatch):
        # the lattice-covariogram Ball body on one side, the vertex LP for
        # rho_{-K} on the other: with either route stubbed out the remark
        # body no longer gets `holds`
        import zhangforge.inequalities as ineq

        class Stubbed(Exception):
            pass

        def stub(*args, **kwargs):
            raise Stubbed(route)

        monkeypatch.setattr(ineq, route, stub)
        K = make_polytope([(0, 0), (F(1, 2), 1), (F(1, 2), -1)], 2)
        for p in (1, 2, 3):
            try:
                holds = verify("one_point_collapse", K, params={"p": p}).holds
            except Stubbed:
                holds = False
            assert not holds, p

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

    @pytest.mark.parametrize("cid", _BALL_BODY_CHECKERS)
    def test_ball_body_checkers_are_inconclusive_beyond_three_dimensions(self, cid):
        # the sample directions are a circle (n = 2) or a sphere (n = 3); a
        # 4-simplex containing 0 gets a reason, not a numpy shape error
        simplex4 = make_polytope(
            [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)], 4
        )
        rep = verify(cid, simplex4)
        assert rep.verdict == "inconclusive"
        assert "n = 2, 3" in rep.context["reason"]

    def test_ball_body_checkers_share_the_sample_radials(self, simplex3, monkeypatch):
        # one open-fattened pass over the sample directions, read by both
        # ball_inclusion_discrete and difference_set_inclusion, and one over
        # convexhull_inclusion's convex-combination directions
        open_calls = []
        real = moments.discrete_moment_batch

        def counting(P, dirs, p, open_cube):
            if open_cube:
                open_calls.append(len(dirs))
            return real(P, dirs, p, open_cube)

        monkeypatch.setattr(moments, "discrete_moment_batch", counting)
        ws = BodyWorkspace(simplex3)
        for cid in _BALL_BODY_CHECKERS:
            assert verify(cid, simplex3, ws=ws).holds, cid
        assert len(open_calls) == 2
        assert open_calls[0] == len(ws.sample_dirs)

    def test_ball_body_trio_clips_the_closed_points_once(self, simplex3, monkeypatch):
        # the discrete radials at q = 2 and p = 1 and the difference-set
        # radial all reduce one closed clip table of the body
        import zhangforge.inequalities as ineq

        calls = []
        real = ineq.lattice_clip

        def counting(P, dirs, pts=None):
            calls.append(len(dirs))
            return real(P, dirs, pts)

        monkeypatch.setattr(ineq, "lattice_clip", counting)
        ws = BodyWorkspace(simplex3)
        for cid in _BALL_BODY_CHECKERS:
            assert verify(cid, simplex3, ws=ws).holds, cid
        assert calls == [len(ws.sample_dirs)]

    def test_identity_triples_exact(self, big_square):
        rep = verify("identity_triple_discrete", big_square)
        assert rep.holds
        for row in rep.context["per_p"]:
            assert row["equal"]

    @pytest.mark.parametrize("cid", ["identity_triple_continuous", "identity_triple_discrete"])
    def test_identity_triples_need_integer_exponents(self, unit_square, cid):
        # a fractional p has no exact triple; it must not be truncated to 1
        # or compared against the p = 1 slab
        for ps in ([1.5], [F(3, 2)], [1, F(5, 2)], [0]):
            rep = verify(cid, unit_square, {"ps": ps})
            assert rep.verdict == "inconclusive", ps
            assert "integer" in rep.context["reason"]
        rep = verify(cid, unit_square, {"ps": [1, 2.0, F(3)]})
        assert rep.holds and [row["p"] for row in rep.context["per_p"]] == [1, 2, 3]

    @pytest.mark.parametrize("cid,params,bad", _BAD_EXPONENTS,
                             ids=[f"{c}-{p}".replace(" ", "").replace("'", "")
                                  for c, p, _b in _BAD_EXPONENTS])
    def test_exponents_outside_the_statement_are_inconclusive(self, sym_square, cid, params,
                                                               bad):
        # each was truncated, reversed or crashed: p = 1.5 was checked as 1, a
        # pair (2, 1) reported fails for a pair the statement does not claim,
        # q = p held trivially, 2.5 raised TypeError and 0 ZeroDivisionError
        body = sym_square
        if cid == "one_point_collapse":  # applies only when K cap Z^n = {0}
            body = make_polytope([(0, 0), (F(1, 2), 1), (F(1, 2), -1)], 2)
        rep = verify(cid, body, params)
        assert rep.verdict == "inconclusive", rep.context
        assert f"exponent {bad} " in rep.context["reason"]

    def test_lattice_zhang_holds(self, sym_square, big_square):
        for P in (sym_square, big_square):
            assert verify("lattice_zhang", P).holds


class TestVolumeIdentity:
    def test_exact_on_every_origin_body_of_the_corpus(self):
        n2 = 0
        for spec in default_corpus():
            body = make_body(spec)
            ws = BodyWorkspace(body)
            if not ws.origin_inside:
                continue
            # the identity is exact in every n; the checker runs at n = 2
            assert _discrete_star_volume(body) == ws.vol, spec.name
            if applicability("volume_identity_discrete", ws) is None:
                rep = verify("volume_identity_discrete", body, ws=ws)
                assert rep.holds and rep.context["decided_by"] == "exact"
                assert rep.lhs.exact == 0 and rep.rhs.exact == 0
                assert rep.context["star_volume"] == rep.context["volume"] == str(ws.vol)
                n2 += 1
        assert n2 == 7

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_on_seeded_random_hulls(self, dim):
        checked = 0
        for seed in range(10):
            body = make_body(BodySpec("random_hull", dim, {"count": 7, "radius": 2, "seed": seed}))
            if count_lattice(body):  # every lattice point of K gives vol(K)
                assert _discrete_star_volume(body) == body.volume_fraction(), seed
                checked += 1
        assert checked >= 8

    def test_exact_on_a_scaled_workspace(self):
        for spec in default_corpus():
            qws = BodyWorkspace(make_body(spec)).scaled(2)
            assert _discrete_star_volume(qws.body) == qws.vol, spec.name

    def test_a_wrong_facet_weight_fails(self, unit_square, monkeypatch):
        # the lattice points of [0,1]^2 average to (1/2, 1/2), at height 1/2
        # from every facet line, so a change to any one weight moves the star
        # volume
        real = Polytope.facet_weights

        def skewed(self):
            (a, b, w), *rest = real(self)
            return ((a, b, w + F(1, 7)), *rest)

        monkeypatch.setattr(Polytope, "facet_weights", skewed)
        rep = verify("volume_identity_discrete", unit_square)
        assert rep.verdict == "fails" and rep.context["decided_by"] == "exact"
        assert rep.lhs.exact == F(1, 2) * F(1, 7) / 2  # height x weight change / n


class TestSweeps:
    def test_gn_volume_rows(self, unit_square):
        rows = limit_sweep(unit_square, "gn_volume", [10, 64])
        r10 = rows[0]
        assert r10["value"] == pytest.approx(1.21)
        assert r10["rel_error"] == pytest.approx(0.21)
        r64 = rows[1]
        assert r64["rel_error"] == pytest.approx((65 / 64) ** 2 - 1)
        assert r64["rel_error"] < 0.05

    def test_lattice_sweeps_past_a_machine_integer(self, triangle):
        # at scale 10**20 a bounding-box line holds more than 2**63 columns
        for target in ("gn_volume", "mu_volume"):
            (row,) = limit_sweep(triangle, target, [10**20])
            assert row["scale"] == 1e20 and row["value"] == row["reference"] == 0.5

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

    @pytest.mark.parametrize("scale", [2.5, 0, -4])
    def test_lattice_scales_are_positive_integers(self, scale):
        # 2.5 was computed at 2 and reported as 2.5, -4 gave a negative
        # G_n / scale^n in dimension 3, and 0 divided by zero
        from zhangforge.errors import ConfigError
        from zhangforge.harness import BodySpec, SuiteConfig, run_sweeps

        cfg = SuiteConfig(bodies=[BodySpec("cube", 3, {"edge": [0, 1]}, name="c")],
                          sweeps=[{"target": "gn_volume", "body": "c", "scales": [4, scale]}])
        with pytest.raises(ConfigError):
            run_sweeps(cfg)

    @pytest.mark.parametrize("params", [{"n": 2, "p": 1.5}, {"n": 2, "p": F(3, 2)},
                                        {"n": 0, "p": 1}, {"n": 2, "p": 0}])
    def test_B_limit_needs_positive_integer_n_and_p(self, params):
        # p = 1.5 read its reference at p = 1 (0.5 against the limit 0.4 at n = 2)
        from zhangforge.errors import ConfigError

        with pytest.raises(ConfigError):
            limit_sweep(None, "B_limit", [100], params)

    def test_B_limit_keeps_real_scales(self):
        rows = limit_sweep(None, "B_limit", [F(5, 2), 2.5], {"n": 2, "p": 1})
        assert [r["scale"] for r in rows] == [2.5, 2.5]
        assert rows[0]["value"] == rows[1]["value"]


def _count_hulls_and_lps(monkeypatch):
    import zhangforge.lp as lp
    import zhangforge.polytope as poly

    calls = []
    for mod, name in ((poly, "convex_hull"), (poly, "lp_solve"), (lp, "lp_solve")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    return calls


class TestScaledWorkspace:
    @pytest.mark.parametrize("spec", default_corpus(), ids=lambda spec: spec.name)
    def test_scaled_workspace_matches_the_hull_and_lp_path(self, spec):
        ws = BodyWorkspace(make_body(spec))
        n = ws.n
        for lam in (2, 3, 7):
            qws = ws.scaled(lam)
            # a fresh hull of the scaled vertices, with nothing carried
            Q = make_polytope([tuple(lam * c for c in v) for v in ws.anchored.vertices], n)
            assert qws.anchored == Q and qws.body is qws.anchored
            assert qws.anchor == max_section_anchor(Q) == (F(0),) * (n - 1)
            S = steiner_symmetrize(Q)
            assert qws.asym == S and qws.asym.halfspaces == S.halfspaces
            assert qws.volp == project_drop_last(Q).volume_fraction() == lam ** (n - 1) * ws.volp

    def test_more_scales_build_no_more_hulls_or_lps(self, monkeypatch):
        from zhangforge.harness import BodySpec, SuiteConfig, run_sweeps

        def config(scales):
            return SuiteConfig(bodies=[BodySpec("random_hull", 2, {"count": 8, "radius": "1/2",
                                                                   "seed": 3}, name="r")],
                               sweeps=[{"target": t, "body": "r", "scales": scales}
                                       for t in ("gn_volume", "mu_volume",
                                                 "discrete_to_continuous_zhang",
                                                 "purely_discrete_to_continuous")])

        calls = _count_hulls_and_lps(monkeypatch)
        run_sweeps(config([4]))
        one = Counter(calls)
        calls.clear()
        run_sweeps(config([4, 16, 64]))
        assert Counter(calls) == one and one["convex_hull"] > 0

    @pytest.mark.parametrize("spec", [BodySpec("cube", 3, {"edge": [0, 1]}, name="cube3"),
                                      BodySpec("simplex", 2, name="simplex2")],
                             ids=lambda spec: spec.name)
    def test_more_scales_build_no_more_hulls_or_lps_at_anchor_0(self, spec, monkeypatch):
        # gn_volume first: lam K is built before K's symmetral, and the scaled
        # workspace of the Zhang targets reads that same image, which takes
        # lam S over from K when it is read again
        from zhangforge.harness import SuiteConfig, run_sweeps

        ws = BodyWorkspace(make_body(spec))
        assert ws.anchored is ws.body
        assert all(ws.scaled(lam).body is ws.body.scaled(lam) for lam in (4, 16))

        def config(scales):
            return SuiteConfig(bodies=[spec],
                               sweeps=[{"target": t, "body": spec.name, "scales": scales}
                                       for t in ("gn_volume", "mu_volume",
                                                 "discrete_to_continuous_zhang",
                                                 "purely_discrete_to_continuous")])

        calls = _count_hulls_and_lps(monkeypatch)
        run_sweeps(config([4]))
        one = Counter(calls)
        calls.clear()
        run_sweeps(config([4, 16, 64]))
        assert Counter(calls) == one and one["convex_hull"] > 0


def _trio_bodies():
    """The corpus bodies the Ball-body trio runs on (n <= 3, origin inside),
    two random hulls per dimension that contain the origin, and two hulls
    per dimension of the origin and seeded points with denominators up to 9,
    whose directions have squared norms that binary64 rounds."""
    import numpy as np

    specs = list(default_corpus()) + [
        BodySpec("random_hull", n, {"count": 7, "radius": 2, "seed": s}, name=f"r{n}_{s}")
        for n in (2, 3) for s in (0, 1)
    ]
    bodies = [(spec.name, make_body(spec)) for spec in specs]
    rng = np.random.default_rng(31)
    for n in (2, 3):
        for k in range(2):
            pts = [tuple(F(int(x), int(q)) for x, q in zip(rng.integers(-12, 13, n),
                                                            rng.integers(1, 10, n)))
                   for _ in range(n + 4)]
            bodies.append((f"q{n}_{k}", make_polytope(pts + [(0,) * n], n)))
    out = []
    for name, P in bodies:
        ws = BodyWorkspace(P)
        if P.affine_dim == ws.n <= 3 and ws.origin_inside:
            out.append((name, ws))
    return out


def _sample_dirs_by_double_loop(ws):
    """``BodyWorkspace.sample_dirs`` as one Python loop per vertex and per
    (lattice point, vertex) pair, one ``np.linalg.norm`` each: the oracle of
    the array-built directions."""
    import numpy as np

    from zhangforge.inequalities import _DIRS_2D, _DIRS_3D, _fib_sphere

    extra = []
    for v in ws.body.vertices:
        fv = np.array([float(c) for c in v])
        nn = np.linalg.norm(fv)
        if nn > 1e-12:
            extra.append(fv / nn)
            extra.append(-fv / nn)
    for y in lattice_points(ws.body):
        for v in ws.body.vertices:
            d = np.array([float(c) for c in y]) - np.array([float(c) for c in v])
            nn = np.linalg.norm(d)
            if nn > 1e-12:
                extra.append(d / nn)
    if ws.n == 2:
        ang = 2.0 * math.pi * np.arange(_DIRS_2D) / _DIRS_2D
        base = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        base = _fib_sphere(_DIRS_3D)
    if extra:
        base = np.concatenate([base, np.array(extra)], axis=0)
    return base


class TestBallBodySamples:
    def test_sample_dirs_against_the_double_loop(self):
        import numpy as np

        bodies = _trio_bodies()
        assert len(bodies) >= 19
        for name, ws in bodies:
            assert np.array_equal(ws.sample_dirs, _sample_dirs_by_double_loop(ws)), name

    def test_sample_radials_equal_radial_batch_bit_for_bit(self):
        # the radials reduced from the workspace's one closed table equal a
        # fresh radial_batch on the same directions, and the per-source
        # reductions written out here on a fresh clip
        import numpy as np

        from zhangforge.moments import _interval_batch, radial_batch

        for name, ws in _trio_bodies():
            P, dirs = ws.body, ws.sample_dirs
            Y = np.array([[float(c) for c in y] for y in lattice_points(P)])
            lo, hi, feas = _interval_batch(P, Y, dirs, strict=False)
            for p in (1, 2, 3):
                got = ws.sample_radial("discrete", p)
                assert np.array_equal(got, radial_batch("discrete", P, dirs, p)), (name, p)
                mom = np.where(feas, np.maximum(hi, 0.0) ** p - np.maximum(lo, 0.0) ** p,
                               0.0).sum(axis=0)
                assert np.array_equal(got, (mom / count_lattice(P)) ** (1.0 / p)), (name, p)
            got = ws.sample_radial("difference-set", None)
            assert np.array_equal(got, radial_batch("difference-set", P, dirs, None)), name
            assert np.array_equal(got, np.where(feas, hi, 0.0).max(axis=0)), name


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


def _load_workloads():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# the lattice-layer reads that go through the column walk, by code name
_COLUMN_READERS = {"section_profiles", "satisfies_h", "diamond_values", "fattened_mu",
                   "count_lattice", "_chk_lattice_zhang"}


def test_column_reads_build_no_points_and_cut_no_sections(monkeypatch):
    """On the ``sweep`` benchmark config (seed 1) and the default corpus, the
    profile, diamond, fattened-mu, count and lattice-Zhang reads call none of
    ``lattice_points``, ``vertical_section`` and ``ray_decomposition``."""
    import importlib
    import pkgutil
    import sys

    import zhangforge
    from zhangforge.harness import default_config, run_suite, run_sweeps

    seen = Counter()
    inside = Counter()

    def wrap(name, real):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            f = sys._getframe(1)
            while f is not None:
                if f.f_code.co_name in _COLUMN_READERS:
                    inside[(f.f_code.co_name, name)] += 1
                    break
                f = f.f_back
            return real(*args, **kwargs)
        return wrapper

    mods = [importlib.import_module(f"zhangforge.{m.name}")
            for m in pkgutil.iter_modules(zhangforge.__path__) if m.name != "__main__"]
    for name, owner in (("lattice_points", "lattice"), ("ray_decomposition", "lattice"),
                        ("vertical_section", "polytope")):
        real = getattr(importlib.import_module(f"zhangforge.{owner}"), name)
        wrapper = wrap(name, real)
        for mod in mods:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, wrapper)

    sweeps = run_sweeps(_load_workloads().build("sweep", 1))
    doc = run_suite(default_config())
    assert inside == Counter()
    # the reads ran: every lattice target swept, every discrete Zhang row decided
    assert len(sweeps) == 28
    rows = [r for r in doc["reports"] if r["id"] in ("lattice_zhang", "discrete_zhang_mu",
                                                      "purely_discrete_zhang")]
    assert rows and all(r["verdict"] == "holds" for r in rows)
    assert seen["lattice_points"]  # the wrappers were live (``sample_dirs`` enumerates)
