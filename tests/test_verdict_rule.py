"""One verdict rule: ``verdict.decide`` decides every checker's verdict and slack,
over exact values, rational enclosures or asserted binary64 errors, and the
comparison-profile scale m0 is one rational bracket."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

import zhangforge.inequalities as ineq
from zhangforge import make_polytope
from zhangforge.harness import SuiteConfig, default_corpus, run_suite
from zhangforge.inequalities import verify
from zhangforge.verdict import MeasureValue, chain_report, decide

F = Fraction
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zhangforge"

# the checkers that still compare binary64 sides against asserted errors
_TOLERANCE_CHECKERS = {"berwald_continuous", "ball_inclusion_discrete", "convexhull_inclusion",
                       "difference_set_inclusion"}

exact = MeasureValue.from_exact
enclosed = MeasureValue.enclosed


@pytest.mark.parametrize("lhs,rhs,want", [
    (exact(F(1, 3)), exact(F(1, 2)), (1 / 6, "holds", "exact")),
    (exact(F(1, 2)), exact(F(1, 2)), (0.0, "holds", "exact")),
    (exact(F(2, 3)), exact(F(1, 2)), (-1 / 6, "fails", "exact")),
    # disjoint enclosures decide; touching ends still hold
    (enclosed(F(1), F(2)), enclosed(F(3), F(4)), (2.0, "holds", "enclosure")),
    (enclosed(F(1), F(2)), exact(F(2)), (0.5, "holds", "enclosure")),
    (enclosed(F(3), F(4)), enclosed(F(1), F(2)), (-2.0, "fails", "enclosure")),
    # overlapping enclosures are inconclusive, never holds, whatever the midpoints
    (enclosed(F(1), F(3)), enclosed(F(2), F(5)), (1.5, "inconclusive", "enclosure")),
    (enclosed(F(2), F(5)), enclosed(F(1), F(3)), (-1.5, "inconclusive", "enclosure")),
    (enclosed(F(1), math.inf), exact(F(10)), (-math.inf, "inconclusive", "enclosure")),
    (enclosed(F(11), math.inf), exact(F(10)), (-math.inf, "fails", "enclosure")),
    # a binary64 side: slack >= -(sum of the asserted errors)
    (MeasureValue.approx(1.0, 0.1), exact(F(1, 2)), (-0.5, "fails", "tolerance")),
    (MeasureValue.approx(1.0, 0.3), MeasureValue.approx(0.8, 0.0), (-0.2, "holds", "tolerance")),
])
def test_verdict_table(lhs, rhs, want):
    slack, verdict, decided_by = decide(lhs, rhs)
    assert (verdict, decided_by) == want[1:]
    assert slack == pytest.approx(want[0])


def test_an_enclosure_reports_its_midpoint_and_rounded_up_half_width():
    # binary64 0.05 is above 1/20, and 1/30 rounds down, so it is stepped up
    mv = enclosed(F(0), F(1, 10))
    assert mv.exact is None and mv.value == 0.05 and (mv.lo, mv.hi) == (0, F(1, 10))
    assert mv.abs_error == 0.05 and F(mv.abs_error) >= F(1, 20)
    mv = enclosed(F(0), F(1, 15))
    assert mv.value == 1 / 30 and mv.abs_error == math.nextafter(1 / 30, 1.0)
    assert F(mv.abs_error) >= F(1, 30) > F(1 / 30)
    assert enclosed(F(3, 7), F(3, 7)) == exact(F(3, 7))


_SYM_CUBE3 = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


@pytest.mark.parametrize("cid", ["purely_discrete_zhang", "completely_discrete_berwald"])
def test_a_bracket_that_straddles_the_right_side_is_inconclusive(cid, monkeypatch):
    # [-1,1]^3 has an irrational m0; pulling the bracket's left end towards 1
    # widens each enclosure until it straddles the right side, and at
    # lo = 1 the left side has no upper end (h vanishes there)
    body = make_polytope(_SYM_CUBE3, 3)
    real = ineq._solve_m0
    verdicts = []
    for shift in (0, 1, 2, 4, 8, None):
        def widened(pr, p, shift=shift):
            lo, hi = real(pr, p)
            return (F(1) if shift is None else 1 + (lo - 1) / 2**shift), hi

        monkeypatch.setattr(ineq, "_solve_m0", widened)
        rep = verify(cid, body)
        assert rep.context["decided_by"] == "enclosure"
        verdicts.append(rep.verdict)
    assert verdicts[0] == "holds"
    assert set(verdicts[1:]) == {"inconclusive"}
    assert rep.lhs.value == math.inf


@pytest.fixture(scope="module")
def corpus_rows():
    return run_suite(SuiteConfig(bodies=default_corpus(), sweeps=[]))["reports"]


def test_exact_and_enclosure_slacks_agree_with_their_verdicts(corpus_rows):
    rows = [r for r in corpus_rows if r["context"].get("decided_by") != "tolerance"]
    assert {r["context"]["decided_by"] for r in rows} == {"exact", "enclosure"}
    bad = [(r["id"], r["body"], r["slack"], r["verdict"]) for r in rows
           if (r["slack"] >= 0) != (r["verdict"] == "holds")]
    assert not bad
    enclosures = {(r["id"], r["body"]) for r in rows
                  if r["context"]["decided_by"] == "enclosure"}
    assert enclosures == {(cid, body) for body in ("sym_cube3", "cross3")
                          for cid in ("purely_discrete_zhang", "completely_discrete_berwald")}


def test_only_the_listed_checkers_decide_by_tolerance(corpus_rows):
    assert {r["id"] for r in corpus_rows
            if r["context"]["decided_by"] == "tolerance"} == _TOLERANCE_CHECKERS


def _callers(name: str) -> set[str]:
    """The top-level definitions of ``zhangforge`` that call ``name``, as
    "module.definition" (module-level code counts as "module.<module>")."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and sub.func.id == name for sub in ast.walk(stmt)):
                out.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    return out


def _readers(attr: str) -> set[str]:
    """The top-level definitions of ``zhangforge`` that read ``.attr``."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if any(isinstance(sub, ast.Attribute) and sub.attr == attr for sub in ast.walk(stmt)):
                out.add(getattr(stmt, "name", "<module>"))
    return out


def test_only_the_shadow_volume_normalizes_a_direction():
    # every other per-direction route works in units of theta.raw
    for attr in ("exact_norm", "norm_sq"):
        assert _readers(attr) <= {"projection_volume", "Direction"}, attr


def test_reports_are_built_only_inside_the_verdict_module():
    # every row is the rule's, or one of the two outcomes that skip it
    assert _callers("InequalityReport") == {"verdict.report", "verdict.inconclusive",
                                            "verdict.hard_failure"}
    assert _callers("B_coeff") == set()


def test_the_verdict_module_imports_only_errors_and_no_numpy():
    # the kernel that decides a row reads no geometry: items that re-decide a
    # row from its two sides import it alone
    tree = ast.parse((PACKAGE / "verdict.py").read_text())
    package, absolute = set(), set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom):
            if sub.level:
                package.add(sub.module)
            else:
                absolute.add(sub.module)
        elif isinstance(sub, ast.Import):
            absolute |= {alias.name for alias in sub.names}
    assert package == {"errors"}
    assert not {m for m in absolute if m.split(".")[0] in ("numpy", "zhangforge")}


def _pair(label, lhs, rhs, roots=None):
    lhs_root, rhs_root = roots if roots else (lhs.value, rhs.value)
    return (label, lhs, rhs, lhs_root, rhs_root)


def test_a_chain_reports_a_failing_pair_before_a_holding_one_of_larger_gap():
    # the failing pair's roots show a gap of 1/2 in its favour, the holding
    # pair's a gap of 1/10: a pick by the gap alone would report the pair that holds
    holding = _pair([1, 2], exact(F(1)), exact(F(2)), (2.0, 2.1))
    failing = _pair([2, 3], exact(F(3)), exact(F(2)), (1.0, 1.5))
    rep = chain_report("chain", [holding, failing], True)
    assert rep.verdict == "fails" and rep.context["worst_pair"] == [2, 3]
    assert (rep.lhs, rep.rhs) == (exact(F(3)), exact(F(2)))
    assert [row["holds"] for row in rep.context["pairs"]] == [True, False]
    # among pairs that all hold, the least gap of the roots is reported
    rep = chain_report("chain", [holding, _pair([2, 3], exact(F(1)), exact(F(2)), (1.0, 1.5))],
                       False)
    assert rep.holds and rep.context["worst_pair"] == [1, 2] and "pairs" not in rep.context


def test_a_binary64_chain_reports_the_pair_the_rule_decides_worst():
    # berwald_continuous asserts a slop of 1e-9 |v2| on the left side v2 of
    # each pair p1 < p2.  Both pairs fail; by the rule's margin
    # v1 - v2 + 1e-9 |v2| the second is worse (-0.49999999925 against
    # -0.4999999985), though a pick weighing the slop by |v1| ranks the
    # first worse (-0.5 against -0.49999999975)
    def pair(label, v1, v2):
        return _pair(label, MeasureValue.approx(v2, 1e-9 * abs(v2)), MeasureValue.approx(v1, 0.0))

    first, second = pair([1.0, 2.0], 1e9, 1e9 + 1.5), pair([2.0, 3.0], 1.0, 1.50000000075)
    assert min([first, second], key=lambda p: p[4] - p[3] + 1e-9 * abs(p[4])) is first
    rep = chain_report("chain", [first, second], False)
    assert rep.verdict == "fails" and rep.context["decided_by"] == "tolerance"
    assert rep.context["worst_pair"] == [2.0, 3.0] and rep.lhs.value == 1.50000000075
    margins = [rhs.value - lhs.value + lhs.abs_error + rhs.abs_error
               for _l, lhs, rhs, _a, _b in (first, second)]
    assert margins[1] < margins[0] < 0


def test_no_quadrature_or_retry_in_the_verdict_path():
    # the volume identity is decided from exact facet weights; the circle
    # quadrature stays in moments for the continuous Ball body only
    tree = ast.parse((PACKAGE / "inequalities.py").read_text())
    names = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    assert not names & {"star_volume", "facet_angles", "retried"}
