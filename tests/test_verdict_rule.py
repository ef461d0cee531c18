"""One verdict rule: ``_verdict`` decides every checker's verdict and slack,
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
from zhangforge.inequalities import _verdict, verify
from zhangforge.polytope import MeasureValue

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
    slack, verdict, decided_by = _verdict(lhs, rhs)
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
        def widened(P, p, profiles=None, shift=shift):
            lo, hi = real(P, p, profiles)
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
    """The top-level definitions of ``zhangforge`` that call ``name``
    (module-level code counts as "<module>")."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and sub.func.id == name for sub in ast.walk(stmt)):
                out.add(getattr(stmt, "name", "<module>"))
    return out


def test_reports_are_built_only_by_the_verdict_rule():
    assert _callers("InequalityReport") == {"_report", "_inconclusive"}
    assert _callers("B_coeff") == {"limit_sweep"}


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
