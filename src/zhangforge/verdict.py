"""The verdict kernel: the value type of a row's sides, the rule that decides
a row, and the outcomes that skip the rule.  It reads no geometry and loads no
numpy; of the package it imports only ``errors``.

Verdict policy: every checker hands ``report`` the quantities it compares,
and ``decide`` chooses by one of three rules, named in ``decided_by``.
*exact*: two rationals.  *enclosure*: rational bounds on both sides (exact is
lo == hi); `holds` iff lhs.hi <= rhs.lo, `fails` iff lhs.lo > rhs.hi, else
`inconclusive`.  *tolerance*: a binary64 side, `holds` iff slack >= -(sum of
the asserted errors).  The slack is rhs - lhs at the midpoints, so its sign
agrees with an exact or enclosure verdict.  A chain of comparisons
(``chain_report``) decides every pair by the rule and reports one.  Skipping
the rule: ``inconclusive`` (a checker that cannot run, with the reason) and
``hard_failure`` (the `fails` row of one of ``HARD_FAILURES``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FrozenRecord, NoCrossing, NoRoot, Record

# no root of the profile scale, no crossing point: each falsifies a lemma
HARD_FAILURES = (NoRoot, NoCrossing)


_set = object.__setattr__


class MeasureValue(FrozenRecord):
    """A scalar measurement with exactness provenance and an error bound.

    ``lo``/``hi`` bound the true value rationally (both ``exact`` when it is
    known; ``hi`` may be ``math.inf``); ``approx`` values have no bounds.
    """

    __slots__ = _fields = ("value", "exact", "abs_error", "lo", "hi")

    def __init__(self, value: float, exact: Fraction | None = None, abs_error: float = 0.0,
                 lo: Fraction | None = None, hi: Fraction | float | None = None):
        _set(self, "value", value)
        _set(self, "exact", exact)
        _set(self, "abs_error", abs_error)
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @staticmethod
    def from_exact(q) -> "MeasureValue":
        q = q if isinstance(q, Fraction) else Fraction(q)
        return MeasureValue(value=float(q), exact=q, abs_error=0.0, lo=q, hi=q)

    @staticmethod
    def enclosed(lo: Fraction, hi: Fraction | float) -> "MeasureValue":
        """A value known to lie in [lo, hi]: the midpoint, with the half-width
        rounded up as its error; exact when lo == hi."""
        if lo == hi:
            return MeasureValue.from_exact(lo)
        half = (hi - lo) / 2
        err = float(half)
        err = err if err >= half else math.nextafter(err, math.inf)
        return MeasureValue(value=float(lo + half), exact=None, abs_error=err, lo=lo, hi=hi)

    @staticmethod
    def approx(value: float, abs_error: float) -> "MeasureValue":
        return MeasureValue(value=float(value), exact=None, abs_error=float(abs_error))


class InequalityReport(Record):
    __slots__ = _fields = ("id", "lhs", "rhs", "slack", "verdict", "context")

    def __init__(self, id: str, lhs: MeasureValue, rhs: MeasureValue, slack: float,
                 verdict: str, context: dict | None = None):
        self.id = id
        self.lhs = lhs
        self.rhs = rhs
        self.slack = slack
        self.verdict = verdict
        self.context = {} if context is None else context

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def decide(lhs: MeasureValue, rhs: MeasureValue) -> tuple[float, str, str]:
    """(slack, verdict, decided_by) of lhs <= rhs; see the module's verdict policy."""
    if lhs.lo is not None and rhs.lo is not None:
        mid_l = lhs.exact if lhs.exact is not None else (lhs.lo + lhs.hi) / 2
        mid_r = rhs.exact if rhs.exact is not None else (rhs.lo + rhs.hi) / 2
        if lhs.hi <= rhs.lo:
            verdict = "holds"
        elif lhs.lo > rhs.hi:
            verdict = "fails"
        else:
            verdict = "inconclusive"
        exact = lhs.exact is not None and rhs.exact is not None
        return float(mid_r - mid_l), verdict, "exact" if exact else "enclosure"
    err = lhs.abs_error + rhs.abs_error
    s = rhs.value - lhs.value
    return s, ("holds" if s >= -err else "fails"), "tolerance"


def report(cid: str, lhs: MeasureValue, rhs: MeasureValue, **context) -> InequalityReport:
    """The row of lhs <= rhs, decided by the rule."""
    slack, verdict, decided_by = decide(lhs, rhs)
    return InequalityReport(cid, lhs, rhs, slack, verdict, {**context, "decided_by": decided_by})


_ZERO = MeasureValue.approx(0.0, 0.0)


def inconclusive(cid: str, reason: str) -> InequalityReport:
    """The row of a checker that could not run, with the reason."""
    return InequalityReport(cid, _ZERO, _ZERO, 0.0, "inconclusive", {"reason": reason})


def hard_failure(cid: str, exc: Exception) -> InequalityReport:
    """The `fails` row of one of ``HARD_FAILURES``: both sides 0, the error named."""
    return InequalityReport(cid, _ZERO, _ZERO, 0.0, "fails",
                            {"hard_failure": type(exc).__name__, "message": str(exc)})


def chain_report(cid: str, pairs, listed: bool, **context) -> InequalityReport:
    """The row of a chain of pairs (label, lhs, rhs, lhs_root, rhs_root), each
    decided by the rule.  It reports a failing pair, else an inconclusive one,
    else the one of least margin (the first on a tie): rhs_root - lhs_root on
    the chain's scale, plus the asserted errors of a `tolerance` pair.  When
    ``listed``, ``context["pairs"]`` has each pair's p, q, roots and verdict."""
    rows = []
    for label, lhs, rhs, lhs_root, rhs_root in pairs:
        _slack, verdict, decided_by = decide(lhs, rhs)
        margin = rhs_root - lhs_root
        if decided_by == "tolerance":
            margin += lhs.abs_error + rhs.abs_error
        rank = ("fails", "inconclusive", "holds").index(verdict)
        rows.append(((rank, margin), label, lhs, rhs, lhs_root, rhs_root, verdict))
    _key, label, lhs, rhs, *_rest = min(rows, key=lambda row: row[0])
    if listed:
        context["pairs"] = [{"p": p, "q": q, "lhs": lr, "rhs": rr, "holds": verdict == "holds"}
                            for _k, (p, q), _l, _r, lr, rr, verdict in rows]
    return report(cid, lhs, rhs, worst_pair=label, **context)
