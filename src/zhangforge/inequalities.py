"""Checker registry: every verified inequality/identity, the discrete
comparison-profile machinery behind the purely lattice-counting bound, and
scaling-limit sweeps.

The discrete bounds read the Steiner symmetral S of the anchored body fattened
by the unit cube of e_n^perp.  Every such quantity reads the lattice layer's
integer columns of S, of its open fattening and of its memoized closed
fattening F = ``lattice.fattening(S, n-1)``, with no LP, no slice and no
point set: the profiles f, f~, the top height M and the column counts are
height counts and sizes of column ranges, G_{n-1}(P K) is the number of
columns of S, and the diamond extension is half a column length of F.

Verdict policy: every checker hands ``_report`` the quantities it compares,
and ``_verdict`` decides by one of three rules, named in ``decided_by``.
*exact*: two rationals.  *enclosure*: rational bounds on both sides (exact is
lo == hi); `holds` iff lhs.hi <= rhs.lo, `fails` iff lhs.lo > rhs.hi, else
`inconclusive`.  *tolerance*: a binary64 side, `holds` iff slack >= -(sum of
the asserted errors).  The slack is rhs - lhs at the midpoints, so its sign
agrees with an exact or enclosure verdict.  m0 is one rational bracket, read
through the monotonicity of h_q.  No checker retries: `volume_identity_discrete`
compares two rationals, the star volume summed over the cones from each
lattice point to the facets and vol(K).  Violated preconditions and
exponents outside a statement's range yield `inconclusive` with a reason,
never a silent pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    EmptyProjectionLattice,
    ExponentOutOfRange,
    HypothesesViolated,
    NoCrossing,
    NoRoot,
    UnknownChecker,
)
from .lattice import (
    column_lengths,
    column_moment,
    column_ranges,
    count_lattice,
    fattening,
    lattice_points,
    mu_measure,
)
from .linalg import dot, frac
from .lp import lp_solve  # noqa: F401  (unused here; perfbench/tracer.py's REQUIRED_BINDINGS needs it)
from .moments import (
    RayMomentEngine,
    projection_power_moment,
    radial_batch,
    ray_moment,
    section_power_integral,
    slab_moment,
)
from .polytope import (
    Direction,
    MeasureValue,
    Polytope,
    axis_direction,
    intersect,
    max_section_anchor,
    polar_projection_body,
    project_drop_last,
    projection_support,
    transform,
    translate,
    vertical_section,
)
from .steiner import steiner_symmetrize

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# comparison-profile machinery
# ---------------------------------------------------------------------------

def _power_sum(m: Fraction, p: int, n: int) -> tuple[int, int, int]:
    """(S, a, b) with m = a/b in lowest terms and
    S = sum_{k=0}^{floor(m)} (a - k b)^{n-1} k^{p-1} over Python ints
    (``0 ** 0 == 1`` is the 0^0 = 1 convention at k = 0, p = 1)."""
    a, b = m.numerator, m.denominator
    S = 0
    for k in range(a // b + 1):
        S += (a - k * b) ** (n - 1) * k ** (p - 1)
    return S, a, b


def _B_exact(m: Fraction, p: int, n: int) -> Fraction:
    """sum_{k=0}^{floor(m)} (p/m)(1-k/m)^{n-1}(k/m)^{p-1} = p b^p S / a^{n+p-1}."""
    S, a, b = _power_sum(m, p, n)
    return Fraction(p * b**p * S, a ** (n + p - 1))


def B_coeff(m, p, n: int) -> float:
    """Discrete analogue of the inverse binomial weight in reverse Hoelder means,
    for an integer p >= 1 (``_B_exact`` rounded once)."""
    if m <= 0 or p < 1:
        raise ValueError("need m > 0 and p >= 1")
    if p != int(p):
        raise ValueError("B_m(p) needs an integer p")
    return float(_B_exact(frac(m), int(p), n))


def _h_exact(x: Fraction, p: int, n: int) -> Fraction:
    """sum_{k=0}^{floor(x)} p (1-k/x)^{n-1} k^{p-1} = p S / a^{n-1}."""
    S, a, _ = _power_sum(x, p, n)
    return Fraction(p * S, a ** (n - 1))


@dataclass(frozen=True)
class SectionProfiles:
    """Lattice counts of symmetral slices (plain f and open-fattened f~) and columns."""

    f: dict[int, int]
    f_tilde: dict[int, int]
    M: int
    column_counts: dict[tuple[int, ...], int]

    @property
    def G_proj(self) -> int:
        """G_{n-1}(P K): S is symmetric in x_n, so it meets each column of P K at 0."""
        return len(self.column_counts)

    def f_at(self, k: int) -> int:
        return self.f.get(k, 0)

    def f_tilde_at(self, k: int) -> int:
        return self.f_tilde.get(k, 0)


@dataclass(frozen=True)
class HypothesesH:
    max_at_zero_column: bool
    M: int

    @property
    def satisfied(self) -> bool:
        return self.max_at_zero_column and self.M >= 1


def _height_counts(ranges) -> dict[int, int]:
    """Number of lattice points at each height x_n = k >= 0 of columns (y, lo, hi)."""
    return dict(Counter(k for _y, lo, hi in ranges for k in range(max(lo, 0), hi + 1)))


def section_profiles(P: Polytope, symmetral: Polytope | None = None) -> SectionProfiles:
    """f(k)/f~(k): lattice counts of the symmetral slice at height k, plain and
    fattened by the open unit cube of the slice's ambient space.

    The slice of S + (-1,1)^{n-1} x {0} at an integer height is the slice of S
    plus the open cube, so both profiles are height counts of column ranges.
    """
    n = P.dim
    S = symmetral if symmetral is not None else steiner_symmetrize(P)
    # S is symmetric in x_n, so (0, 0) is in S exactly when 0 is in P(K)
    if not S.contains(tuple(_ZERO for _ in range(n))):
        raise EmptyProjectionLattice("profiles need 0 in the projection")
    cols = list(column_ranges(S))
    f = _height_counts(cols)
    ft = _height_counts(column_ranges(S, n - 1))
    return SectionProfiles(f, ft, max(f, default=0), {y: hi - lo + 1 for y, lo, hi in cols})


def hypotheses_h(P: Polytope, profiles: SectionProfiles | None = None) -> HypothesesH:
    pr = profiles if profiles is not None else section_profiles(P)
    counts = pr.column_counts
    at_zero = counts.get(tuple(0 for _ in range(P.dim - 1)), 0)
    best = max(counts.values(), default=0)
    return HypothesesH(max_at_zero_column=(best == at_zero and at_zero > 0), M=pr.M)


def diamond_extension(S: Polytope, x) -> MeasureValue:
    """Largest half section length of S over the closed unit window around x.

    S must be symmetric in x_n.  The section of S + [-1,1]^{n-1} x {0} over x
    is then [-m, m] with m the largest half section length of S over the
    window; the supremum over the open window equals this closed maximum by
    continuity.  Returns 0 when the window misses the projection.
    """
    _require_x_n_symmetric(S)
    seg = vertical_section(fattening(S, S.dim - 1), x)
    return MeasureValue.from_exact(_ZERO if seg is None else seg.hi)


def _require_x_n_symmetric(S: Polytope) -> None:
    verts = set(S.vertices)
    if any(v[:-1] + (-v[-1],) not in verts for v in verts):
        raise ValueError("diamond extension needs a body symmetric in x_n")


def _profile_sum(profile: dict[int, int], p: int) -> Fraction:
    """sum_k p k^{p-1} f(k) with the 0^0 = 1 convention at k = 0, p = 1.

    An integer sum (Python's ``0 ** 0 == 1`` is the convention); one Fraction
    is built for the result.
    """
    return Fraction(p * sum(k ** (p - 1) * v for k, v in profile.items() if k or p == 1))


def _solve_m0(P: Polytope, p: int, profiles: SectionProfiles | None = None):
    """Rational bracket (lo, hi) of the root of h_p(m) * G_{n-1}(proj) = sum_k p k^{p-1} f~(k).

    Bisection on the nondecreasing h_p; plateaus resolve to the leftmost
    point; the bracket doubles until it contains the target.  lo == hi when
    a rational probe near the bisection's end is the root exactly.
    """
    n = P.dim
    pr = profiles if profiles is not None else section_profiles(P)
    hyp = hypotheses_h(P, pr)
    if not hyp.satisfied:
        raise HypothesesViolated("comparison profile needs max column at 0 and M >= 1")
    G = pr.G_proj
    target = _profile_sum(pr.f_tilde, p) / G
    lo = _ONE
    hi = Fraction(max(pr.M, 2))
    for _ in range(64):
        if _h_exact(hi, p, n) >= target:
            break
        hi *= 2
    else:
        raise NoRoot("no bracket for the profile scale equation")
    if _h_exact(lo, p, n) > target:
        raise NoRoot("target below the left end of the bracket")
    for _ in range(60):  # 2^-60 < 1e-12 absolute on the final bracket
        mid = (lo + hi) / 2
        if _h_exact(mid, p, n) >= target:
            hi = mid
        else:
            lo = mid
    cand = Fraction(float(hi)).limit_denominator(10**9)
    if _h_exact(cand, p, n) == target:
        lo2 = cand - Fraction(1, 10**13)
        if lo2 <= 1 or _h_exact(lo2, p, n) < target:
            lo = hi = cand
    if hi < pr.M:
        raise NoRoot("profile scale landed below the top lattice height")
    return lo, hi


def _over_h(num: Fraction, m0: tuple[Fraction, Fraction], p: int, n: int):
    """Bounds of num / h_p(m0), num >= 0: num / h_p at the bracket's right and
    left ends (h_p is nondecreasing), ``math.inf`` where h_p(lo) = 0."""
    lo, hi = m0
    h_hi = _h_exact(hi, p, n)
    h_lo = h_hi if lo == hi else _h_exact(lo, p, n)
    return num / h_hi, (num / h_lo if h_lo else math.inf)


def _g_profile(k: int, m0: Fraction, G: int, n: int) -> Fraction:
    """(1 - k/m0)^{n-1} G on [0, m0], else 0; nondecreasing in m0.

    For m0 = a/b that is (a - k b)^{n-1} G / a^{n-1}, one Fraction.
    """
    a, b = m0.numerator, m0.denominator
    if k * b > a:
        return _ZERO
    return Fraction((a - k * b) ** (n - 1) * G, a ** (n - 1))


def crossing_point(P: Polytope, p, profiles: SectionProfiles | None = None) -> int:
    """Minimal integer threshold separating f~ >= g (below) from g >= f (above),
    tested at m0's bracket ends: g is nondecreasing in m0."""
    pr = profiles if profiles is not None else section_profiles(P)
    hyp = hypotheses_h(P, pr)
    if not hyp.satisfied:
        raise HypothesesViolated("crossing point needs the profile hypotheses")
    return _crossing_in_bracket(pr, _solve_m0(P, p, pr), P.dim)


def _crossing_in_bracket(pr: SectionProfiles, m0: tuple[Fraction, Fraction], n: int) -> int:
    """``crossing_point`` for the profiles of a body that meets the hypotheses,
    given m0's bracket."""
    lo, hi = m0
    G = pr.G_proj
    top = math.ceil(hi) + 1
    upper = max(top, pr.M) + 1
    for kstar in range(0, top + 1):
        ok = True
        for k in range(0, kstar):
            if not pr.f_tilde_at(k) >= _g_profile(k, hi, G, n):
                ok = False
                break
        if ok:
            for k in range(kstar, upper + 1):
                if not _g_profile(k, lo, G, n) >= pr.f_at(k):
                    ok = False
                    break
        if ok:
            return kstar
    raise NoCrossing("no integer crossing point in range")


# ---------------------------------------------------------------------------
# reports and workspace
# ---------------------------------------------------------------------------

@dataclass
class InequalityReport:
    id: str
    lhs: MeasureValue
    rhs: MeasureValue
    slack: float
    verdict: str
    context: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _verdict(lhs: MeasureValue, rhs: MeasureValue) -> tuple[float, str, str]:
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


def _report(cid: str, lhs: MeasureValue, rhs: MeasureValue, **context) -> InequalityReport:
    slack, verdict, decided_by = _verdict(lhs, rhs)
    return InequalityReport(cid, lhs, rhs, slack, verdict, {**context, "decided_by": decided_by})


def _inconclusive(cid: str, reason: str, **context) -> InequalityReport:
    zero = MeasureValue.approx(0.0, 0.0)
    return InequalityReport(cid, zero, zero, 0.0, "inconclusive", {"reason": reason, **context})


def _fib_sphere(count: int) -> np.ndarray:
    i = np.arange(count) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


class BodyWorkspace:
    """Per-body cache shared by the checkers (anchor, symmetral, profiles...)."""

    def __init__(self, body: Polytope, seed: int = 20240, dir_samples: dict | None = None):
        self.body = body
        self.seed = seed
        ds = dir_samples or {}
        self.n_dirs_2d = ds.get(2, 360)
        self.n_dirs_3d = ds.get(3, 1000)
        self._sample_radials: dict[tuple, np.ndarray] = {}
        self._scaled_workspaces: dict[int, BodyWorkspace] = {}

    @cached_property
    def n(self) -> int:
        return self.body.dim

    @cached_property
    def vol(self) -> Fraction:
        return self.body.volume_fraction()

    @cached_property
    def proj(self) -> Polytope:
        return project_drop_last(self.body)

    @cached_property
    def volp(self) -> Fraction:
        return self.proj.volume_fraction()

    @cached_property
    def anchor(self):
        return max_section_anchor(self.body)

    @cached_property
    def anchored(self) -> Polytope:
        """The body moved by (-anchor, 0).  The body's projection is built first
        and ``translated`` carries it across, so one hull serves ``proj`` and
        ``aproj``."""
        t = tuple(-c for c in self.anchor) + (_ZERO,)
        if self.n > 1:
            project_drop_last(self.body)
        return self.body.translated(t)

    @cached_property
    def aproj(self) -> Polytope:
        return project_drop_last(self.anchored)

    @cached_property
    def asym(self) -> Polytope:
        return steiner_symmetrize(self.anchored)

    def scaled(self, lam: int) -> "BodyWorkspace":
        """The workspace of lam * ``anchored`` for an integer lam > 0, with no
        hull and no LP, built once per lam.

        x -> lam x commutes with the projection and the Steiner symmetrization
        and maps the lex-min anchor of a longest section to lam times it, which
        is 0 for the anchored body.  So ``anchor`` is 0, ``anchored`` is the
        scaled body, and ``aproj`` and ``asym`` are lam times this workspace's
        (``asym`` carrying ``aproj`` as its projection).
        """
        if lam not in self._scaled_workspaces:
            body = _scaled(self.anchored, lam)  # carries lam * aproj
            sym = _scaled(self.asym, lam)
            sym._projection = body._projection
            ws = BodyWorkspace(body, self.seed, {2: self.n_dirs_2d, 3: self.n_dirs_3d})
            ws.__dict__.update(anchor=tuple(_ZERO for _ in range(self.n - 1)), anchored=body,
                               aproj=body._projection, asym=sym)
            self._scaled_workspaces[lam] = ws
        return self._scaled_workspaces[lam]

    @cached_property
    def profiles(self) -> SectionProfiles:
        return section_profiles(self.anchored, self.asym)

    @cached_property
    def hypotheses(self) -> HypothesesH:
        return hypotheses_h(self.anchored, self.profiles)

    @cached_property
    def G_aproj(self) -> int:
        return self.profiles.G_proj

    @cached_property
    def origin_inside(self) -> bool:
        return self.body.contains(tuple(_ZERO for _ in range(self.n)))

    @cached_property
    def sample_dirs(self) -> np.ndarray:
        extra = []
        for v in self.body.vertices:
            fv = np.array([float(c) for c in v])
            nn = np.linalg.norm(fv)
            if nn > 1e-12:
                extra.append(fv / nn)
                extra.append(-fv / nn)
        for y in lattice_points(self.body):
            for v in self.body.vertices:
                d = np.array([float(c) for c in y]) - np.array([float(c) for c in v])
                nn = np.linalg.norm(d)
                if nn > 1e-12:
                    extra.append(d / nn)
        if self.n == 2:
            ang = 2.0 * math.pi * np.arange(self.n_dirs_2d) / self.n_dirs_2d
            base = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        else:
            base = _fib_sphere(self.n_dirs_3d)
        if extra:
            base = np.concatenate([base, np.array(extra)], axis=0)
        return base

    def sample_radial(self, source: str, p) -> np.ndarray:
        """``radial_batch(source, body, sample_dirs, p)``, computed once per (source, p).

        The Ball-body checkers read their radials on the same ``sample_dirs``,
        so each (source, p) costs one ray-clip pass per body (the
        open-fattened source, shared by ``ball_inclusion_discrete`` and
        ``difference_set_inclusion``, is the costliest).  Only these
        D-length arrays are kept, read-only, never the m x D clip tables.
        """
        key = (source, p)
        if key not in self._sample_radials:
            rho = radial_batch(source, self.body, self.sample_dirs, p)
            rho.flags.writeable = False
            self._sample_radials[key] = rho
        return self._sample_radials[key]

    @cached_property
    def sym(self) -> Polytope:
        # symmetral of the original body (translation of the anchored one)
        return translate(self.asym, self.anchor + (_ZERO,))

    def slab(self, p) -> MeasureValue:
        return slab_moment(self.body, p, dist=self.section_dist)

    @cached_property
    def section_dist(self):
        from .moments import section_distribution

        return section_distribution(self.body, symmetral=self.sym)

    def section_power(self, q) -> MeasureValue:
        return section_power_integral(self.body, q, dist=self.section_dist)

    def projection_power(self, p) -> MeasureValue:
        return projection_power_moment(self.body, p, dist=self.section_dist)

    @cached_property
    def diamond_values(self) -> dict:
        """``diamond_extension`` over each integer point y of P(K) + (-1,1)^{n-1}
        (the columns of the open-fattened symmetral, which holds each (y, 0)),
        with one symmetry check: half the symmetric fattening F's column length."""
        _require_x_n_symmetric(self.asym)
        lengths = column_lengths(fattening(self.asym, self.n - 1))
        return {y: lengths[y] / 2 for y, _lo, _hi in column_ranges(self.asym, self.n - 1)}

    @cached_property
    def column_lengths(self) -> dict[tuple, Fraction]:
        return column_lengths(self.body)

    @cached_property
    def acolumn_lengths(self) -> dict[tuple, Fraction]:
        return column_lengths(self.anchored)


def _mu_moment_exact(cols: dict, p: int) -> Fraction:
    return sum(((ell ** (p + 1)) for ell in cols.values()), _ZERO) / (p + 1)


def _mu_fattened(ws: BodyWorkspace) -> Fraction:
    """Column measure of the symmetral fattened by the open base cube:
    sum over integer columns of 2 * (diamond-extended half section length)."""
    return 2 * sum(ws.diamond_values.values(), _ZERO)


def _G_sym_fattened(ws: BodyWorkspace) -> int:
    """G_n(S + C_{n-1}) from the height counts f~, which are even in k."""
    ft = ws.profiles.f_tilde
    return ft.get(0, 0) + 2 * sum(v for k, v in ft.items() if k)


def _discrete_zhang_mu_sides(ws: BodyWorkspace) -> tuple[Fraction, Fraction, Fraction]:
    """(lhs, rhs, mu(SK + C)) of the discrete Zhang inequality for the column measure."""
    n = ws.n
    const = Fraction(math.comb(2 * n, n), n**n)
    lhs = const * _mu_moment_exact(ws.acolumn_lengths, n)
    mu_fat = _mu_fattened(ws)
    return lhs, mu_fat ** (n + 1) / Fraction(ws.G_aproj) ** n, mu_fat


def _purely_discrete_zhang_sides(ws: BodyWorkspace):
    """(lhs, rhs, m0) of the purely discrete Zhang inequality, m0 a bracket.

    (n+1) B_m(1)^{n+1} / B_m(n+1) = (n+1) h_1(m)^{n+1} / h_{n+1}(m), and
    h_1(m0) = sum_k f~(k) / G defines m0, so the left side is
    top / h_{n+1}(m0), enclosed from m0's bracket (exact when m0 is rational).
    m0 is None when M = 0, where the left side is 0.
    """
    n = ws.n
    pr = ws.profiles
    G = ws.G_aproj
    rhs = Fraction(_G_sym_fattened(ws) + pr.f_tilde_at(0)) ** (n + 1) / Fraction(G) ** n
    if pr.M == 0:
        return MeasureValue.from_exact(0), rhs, None
    m0 = _solve_m0(ws.anchored, 1, pr)
    sum_abs = sum((Fraction(k) ** n * v for k, v in pr.f.items() if k), _ZERO) * 2
    top = (n + 1) * (_profile_sum(pr.f_tilde, 1) / G) ** (n + 1) * 2**n * sum_abs
    return MeasureValue.enclosed(*_over_h(top, m0, n + 1, n)), rhs, m0


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _exponents(values, least: int = 1, increasing: bool = False) -> list[int]:
    """``values`` as ints, each >= ``least`` and, where the statement orders
    them, above the one before; else ``ExponentOutOfRange`` naming the bad
    value, which ``verify`` reports as ``inconclusive``."""
    out: list[int] = []
    for v in values:
        whole = isinstance(v, (int, Fraction)) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not whole or v != int(v) or v < least:
            raise ExponentOutOfRange(f"exponent {v!r} is not an integer >= {least}")
        if increasing and out and v <= out[-1]:
            raise ExponentOutOfRange(f"exponent {v!r} does not exceed {out[-1]}")
        out.append(int(v))
    return out


def _worst_pair_report(cid: str, pairs, **context) -> InequalityReport:
    """Report the worst pair (p, q, lhs_pow, rhs_pow, lhs_root, rhs_root) of a
    chain: a failing one first, then the largest gap of the rounded roots."""
    details, worst = [], None
    for p, q, lhs_pow, rhs_pow, lv, rv in pairs:
        ok = lhs_pow <= rhs_pow
        details.append({"p": p, "q": q, "lhs": lv, "rhs": rv, "holds": ok})
        key = (not ok, lv - rv)
        if worst is None or key > worst[0]:
            worst = (key, lhs_pow, rhs_pow, [p, q])
    _key, lhs_pow, rhs_pow, pair = worst
    return _report(cid, MeasureValue.from_exact(lhs_pow), MeasureValue.from_exact(rhs_pow),
                   pairs=details, worst_pair=pair, **context)


def _chk_zhang_preintegration(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    const = Fraction(math.comb(2 * n, n), n**n)
    lhs = MeasureValue.from_exact(const * ws.projection_power(n).exact)
    rhs = MeasureValue.from_exact(ws.vol ** (n + 1) / ws.volp**n)
    return _report("zhang_preintegration", lhs, rhs, route="projection-power")


def _chk_zhang_preintegration_2(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    const = Fraction(math.comb(2 * n, n), n**n)
    mom = ws.slab(n)
    lhs = MeasureValue.from_exact(const * mom.exact)
    rhs = MeasureValue.from_exact(ws.vol ** (n + 1) / ws.volp**n)
    return _report("zhang_preintegration_2", lhs, rhs, route="symmetral-slab")


def _chk_zhang_directional(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    theta = params.get("theta")
    if theta is not None and not isinstance(theta, Direction):
        theta = Direction(tuple(frac(c) for c in theta))
    if theta is None or theta.dim != n:
        # checker params apply across a mixed-dimension corpus; a direction of
        # the wrong length falls back to the all-ones default for this body
        theta = Direction(tuple(Fraction(1) for _ in range(n)))
    # both sides divided by |theta.raw|^n: the moment in raw units on the
    # left, h_PiK(theta.raw) = |theta.raw| vol(P_theta K) on the right
    const = Fraction(math.comb(2 * n, n), n**n)
    lhs = MeasureValue.from_exact(const * ray_moment(ws.body, theta, n).exact)
    rhs = MeasureValue.from_exact(ws.vol ** (n + 1) / projection_support(ws.body, theta.raw) ** n)
    return _report(
        "zhang_directional", lhs, rhs, theta=[str(c) for c in theta.raw], route="projection-power"
    )


def _chk_discrete_zhang_mu(ws: BodyWorkspace, params: dict) -> InequalityReport:
    lhs, rhs, mu_fat = _discrete_zhang_mu_sides(ws)
    return _report(
        "discrete_zhang_mu",
        MeasureValue.from_exact(lhs),
        MeasureValue.from_exact(rhs),
        anchor=[str(c) for c in ws.anchor],
        mu_fattened=str(mu_fat),
    )


def _chk_lattice_zhang(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    const = Fraction(math.comb(2 * n, n), n**n)
    lhs = MeasureValue.from_exact(const * column_moment(ws.anchored, n))
    # the longest vertical section of the body, twice the symmetral's top height
    R = 2 * max(v[-1] for v in ws.asym.vertices)
    G = ws.G_aproj
    pr = ws.profiles
    gsym = _G_sym_fattened(ws)
    gproj_fat = pr.f_tilde_at(0)
    rhs_val = const * R**n * G + Fraction(gsym + gproj_fat) ** (n + 1) / Fraction(G) ** n
    rhs = MeasureValue.from_exact(rhs_val)
    return _report(
        "lattice_zhang",
        lhs,
        rhs,
        anchor=[str(c) for c in ws.anchor],
        reach=str(R),
        G_sym_fattened=gsym,
    )


def _chk_purely_discrete_zhang(ws: BodyWorkspace, params: dict) -> InequalityReport:
    lhs, rhs, m0 = _purely_discrete_zhang_sides(ws)
    pr = ws.profiles
    return _report(
        "purely_discrete_zhang",
        lhs,
        MeasureValue.from_exact(rhs),
        trivial=pr.M == 0,
        m0=None if m0 is None else MeasureValue.enclosed(*m0).value,
        M=pr.M,
        anchor=[str(c) for c in ws.anchor],
    )


def _berwald_grid(values) -> list:
    """``values`` if each is a rational > -1 and != 0 and each exceeds the one
    before; else ``ExponentOutOfRange`` naming the bad value."""
    out: list = []
    for v in values:
        rational = isinstance(v, (int, Fraction)) or isinstance(v, float) and math.isfinite(v)
        if isinstance(v, bool) or not rational or v <= -1 or v == 0:
            raise ExponentOutOfRange(f"exponent {v!r} is not a rational > -1 and != 0")
        if out and v <= out[-1]:
            raise ExponentOutOfRange(f"exponent {v!r} does not exceed {out[-1]}")
        out.append(v)
    return out


def _chk_berwald_continuous(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    grid = _berwald_grid(params.get("grid") or sorted({Fraction(-1, 2), 1, 2, n, n + 1}))
    vals = []
    for p in grid:
        E = ws.section_power(p)
        pf = float(p)
        c = math.gamma(n + pf) / (math.gamma(n) * math.gamma(1.0 + pf))
        base = c * E.value / float(ws.volp)
        val = base ** (1.0 / pf)
        err = abs(val) * (E.abs_error / E.value if E.value else 0.0) / abs(pf)
        vals.append((pf, val, err))
    worst = None
    for (p1, v1, e1), (p2, v2, e2) in zip(vals, vals[1:]):
        slack = v1 - v2
        tol = e1 + e2 + 1e-9 * abs(v1)
        key = slack + tol
        if worst is None or key < worst[0]:
            worst = (key, p1, p2, v1, v2, e1, e2)
    _key, p1, p2, v1, v2, e1, e2 = worst
    lhs = MeasureValue.approx(v2, e2 + 1e-9 * abs(v2))
    rhs = MeasureValue.approx(v1, e1)
    return _report(
        "berwald_continuous",
        lhs,
        rhs,
        grid=[str(g) for g in grid],
        chain=[v for _p, v, _e in vals],
        worst_pair=[p1, p2],
    )


def _chk_berwald_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    nn = n - 1
    pairs = [_exponents(pair, increasing=True)
             for pair in params.get("pairs") or [(1, 2), (1, n + 1), (2, 5)]]
    G = ws.G_aproj
    halves = {y: ell / 2 for y, ell in ws.acolumn_lengths.items()}
    diam = ws.diamond_values
    rows = []
    for p, q in pairs:
        # X_q^(1/q) <= X_p^(1/p), compared as X_q^p <= X_p^q
        xq = Fraction(math.comb(nn + q, nn)) * sum((v**q for v in halves.values()), _ZERO) / G
        xp = Fraction(math.comb(nn + p, nn)) * sum((v**p for v in diam.values()), _ZERO) / G
        rows.append((p, q, xq**p, xp**q, float(xq) ** (1.0 / q), float(xp) ** (1.0 / p)))
    return _worst_pair_report("berwald_discrete", rows, anchor=[str(c) for c in ws.anchor])


def _chk_completely_discrete_berwald(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    pr = ws.profiles
    (p,) = _exponents([params.get("p", 1)])
    qs = _exponents([p, *(params.get("qs") or sorted({p + 1, max(p, n) + 1}))],
                    increasing=True)[1:]
    G = ws.G_aproj
    lo, hi = m0 = _solve_m0(ws.anchored, p, pr)
    # the p-th right side is m0 (h_p(m0) G = sum p k^(p-1) f~(k) defines m0);
    # with r_q = sum q k^(q-1) f(k) / (G h_q(m0)) the q-th left side is
    # m0 r_q^(1/q), so every q holds exactly when m0 max_q r_q <= m0
    rhs = MeasureValue.enclosed(lo, hi)
    lows, highs, per_q = [], [], []
    for q in qs:
        r_lo, r_hi = _over_h(_profile_sum(pr.f, q) / G, m0, q, n)
        lows.append(lo * r_lo)
        highs.append(hi * r_hi)
        mid = (lo + hi) / 2  # the q-th left side at the midpoints of m0 and r_q
        per_q.append({"q": q, "lhs": float(mid**q * (r_lo + r_hi) / 2) ** (1 / q)})
    return _report(
        "completely_discrete_berwald",
        MeasureValue.enclosed(max(lows), max(highs)),
        rhs,
        p=p,
        m0=rhs.value,
        m0_exact=str(lo) if lo == hi else None,
        crossing_point=_crossing_in_bracket(pr, m0, n),
        per_q=per_q,
        anchor=[str(c) for c in ws.anchor],
    )


def _chk_zhang_volume(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    polar = polar_projection_body(ws.body).volume_fraction()
    lhs = MeasureValue.from_exact(Fraction(math.comb(2 * n, n), n**n))
    rhs = MeasureValue.from_exact(ws.vol ** (n - 1) * polar)
    return _report("zhang_volume", lhs, rhs, polar_volume=str(polar))


def _chk_different_inclusion(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    grid = _exponents(params.get("grid") or sorted({0, 1, 2, 3, n}), least=0, increasing=True)
    xs = []
    for p in grid:
        if p == 0:
            xs.append((0, Fraction(n) * ws.vol / ws.volp))
        else:
            xs.append((p, Fraction(n) * math.comb(n + p, n) * ws.slab(p).exact / ws.volp))
    # psi_q = X_q^(1/(q+1)) <= psi_p = X_p^(1/(p+1)), compared as X_q^(p+1) <= X_p^(q+1)
    rows = [(p, q, xq ** (p + 1), xp ** (q + 1),
             float(xq) ** (1.0 / (q + 1)), float(xp) ** (1.0 / (p + 1)))
            for (p, xp), (q, xq) in zip(xs, xs[1:])]
    return _worst_pair_report("different_inclusion", rows, grid=grid)


def _chk_mu_gn_sandwich(ws: BodyWorkspace, params: dict) -> InequalityReport:
    mu = mu_measure(ws.body).exact
    gn = count_lattice(ws.body)
    gp = count_lattice(ws.proj)
    lhs = MeasureValue.from_exact(abs(mu - gn))
    rhs = MeasureValue.from_exact(gp)
    return _report("mu_gn_sandwich", lhs, rhs, mu=str(mu), G_n=gn, G_proj=gp)


def _chk_identity_triple_continuous(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    ps = _exponents(params.get("ps") or sorted({1, 2, n}))
    per_p = []
    engine = RayMomentEngine(ws.body, axis_direction(n))
    for p in ps:
        # three rationals: they agree exactly or the identity fails
        vals = [engine.moment(p).exact, ws.slab(p).exact, ws.projection_power(p).exact]
        per_p.append({"p": p, "values": vals, "spread": max(vals) - min(vals), "tol": _ZERO})
    worst = max(row["spread"] for row in per_p)
    return _report("identity_triple_continuous", MeasureValue.from_exact(worst),
                   MeasureValue.from_exact(_ZERO), per_p=per_p)


def _chk_identity_triple_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    ps = _exponents(params.get("ps") or sorted({1, 2, n}))
    cols = ws.column_lengths
    # route B: exact piecewise-linear integration of the column measure of
    # K cap (r e_n + K); route C: column sums over the symmetral
    ells = sorted({ell for ell in cols.values() if ell > 0})
    pieces = []
    prev = _ZERO
    for brk in ells:
        w = brk - prev
        nodes = (prev + w / 3, prev + 2 * w / 3)
        vals = []
        for r in nodes:
            Q = intersect(ws.body, translate(ws.body, tuple(Fraction(0) for _ in range(n - 1)) + (r,)))
            vals.append(_ZERO if Q is None else mu_measure(Q).exact)
        slope = (vals[1] - vals[0]) / (nodes[1] - nodes[0])
        const = vals[0] - slope * nodes[0]
        pieces.append((prev, brk, const, slope))
        prev = brk
    # the symmetral is centred, so each half length is its upper endpoint
    sym_halves = [ell / 2 for ell in column_lengths(ws.sym).values()]
    per_p = []
    worst = _ZERO
    for p in ps:
        a_val = _mu_moment_exact(cols, p)
        b_val = _ZERO
        for alpha, beta, c0, c1 in pieces:
            b_val += c0 * (beta**p - alpha**p)
            b_val += c1 * Fraction(p, p + 1) * (beta ** (p + 1) - alpha ** (p + 1))
        c_val = Fraction(2) ** (p + 1) * sum(
            (h ** (p + 1) for h in sym_halves), _ZERO
        ) / (p + 1)
        vals = (a_val, b_val, c_val)
        worst = max(worst, max(vals) - min(vals))
        per_p.append({"p": p, "values": [str(v) for v in vals], "equal": a_val == b_val == c_val})
    # three rationals: they agree exactly or the identity fails
    return _report("identity_triple_discrete", MeasureValue.from_exact(worst),
                   MeasureValue.from_exact(_ZERO), per_p=per_p)


def _chk_ball_inclusion_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    p, q = _exponents([params.get("p", 1), params.get("q", 2)], increasing=True)
    dirs = ws.sample_dirs
    lhs_arr = math.comb(n + q, n) ** (1.0 / q) * ws.sample_radial("discrete", q)
    rhs_arr = math.comb(n + p, n) ** (1.0 / p) * ws.sample_radial("discrete-open-tilde", p)
    slack = rhs_arr - lhs_arr
    i = int(np.argmin(slack))
    err = 1e-9 * (abs(lhs_arr[i]) + abs(rhs_arr[i])) + 1e-12
    lhs = MeasureValue.approx(float(lhs_arr[i]), err)
    rhs = MeasureValue.approx(float(rhs_arr[i]), err)
    return _report(
        "ball_inclusion_discrete", lhs, rhs, p=p, q=q, directions=len(dirs),
        worst_direction=[float(c) for c in dirs[i]],
    )


def _chk_convexhull_inclusion(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    (p,) = _exponents([params.get("p", 1)])
    combos = int(params.get("combos", 200))
    dirs = ws.sample_dirs
    rho = ws.sample_radial("discrete", p)
    pts = rho[:, None] * dirs
    rng = np.random.default_rng(ws.seed ^ 0x5EED)
    idx_a = np.arange(len(pts))
    idx_b = np.roll(idx_a, -1)
    lam_mid = np.full(len(pts), 0.5)
    ra = rng.integers(0, len(pts), size=combos)
    rb = rng.integers(0, len(pts), size=combos)
    rl = rng.uniform(0.0, 1.0, size=combos)
    ia = np.concatenate([idx_a, ra])
    ib = np.concatenate([idx_b, rb])
    ll = np.concatenate([lam_mid, rl])
    z = ll[:, None] * pts[ia] + (1.0 - ll[:, None]) * pts[ib]
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-9
    z = z[keep]
    norms = norms[keep]
    zdirs = z / norms[:, None]
    rho_t = radial_batch("discrete-open-tilde", ws.body, zdirs, p)
    slack = rho_t - norms
    i = int(np.argmin(slack))
    err = 1e-9 * (abs(norms[i]) + abs(rho_t[i])) + 1e-12
    lhs = MeasureValue.approx(float(norms[i]), err)
    rhs = MeasureValue.approx(float(rho_t[i]), err)
    return _report(
        "convexhull_inclusion", lhs, rhs, p=p, combos=int(len(z)), directions=len(dirs)
    )


def _chk_difference_set_inclusion(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    (p,) = _exponents([params.get("p", 1)])
    dirs = ws.sample_dirs
    lhs_arr = ws.sample_radial("difference-set", None)
    rhs_arr = math.comb(n + p, n) ** (1.0 / p) * ws.sample_radial("discrete-open-tilde", p)
    slack = rhs_arr - lhs_arr
    i = int(np.argmin(slack))
    err = 1e-9 * (abs(lhs_arr[i]) + abs(rhs_arr[i])) + 1e-12
    lhs = MeasureValue.approx(float(lhs_arr[i]), err)
    rhs = MeasureValue.approx(float(rhs_arr[i]), err)
    return _report(
        "difference_set_inclusion", lhs, rhs, p=p, directions=len(dirs),
        worst_direction=[float(c) for c in dirs[i]],
    )


def _discrete_star_volume(P: Polytope) -> Fraction:
    """(1/n) int rho^n of the n-th Ball body of the lattice covariogram, exact.

    rho(u)^n = (1/G) sum_y b_y(u)^n over the G lattice points y of P, and
    from y the directions whose ray leaves P through facet F sweep the cone
    conv(y, F) of volume (b_F - <a_F, y>) w_F / n, w_F read off
    ``facet_weights``.  Summed over y that is one facet sum against sum_y y.
    """
    pts = lattice_points(P)
    G = len(pts)
    ysum = tuple(sum(c) for c in zip(*pts))
    return sum(((G * b - dot(a, ysum)) * w for a, b, w in P.facet_weights()),
               _ZERO) / (P.dim * G)


def _chk_volume_identity_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    # every y gives vol(K) by Minkowski's relation sum_F a_F w_F = 0, so the
    # row cross-checks the facet weights against the triangulated volume
    star = _discrete_star_volume(ws.body)
    return _report("volume_identity_discrete", MeasureValue.from_exact(abs(star - ws.vol)),
                   MeasureValue.from_exact(_ZERO), star_volume=str(star), volume=str(ws.vol))


def _chk_one_point_collapse(ws: BodyWorkspace, params: dict) -> InequalityReport:
    from .lattice import ray_interval

    n = ws.n
    (p,) = _exponents([params.get("p", 1)])
    neg = transform(ws.body, [[-Fraction(int(i == j)) for j in range(n)] for i in range(n)],
                    [0] * n)
    test_dirs = []
    for v in ws.body.vertices:
        if any(c != 0 for c in v):
            test_dirs.append(tuple(-c for c in v))
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        test_dirs.append(tuple(e))
        e2 = list(e)
        e2[i] = Fraction(-1)
        test_dirs.append(tuple(e2))
    worst = _ZERO
    details = []
    origin = tuple(Fraction(0) for _ in range(n))
    for raw in test_dirs:
        seg = ray_interval(ws.body, origin, raw)
        moment_root = _ZERO if seg is None else seg[1]  # (b^p)^(1/p) in raw units
        # independent route: the same clip against the negated polytope
        rho = ray_interval(neg, origin, tuple(-c for c in raw))[1]
        worst = max(worst, abs(moment_root - rho))
        details.append({"dir": [str(c) for c in raw], "ball": str(moment_root), "neg": str(rho)})
    return _report("one_point_collapse", MeasureValue.from_exact(worst),
                   MeasureValue.from_exact(_ZERO), p=p, directions=details)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _needs_origin(ws: BodyWorkspace):
    if not ws.origin_inside:
        return "the body does not contain 0"
    return None


def _needs_full_dim(ws: BodyWorkspace):
    if not ws.body.is_full_dimensional:
        return "the body is not full-dimensional"
    return None


def _always(ws: BodyWorkspace):
    return _needs_full_dim(ws)


def _origin_checker(ws: BodyWorkspace):
    return _needs_full_dim(ws) or _needs_origin(ws)


def _needs_hypotheses(ws: BodyWorkspace):
    r = _needs_full_dim(ws)
    if r:
        return r
    if not ws.hypotheses.satisfied:
        return "profile hypotheses (max column at 0, M >= 1) not satisfied"
    return None


def _ball_body_applicable(ws: BodyWorkspace):
    r = _origin_checker(ws)
    if r:
        return r
    if ws.n not in (2, 3):
        return "Ball-body sample directions are wired for n = 2, 3"
    return None


def _vol_identity_applicable(ws: BodyWorkspace):
    r = _origin_checker(ws)
    if r:
        return r
    if ws.n != 2:
        return ("discrete volume identity kept to n = 2: criterion 6 pairs it with a 2-d"
                " chord-radial quadrature, and perfbench/reference.json fixes its rows")
    return None


def _one_point_applicable(ws: BodyWorkspace):
    r = _needs_full_dim(ws)
    if r:
        return r
    if not (ws.origin_inside and count_lattice(ws.body) == 1):
        return "the lattice set of the body is not exactly {0}"
    return None


@dataclass(frozen=True)
class CheckerEntry:
    id: str
    run: object
    applicable: object
    statement: str


_REGISTRY: dict[str, CheckerEntry] = {}


def _register(cid, run, applicable, statement):
    _REGISTRY[cid] = CheckerEntry(cid, run, applicable, statement)


_register(
    "zhang_preintegration",
    _chk_zhang_preintegration,
    _always,
    "binom(2n,n)/n^n * n*int_0^inf r^(n-1) vol(K cap (r e_n + K)) dr"
    " <= vol(K)^(n+1) / vol(P K)^n",
)
_register(
    "zhang_preintegration_2",
    _chk_zhang_preintegration_2,
    _always,
    "binom(2n,n)/n^n * 2^n int_{S K} |x_n|^n dx <= vol(K)^(n+1) / vol(P K)^n",
)
_register(
    "zhang_directional",
    _chk_zhang_directional,
    _always,
    "binom(2n,n)/n^n * n*int r^(n-1) vol(K cap (r theta + K)) dr"
    " <= vol(K)^(n+1) / vol(P_theta K)^n, both sides divided by |theta.raw|^n",
)
_register(
    "discrete_zhang_mu",
    _chk_discrete_zhang_mu,
    _always,
    "binom(2n,n)/n^n * n*int r^(n-1) mu(K cap (r e_n + K)) dr"
    " <= mu(S K + open base cube)^(n+1) / G_(n-1)(P K)^n   (column measure mu)",
)
_register(
    "lattice_zhang",
    _chk_lattice_zhang,
    _always,
    "binom(2n,n)/n^n * n*int r^(n-1) G_n(K cap (r e_n + K)) dr <= binom(2n,n)/n^n *"
    " rho_(K-K)(e_n)^n G_(n-1)(P K) + (G_n(S K + base cube) + G_(n-1)(P K + base cube))^(n+1)"
    " / G_(n-1)(P K)^n",
)
_register(
    "purely_discrete_zhang",
    _chk_purely_discrete_zhang,
    _always,
    "(n+1) B_m0(n+1)^-1 / B_m0(1)^-(n+1) * 2^n sum_{x in S K cap Z^n} |x_n|^n"
    " <= (G_n(S K + base cube) + G_(n-1)(P K + base cube))^(n+1) / G_(n-1)(P K)^n",
)
_register(
    "berwald_continuous",
    _chk_berwald_continuous,
    _always,
    "p -> (binom(n-1+p,n-1)/vol(P K) * int ell^p)^(1/p) is nonincreasing"
    " for the concave section-length profile ell",
)
_register(
    "berwald_discrete",
    _chk_berwald_discrete,
    _always,
    "(binom(n-1+q,n-1)/G sum f^q)^(1/q) <= (binom(n-1+p,n-1)/G sum fattened-f^p)^(1/p),"
    " lattice sums of the half-section profile, 0 < p < q",
)
_register(
    "completely_discrete_berwald",
    _chk_completely_discrete_berwald,
    _needs_hypotheses,
    "(B_m0(q)^-1/G sum q k^(q-1) f(k))^(1/q) <= (B_m0(p)^-1/G sum p k^(p-1) f~(k))^(1/p)"
    " for p < q, with f/f~ the slice lattice profiles of the symmetral",
)
_register(
    "zhang_volume",
    _chk_zhang_volume,
    _always,
    "binom(2n,n)/n^n <= vol(K)^(n-1) * vol(polar projection body of K)",
)
_register(
    "different_inclusion",
    _chk_different_inclusion,
    _always,
    "p -> (n binom(n+p,n) M_p / vol(P K))^(1/(p+1)) is nonincreasing on p >= 0,"
    " M_p the p-th ray moment of the covariogram",
)
_register(
    "mu_gn_sandwich",
    _chk_mu_gn_sandwich,
    _always,
    "|mu(K) - G_n(K)| <= G_(n-1)(P K)",
)
_register(
    "identity_triple_continuous",
    _chk_identity_triple_continuous,
    _always,
    "agreement of the projection-power, ray-moment and symmetral-slab forms of"
    " the continuous moment (p in {1,2,n})",
)
_register(
    "identity_triple_discrete",
    _chk_identity_triple_discrete,
    _always,
    "exact agreement of the three column-measure moment forms (p in {1,2,n})",
)
_register(
    "ball_inclusion_discrete",
    _chk_ball_inclusion_discrete,
    _ball_body_applicable,
    "binom(n+q,n)^(1/q) rho_q(lattice covariogram body) <="
    " binom(n+p,n)^(1/p) (G(K+open cube)/G(K))^(1/p) rho_p(open-fattened body), p < q",
)
_register(
    "convexhull_inclusion",
    _chk_convexhull_inclusion,
    _ball_body_applicable,
    "convex combinations of boundary points of the lattice-covariogram Ball body"
    " lie in the scaled open-fattened Ball body",
)
_register(
    "difference_set_inclusion",
    _chk_difference_set_inclusion,
    _ball_body_applicable,
    "rho((K cap Z^n) - K) <= binom(n+p,n)^(1/p) (G(K+cube)/G(K))^(1/p)"
    " rho_p(open-fattened Ball body)",
)
_register(
    "volume_identity_discrete",
    _chk_volume_identity_discrete,
    _vol_identity_applicable,
    "vol(n-th Ball body of the lattice covariogram) = vol(K)",
)
_register(
    "one_point_collapse",
    _chk_one_point_collapse,
    _one_point_applicable,
    "if K cap Z^n = {0} the Ball bodies of the lattice covariogram all equal -K",
)


def checker_ids() -> list[str]:
    return list(_REGISTRY)


def checker_statement(cid: str) -> str:
    return _REGISTRY[cid].statement


def applicability(cid: str, ws: BodyWorkspace) -> str | None:
    """None when the checker's preconditions hold; otherwise the reason."""
    if cid not in _REGISTRY:
        raise UnknownChecker(cid)
    return _REGISTRY[cid].applicable(ws)


def verify(cid: str, body: Polytope, params: dict | None = None,
           ws: BodyWorkspace | None = None) -> InequalityReport:
    """Run one checker; violated preconditions and exponents outside the
    statement's range yield an inconclusive report."""
    if cid not in _REGISTRY:
        raise UnknownChecker(cid)
    entry = _REGISTRY[cid]
    params = dict(params or {})
    if ws is None or ws.body is not body:
        ws = BodyWorkspace(body, seed=params.pop("seed", 20240),
                           dir_samples=params.pop("dir_samples", None))
    reason = entry.applicable(ws)
    if reason is None:
        try:
            rep = entry.run(ws, params)
        except ExponentOutOfRange as exc:
            reason = str(exc)
    if reason is not None:
        rep = _inconclusive(cid, reason)
    rep.context.setdefault("statement", entry.statement)
    return rep


# ---------------------------------------------------------------------------
# scaling-limit sweeps
# ---------------------------------------------------------------------------

def _scaled(P: Polytope, lam: int) -> Polytope:
    """lam * P with no hull (``transform``); a projection already built for P is
    carried across as lam times it."""
    n = P.dim
    Q = transform(P, [[lam * int(i == j) for j in range(n)] for i in range(n)], [0] * n)
    if P._projection is not None:
        Q._projection = _scaled(P._projection, lam)
    return Q


def _row(scale, quantity, value, reference):
    ref = float(reference)
    val = float(value)
    rel = abs(val - ref) / abs(ref) if ref else float("inf")
    return {
        "scale": float(scale),
        "quantity": quantity,
        "value": val,
        "reference": ref,
        "rel_error": rel,
    }


SWEEP_TARGETS = ("gn_volume", "mu_volume", "discrete_to_continuous_zhang",
                 "purely_discrete_to_continuous", "B_limit")


def _positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def check_lattice_scales(scales) -> None:
    """Raise ``ConfigError`` unless every scale is a positive integer: the
    lattice targets count the integer points of lam K."""
    bad = [lam for lam in scales if not _positive_int(lam)]
    if bad:
        raise ConfigError(f"lattice sweep scales must be positive integers, got {bad}")


def check_B_limit(scales, params: dict) -> None:
    """Raise ``ConfigError`` unless n and p are positive integers and every
    scale is a positive real: B_x(p) and its limit 1/binom(n-1+p, n-1) need
    an integer p."""
    for key, default in (("n", 2), ("p", 1)):
        if not _positive_int(params.get(key, default)):
            raise ConfigError(f"B_limit {key} must be a positive integer, got {params[key]!r}")
    bad = [x for x in scales if isinstance(x, bool) or not isinstance(x, (int, float, Fraction))
           or not (0 < x < math.inf)]
    if bad:
        raise ConfigError(f"B_limit scales must be positive reals, got {bad}")


def limit_sweep(body: Polytope | BodyWorkspace, target: str, scales,
                params: dict | None = None) -> list[dict]:
    """Rescaled lattice quantities against their continuous limits.

    ``body`` is a polytope or its workspace; ``run_sweeps`` passes one
    workspace to every target of a body, so its volume, slab moment, anchor,
    projection and symmetral are computed once.  The two discrete Zhang
    targets read each scale's workspace off it (``BodyWorkspace.scaled``),
    with no hull and no LP per scale.  Rows report per-scale values; only
    trends are produced here (assertions over the final scale live with the
    callers/tests).
    """
    params = dict(params or {})
    rows: list[dict] = []
    if target == "B_limit":
        check_B_limit(scales, params)
        n = params.get("n", 2)
        p = params.get("p", 1)
        ref = 1.0 / math.comb(n - 1 + p, n - 1)
        for x in scales:
            rows.append(_row(x, "B_x(p)", B_coeff(float(x), p, n), ref))
        return rows
    check_lattice_scales(scales)
    ws = body if isinstance(body, BodyWorkspace) else BodyWorkspace(body)
    P = ws.body
    n = P.dim
    if target == "gn_volume":
        for lam in scales:
            Q = _scaled(P, lam)
            rows.append(_row(lam, "G_n/scale^n", Fraction(count_lattice(Q), lam**n), ws.vol))
        return rows
    if target == "mu_volume":
        for lam in scales:
            Q = _scaled(P, lam)
            rows.append(_row(lam, "mu/scale^n", mu_measure(Q).exact / lam**n, ws.vol))
        return rows
    if target in ("discrete_to_continuous_zhang", "purely_discrete_to_continuous"):
        const = Fraction(math.comb(2 * n, n), n**n)
        ref_lhs = const * ws.slab(n).exact
        ref_rhs = ws.vol ** (n + 1) / ws.volp**n
        for lam in scales:
            qws = ws.scaled(lam)
            norm = lam ** (2 * n)
            if target == "discrete_to_continuous_zhang":
                lhs, rhs, _mu_fat = _discrete_zhang_mu_sides(qws)
                mu_sym = mu_measure(qws.asym).exact
                rows.append(_row(lam, "lhs", lhs / norm, ref_lhs))
                rows.append(_row(lam, "rhs", rhs / norm, ref_rhs))
                rows.append(_row(lam, "rhs_symmetral",
                                 mu_sym ** (n + 1) / Fraction(qws.G_aproj) ** n / norm, ref_rhs))
            else:
                lhs, rhs, _m0 = _purely_discrete_zhang_sides(qws)
                lhs_val = lhs.exact / norm if lhs.is_exact else lhs.value / norm
                rows.append(_row(lam, "lhs", lhs_val, ref_lhs))
                rows.append(_row(lam, "rhs", rhs / norm, ref_rhs))
        return rows
    raise ValueError(f"unknown sweep target {target!r}")
