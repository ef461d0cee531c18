"""Checker registry: every verified inequality/identity, the discrete
comparison-profile machinery behind the purely lattice-counting bound, and
scaling-limit sweeps.

The discrete bounds read the Steiner symmetral S of the anchored body fattened
by the unit cube of e_n^perp.  Every such quantity comes from S and its
memoized closed fattening ``lattice.fattening(S, n-1)``, with no LP and no
per-height slice: the diamond extension is the upper end of a vertical
section of the fattening, and the profiles f, f~, the top height M and the
column counts behind the profile hypotheses are height and column counts of
the lattice points of S and of its open fattening.

Verdict policy: exact-vs-exact comparisons are strict rational.  When either
side is approximate, `holds` means slack >= -(sum of error bounds).  The one
checker whose sides depend on a quadrature order, `volume_identity_discrete`,
re-decides an apparent violation once at doubled circle order (and marks the
report `retried`) before `fails` is reported.  Violated preconditions yield
`inconclusive` with a reason, never a silent pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    EmptyProjectionLattice,
    HypothesesViolated,
    NoCrossing,
    NoRoot,
    UnknownChecker,
)
from .lattice import (
    column_lengths,
    count_lattice,
    fattening,
    lattice_points,
    mu_measure,
)
from .linalg import frac
from .lp import lp_solve  # noqa: F401  (unused here; perfbench/tracer.py's REQUIRED_BINDINGS needs it)
from .moments import (
    RayMomentEngine,
    facet_angles,
    projection_power_moment,
    radial_batch,
    ray_moment,
    section_power_integral,
    slab_moment,
    star_volume,
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
    """Discrete analogue of the inverse binomial weight in reverse Hoelder means."""
    if m <= 0 or p < 1:
        raise ValueError("need m > 0 and p >= 1")
    if float(p) == int(p):
        return float(_B_exact(frac(m), int(p), n))
    mf, pf = float(m), float(p)
    total = 0.0
    for k in range(math.floor(mf) + 1):
        t = k / mf
        pw = 1.0 if (k == 0 and pf == 1.0) else (t ** (pf - 1.0) if k else 0.0)
        total += pf / mf * (1.0 - t) ** (n - 1) * pw
    return total


def _h_exact(x: Fraction, p: int, n: int) -> Fraction:
    """sum_{k=0}^{floor(x)} p (1-k/x)^{n-1} k^{p-1} = p S / a^{n-1}."""
    S, a, _ = _power_sum(x, p, n)
    return Fraction(p * S, a ** (n - 1))


def h_func(x, p, n: int) -> float:
    """x^p * B_x(p); continuous and nondecreasing in x."""
    if x <= 0 or p < 1:
        raise ValueError("need x > 0 and p >= 1")
    if float(p) == int(p):
        return float(_h_exact(frac(x), int(p), n))
    xf, pf = float(x), float(p)
    total = 0.0
    for k in range(math.floor(xf) + 1):
        pw = 1.0 if (k == 0 and pf == 1.0) else (float(k) ** (pf - 1.0) if k else 0.0)
        total += pf * (1.0 - k / xf) ** (n - 1) * pw
    return total


@dataclass(frozen=True)
class SectionProfiles:
    """Lattice counts of symmetral slices (plain f and open-fattened f~)."""

    f: dict[int, int]
    f_tilde: dict[int, int]
    M: int
    symmetral: Polytope

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


def _height_counts(points) -> dict[int, int]:
    """Number of points at each height x_n = k >= 0."""
    return dict(Counter(x[-1] for x in points if x[-1] >= 0))


def section_profiles(P: Polytope, symmetral: Polytope | None = None) -> SectionProfiles:
    """f(k)/f~(k): lattice counts of the symmetral slice at height k, plain and
    fattened by the open unit cube of the slice's ambient space.

    The slice of S + (-1,1)^{n-1} x {0} at an integer height is the slice of S
    plus the open cube, so both profiles are height counts of one enumeration.
    """
    n = P.dim
    S = symmetral if symmetral is not None else steiner_symmetrize(P)
    # S is symmetric in x_n, so (0, 0) is in S exactly when 0 is in P(K)
    if not S.contains(tuple(_ZERO for _ in range(n))):
        raise EmptyProjectionLattice("profiles need 0 in the projection")
    f = _height_counts(lattice_points(S))
    ft = _height_counts(lattice_points(S, n - 1))
    return SectionProfiles(f, ft, max(f, default=0), S)


def hypotheses_h(P: Polytope, profiles: SectionProfiles | None = None) -> HypothesesH:
    pr = profiles if profiles is not None else section_profiles(P)
    # the symmetral meets the column over y exactly when y is in P(K)
    counts = Counter(x[:-1] for x in lattice_points(pr.symmetral))
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
    verts = set(S.vertices)
    if any(v[:-1] + (-v[-1],) not in verts for v in verts):
        raise ValueError("diamond extension needs a body symmetric in x_n")
    seg = vertical_section(fattening(S, S.dim - 1), x)
    return MeasureValue.from_exact(_ZERO if seg is None else seg.hi)


def _profile_sum(profile: dict[int, int], p: int) -> Fraction:
    """sum_k p k^{p-1} f(k) with the 0^0 = 1 convention at k = 0, p = 1."""
    total = _ZERO
    for k, v in profile.items():
        if k == 0:
            if p == 1:
                total += v
        else:
            total += p * Fraction(k) ** (p - 1) * v
    return total


def solve_m0(P: Polytope, p, profiles: SectionProfiles | None = None) -> float:
    m, _exact = _solve_m0(P, p, profiles)
    return m


def _solve_m0(P: Polytope, p, profiles: SectionProfiles | None = None):
    """Root of h_p(m) * G_{n-1}(proj) = sum_k p k^{p-1} f~(k), as (float, exact|None).

    Bisection on the nondecreasing h_p; plateaus resolve to the leftmost
    point; the bracket doubles until it contains the target.  A rational
    representative is returned when the root is exactly rational.
    """
    n = P.dim
    pr = profiles if profiles is not None else section_profiles(P)
    hyp = hypotheses_h(P, pr)
    if not hyp.satisfied:
        raise HypothesesViolated("comparison profile needs max column at 0 and M >= 1")
    G = count_lattice(project_drop_last(P))
    if float(p) != int(p):
        pf = float(p)
        tgt = sum(pf * k ** (pf - 1.0) * v for k, v in pr.f_tilde.items() if k) / G
        lo, hi = 1.0, float(max(pr.M, 2))
        for _ in range(64):
            if h_func(hi, pf, n) >= tgt:
                break
            hi *= 2.0
        else:
            raise NoRoot("no bracket for the profile scale equation")
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if h_func(mid, pf, n) >= tgt:
                hi = mid
            else:
                lo = mid
        if hi < pr.M - 1e-9:
            raise NoRoot("profile scale landed below the top lattice height")
        return hi, None
    p = int(p)
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
    root = float(hi)
    exact = None
    cand = Fraction(root).limit_denominator(10**9)
    if _h_exact(cand, p, n) == target:
        lo2 = cand - Fraction(1, 10**13)
        if lo2 <= 1 or _h_exact(lo2, p, n) < target:
            exact = cand
            root = float(cand)
    m_val = exact if exact is not None else Fraction(root)
    if m_val < pr.M:
        raise NoRoot("profile scale landed below the top lattice height")
    return root, exact


def _g_profile(k: int, m0, G: int, n: int):
    """(1 - k/m0)^{n-1} G on [0, m0], else 0; exact when m0 is rational."""
    if isinstance(m0, Fraction):
        kk = Fraction(k)
        if kk > m0:
            return _ZERO
        return (1 - kk / m0) ** (n - 1) * G
    if k > m0:
        return 0.0
    return (1.0 - k / m0) ** (n - 1) * G


def crossing_point(P: Polytope, p, profiles: SectionProfiles | None = None) -> int:
    """Minimal integer threshold separating f~ >= g (below) from g >= f (above)."""
    pr = profiles if profiles is not None else section_profiles(P)
    hyp = hypotheses_h(P, pr)
    if not hyp.satisfied:
        raise HypothesesViolated("crossing point needs the profile hypotheses")
    G = count_lattice(project_drop_last(P))
    n = P.dim
    root, exact = _solve_m0(P, p, pr)
    m0 = exact if exact is not None else root
    top = math.ceil(root) + 1
    upper = max(top, pr.M) + 1
    for kstar in range(0, top + 1):
        ok = True
        for k in range(0, kstar):
            if not pr.f_tilde_at(k) >= _g_profile(k, m0, G, n):
                ok = False
                break
        if ok:
            for k in range(kstar, upper + 1):
                if not _g_profile(k, m0, G, n) >= pr.f_at(k):
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


def _verdict(lhs: MeasureValue, rhs: MeasureValue) -> tuple[float, str]:
    if lhs.exact is not None and rhs.exact is not None:
        s = rhs.exact - lhs.exact
        return float(s), ("holds" if s >= 0 else "fails")
    err = lhs.abs_error + rhs.abs_error
    s = rhs.value - lhs.value
    return s, ("holds" if s >= -err else "fails")


def _report(cid: str, lhs: MeasureValue, rhs: MeasureValue, **context) -> InequalityReport:
    slack, verdict = _verdict(lhs, rhs)
    return InequalityReport(cid, lhs, rhs, slack, verdict, context)


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
        t = tuple(-c for c in self.anchor) + (_ZERO,)
        return self.body.translated(t)

    @cached_property
    def aproj(self) -> Polytope:
        return project_drop_last(self.anchored)

    @cached_property
    def asym(self) -> Polytope:
        return steiner_symmetrize(self.anchored)

    @cached_property
    def profiles(self) -> SectionProfiles:
        return section_profiles(self.anchored, self.asym)

    @cached_property
    def hypotheses(self) -> HypothesesH:
        return hypotheses_h(self.anchored, self.profiles)

    @cached_property
    def G_aproj(self) -> int:
        return count_lattice(self.aproj)

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
        out = {}
        for y in lattice_points(self.aproj, self.n - 1):
            out[y] = diamond_extension(self.asym, y).exact
        return out

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


def _purely_discrete_zhang_sides(ws: BodyWorkspace) -> tuple[MeasureValue, Fraction, float | None]:
    """(lhs, rhs, m0) of the purely discrete Zhang inequality.

    The left side is exact when m0 is rational; m0 is None when M = 0, where
    the left side is 0.
    """
    n = ws.n
    pr = ws.profiles
    rhs = Fraction(_G_sym_fattened(ws) + pr.f_tilde_at(0)) ** (n + 1) / Fraction(ws.G_aproj) ** n
    if pr.M == 0:
        return MeasureValue.from_exact(0), rhs, None
    root, exact_m0 = _solve_m0(ws.anchored, 1, pr)
    sum_abs = sum((Fraction(k) ** n * v for k, v in pr.f.items() if k), _ZERO) * 2
    if exact_m0 is not None:
        factor = (n + 1) * _B_exact(exact_m0, 1, n) ** (n + 1) / _B_exact(exact_m0, n + 1, n)
        return MeasureValue.from_exact(factor * 2**n * sum_abs), rhs, root
    factor = (n + 1) * B_coeff(root, 1, n) ** (n + 1) / B_coeff(root, n + 1, n)
    val = factor * 2.0**n * float(sum_abs)
    return MeasureValue.approx(val, 1e-9 * abs(val)), rhs, root


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

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
    from .lattice import ray_interval

    n = ws.n
    body = ws.anchored
    const = Fraction(math.comb(2 * n, n), n**n)
    e_n = tuple(Fraction(0) for _ in range(n - 1)) + (Fraction(1),)
    mom = _ZERO
    for y in lattice_points(body):
        seg = ray_interval(body, y, e_n)
        if seg is not None:
            lo, hi = seg
            mom += hi**n - lo**n
    lhs = MeasureValue.from_exact(const * mom)
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
        m0=m0,
        M=pr.M,
        anchor=[str(c) for c in ws.anchor],
    )


_BERWALD_GRID = (Fraction(-1, 2), 1, 2)


def _chk_berwald_continuous(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    grid = list(params.get("grid") or list(_BERWALD_GRID) + [n, n + 1])
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
    pairs = params.get("pairs") or [(1, 2), (1, n + 1), (2, 5)]
    G = ws.G_aproj
    halves = {y: ell / 2 for y, ell in ws.acolumn_lengths.items()}
    diam = ws.diamond_values
    worst = None
    details = []
    for p, q in pairs:
        sq = sum((v**q for v in halves.values()), _ZERO)
        sp = sum((v**p for v in diam.values()), _ZERO)
        lhs_pow = (Fraction(math.comb(nn + q, nn)) * sq / G) ** p
        rhs_pow = (Fraction(math.comb(nn + p, nn)) * sp / G) ** q
        lv = float(Fraction(math.comb(nn + q, nn)) * sq / G) ** (1.0 / q)
        rv = float(Fraction(math.comb(nn + p, nn)) * sp / G) ** (1.0 / p)
        ok = lhs_pow <= rhs_pow
        details.append({"p": p, "q": q, "lhs": lv, "rhs": rv, "holds": bool(ok)})
        key = (not ok, lv - rv)
        if worst is None or key > worst[0]:
            worst = (key, lv, rv, ok)
    _k, lv, rv, ok = worst
    rep = InequalityReport(
        "berwald_discrete",
        MeasureValue.approx(lv, 0.0),
        MeasureValue.approx(rv, 0.0),
        rv - lv,
        "holds" if all(d["holds"] for d in details) else "fails",
        {"pairs": details, "anchor": [str(c) for c in ws.anchor]},
    )
    return rep


def _chk_completely_discrete_berwald(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    pr = ws.profiles
    if not ws.hypotheses.satisfied:
        return _inconclusive(
            "completely_discrete_berwald", "profile hypotheses not satisfied", M=pr.M
        )
    p = int(params.get("p", 1))
    qs = params.get("qs") or [p + 1, n + 1]
    G = ws.G_aproj
    root, exact_m0 = _solve_m0(ws.anchored, p, pr)
    rhs_val = (float(_profile_sum(pr.f_tilde, p)) / (B_coeff(root, p, n) * G)) ** (1.0 / p)
    results = []
    ok_all = True
    worst = None
    for q in qs:
        sum_f = _profile_sum(pr.f, q)
        if exact_m0 is not None:
            ok = sum_f <= G * _h_exact(exact_m0, q, n)
            lv = float(sum_f / (G * _B_exact(exact_m0, q, n))) ** (1.0 / q)
        else:
            lv = (float(sum_f) / (G * B_coeff(root, q, n))) ** (1.0 / q)
            ok = lv <= rhs_val * (1 + 1e-9)
        ok_all = ok_all and ok
        results.append({"q": q, "lhs": lv, "holds": bool(ok)})
        if worst is None or lv > worst:
            worst = lv
    kstar = crossing_point(ws.anchored, p, pr)
    lhs = MeasureValue.approx(worst, 1e-11 * abs(worst))
    rhs = MeasureValue.approx(rhs_val, 1e-11 * abs(rhs_val))
    return InequalityReport(
        "completely_discrete_berwald",
        lhs,
        rhs,
        rhs_val - worst,
        "holds" if ok_all else "fails",
        {
            "p": p,
            "m0": root,
            "m0_exact": str(exact_m0) if exact_m0 is not None else None,
            "crossing_point": kstar,
            "per_q": results,
            "anchor": [str(c) for c in ws.anchor],
        },
    )


def _chk_zhang_volume(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    polar = polar_projection_body(ws.body).volume_fraction()
    lhs = MeasureValue.from_exact(Fraction(math.comb(2 * n, n), n**n))
    rhs = MeasureValue.from_exact(ws.vol ** (n - 1) * polar)
    return _report("zhang_volume", lhs, rhs, polar_volume=str(polar))


def _chk_different_inclusion(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    grid = params.get("grid") or sorted({0, 1, 2, 3, n})
    xs = []
    for p in grid:
        if p == 0:
            xs.append((0, Fraction(n) * ws.vol / ws.volp))
        else:
            mom = ws.slab(int(p))
            xs.append((int(p), Fraction(n) * math.comb(n + int(p), n) * mom.exact / ws.volp))
    ok_all = True
    worst = None
    for (p, xp), (q, xq) in zip(xs, xs[1:]):
        ok = xq ** (p + 1) <= xp ** (q + 1)
        ok_all = ok_all and ok
        psi_p = float(xp) ** (1.0 / (p + 1))
        psi_q = float(xq) ** (1.0 / (q + 1))
        key = psi_p - psi_q
        if worst is None or key < worst[0]:
            worst = (key, psi_q, psi_p, p, q)
    _k, lv, rv, p, q = worst
    return InequalityReport(
        "different_inclusion",
        MeasureValue.approx(lv, 0.0),
        MeasureValue.approx(rv, 0.0),
        rv - lv,
        "holds" if ok_all else "fails",
        {"grid": [int(g) for g in grid], "worst_pair": [p, q]},
    )


def _chk_mu_gn_sandwich(ws: BodyWorkspace, params: dict) -> InequalityReport:
    mu = mu_measure(ws.body).exact
    gn = count_lattice(ws.body)
    gp = count_lattice(ws.proj)
    lhs = MeasureValue.from_exact(abs(mu - gn))
    rhs = MeasureValue.from_exact(gp)
    return _report("mu_gn_sandwich", lhs, rhs, mu=str(mu), G_n=gn, G_proj=gp)


def _chk_identity_triple_continuous(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    ps = params.get("ps") or sorted({1, 2, n})
    worst = None
    per_p = []
    engine = RayMomentEngine(ws.body, axis_direction(n))
    for p in ps:
        routes = (engine.moment(p), ws.slab(int(p)), ws.projection_power(int(p)))
        if all(r.is_exact for r in routes):
            # three rationals: they agree exactly or the identity fails
            vals = [r.exact for r in routes]
            spread, tol = max(vals) - min(vals), _ZERO
            lhs, rhs = MeasureValue.from_exact(spread), MeasureValue.from_exact(tol)
        else:
            vals = [r.value for r in routes]
            spread = max(vals) - min(vals)
            tol = max(1e-9 * max(abs(v) for v in vals), sum(r.abs_error for r in routes))
            lhs, rhs = MeasureValue.approx(spread, 0.0), MeasureValue.approx(tol, 0.0)
        per_p.append({"p": int(p), "values": vals, "spread": spread, "tol": tol})
        if worst is None or tol - spread < worst[0]:
            worst = (tol - spread, lhs, rhs)
    _k, lhs, rhs = worst
    return _report("identity_triple_continuous", lhs, rhs, per_p=per_p)


def _chk_identity_triple_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    ps = params.get("ps") or sorted({1, 2, n})
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
    all_equal = True
    per_p = []
    for p in ps:
        p = int(p)
        a_val = _mu_moment_exact(cols, p)
        b_val = _ZERO
        for alpha, beta, c0, c1 in pieces:
            b_val += c0 * (beta**p - alpha**p)
            b_val += c1 * Fraction(p, p + 1) * (beta ** (p + 1) - alpha ** (p + 1))
        c_val = Fraction(2) ** (p + 1) * sum(
            (h ** (p + 1) for h in sym_halves), _ZERO
        ) / (p + 1)
        eq = a_val == b_val == c_val
        all_equal = all_equal and eq
        per_p.append({"p": p, "values": [str(a_val), str(b_val), str(c_val)], "equal": bool(eq)})
    zero = MeasureValue.from_exact(0)
    return InequalityReport(
        "identity_triple_discrete",
        zero if all_equal else MeasureValue.from_exact(1),
        zero,
        0.0 if all_equal else -1.0,
        "holds" if all_equal else "fails",
        {"per_p": per_p},
    )


def _chk_ball_inclusion_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    p = int(params.get("p", 1))
    q = int(params.get("q", 2))
    dirs = ws.sample_dirs
    lhs_arr = math.comb(n + q, n) ** (1.0 / q) * radial_batch("discrete", ws.body, dirs, q)
    rhs_arr = math.comb(n + p, n) ** (1.0 / p) * radial_batch(
        "discrete-open-tilde", ws.body, dirs, p
    )
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
    p = int(params.get("p", 1))
    combos = int(params.get("combos", 200))
    dirs = ws.sample_dirs
    rho = radial_batch("discrete", ws.body, dirs, p)
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
    p = int(params.get("p", 1))
    dirs = ws.sample_dirs
    lhs_arr = radial_batch("difference-set", ws.body, dirs, None)
    rhs_arr = math.comb(n + p, n) ** (1.0 / p) * radial_batch(
        "discrete-open-tilde", ws.body, dirs, p
    )
    slack = rhs_arr - lhs_arr
    i = int(np.argmin(slack))
    err = 1e-9 * (abs(lhs_arr[i]) + abs(rhs_arr[i])) + 1e-12
    lhs = MeasureValue.approx(float(lhs_arr[i]), err)
    rhs = MeasureValue.approx(float(rhs_arr[i]), err)
    return _report(
        "difference_set_inclusion", lhs, rhs, p=p, directions=len(dirs),
        worst_direction=[float(c) for c in dirs[i]],
    )


def _jump_angles(P: Polytope) -> list[float]:
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


def _volume_identity_report(ws: BodyWorkspace, n_circle: int) -> InequalityReport:
    sv = star_volume(
        lambda dirs: radial_batch("discrete", ws.body, dirs, ws.n),
        ws.n,
        extra_angles=facet_angles(ws.body) + _jump_angles(ws.body),
        n_circle=n_circle,
    )
    vol = float(ws.vol)
    lhs = MeasureValue.approx(abs(sv.value - vol), sv.abs_error)
    rhs = MeasureValue.approx(1e-3 * vol, 0.0)
    return _report(
        "volume_identity_discrete", lhs, rhs, star_volume=sv.value, volume=vol
    )


def _chk_volume_identity_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    rep = _volume_identity_report(ws, 2048)
    if rep.verdict == "fails":
        # an apparent violation may be quadrature error: re-decide at doubled order
        rep = _volume_identity_report(ws, 4096)
        rep.context["retried"] = True
    return rep


def _chk_one_point_collapse(ws: BodyWorkspace, params: dict) -> InequalityReport:
    from .lattice import ray_interval
    from .polytope import transform

    n = ws.n
    p = int(params.get("p", 1))
    pts = lattice_points(ws.body)
    if tuple(pts) != (tuple(0 for _ in range(n)),):
        return _inconclusive("one_point_collapse", "lattice set is not exactly {0}")
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
    all_eq = True
    details = []
    origin = tuple(Fraction(0) for _ in range(n))
    for raw in test_dirs:
        seg = ray_interval(ws.body, origin, raw)
        moment_root = _ZERO if seg is None else seg[1]  # (b^p)^(1/p) in raw units
        # independent route: the same clip against the negated polytope
        rho = ray_interval(neg, origin, tuple(-c for c in raw))[1]
        eq = moment_root == rho
        all_eq = all_eq and eq
        details.append({"dir": [str(c) for c in raw], "ball": str(moment_root), "neg": str(rho)})
    zero = MeasureValue.from_exact(0)
    return InequalityReport(
        "one_point_collapse",
        zero if all_eq else MeasureValue.from_exact(1),
        zero,
        0.0 if all_eq else -1.0,
        "holds" if all_eq else "fails",
        {"p": p, "directions": details},
    )


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


def _vol_identity_applicable(ws: BodyWorkspace):
    r = _origin_checker(ws)
    if r:
        return r
    if ws.n != 2:
        return "discrete volume identity quadrature is wired for n = 2"
    return None


def _one_point_applicable(ws: BodyWorkspace):
    r = _needs_full_dim(ws)
    if r:
        return r
    pts = lattice_points(ws.body)
    if tuple(pts) != (tuple(0 for _ in range(ws.n)),):
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
    _origin_checker,
    "binom(n+q,n)^(1/q) rho_q(lattice covariogram body) <="
    " binom(n+p,n)^(1/p) (G(K+open cube)/G(K))^(1/p) rho_p(open-fattened body), p < q",
)
_register(
    "convexhull_inclusion",
    _chk_convexhull_inclusion,
    _origin_checker,
    "convex combinations of boundary points of the lattice-covariogram Ball body"
    " lie in the scaled open-fattened Ball body",
)
_register(
    "difference_set_inclusion",
    _chk_difference_set_inclusion,
    _origin_checker,
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
    """Run one checker; violated preconditions yield an inconclusive report."""
    if cid not in _REGISTRY:
        raise UnknownChecker(cid)
    entry = _REGISTRY[cid]
    params = dict(params or {})
    if ws is None or ws.body is not body:
        ws = BodyWorkspace(body, seed=params.pop("seed", 20240),
                           dir_samples=params.pop("dir_samples", None))
    reason = entry.applicable(ws)
    if reason is not None:
        rep = _inconclusive(cid, reason)
        rep.context["statement"] = entry.statement
        return rep
    rep = entry.run(ws, params)
    rep.context.setdefault("statement", entry.statement)
    return rep


# ---------------------------------------------------------------------------
# scaling-limit sweeps
# ---------------------------------------------------------------------------

def _scaled(P: Polytope, lam: int) -> Polytope:
    return Polytope.from_points([tuple(lam * c for c in v) for v in P.vertices], P.dim)


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


def limit_sweep(P: Polytope, target: str, scales, params: dict | None = None) -> list[dict]:
    """Rescaled lattice quantities against their continuous limits.

    Rows report per-scale values; only trends are produced here (assertions
    over the final scale live with the callers/tests).
    """
    params = dict(params or {})
    rows: list[dict] = []
    if target == "B_limit":
        n = int(params.get("n", 2))
        p = params.get("p", 1)
        ref = 1.0 / math.comb(n - 1 + int(p), n - 1)
        for x in scales:
            rows.append(_row(x, "B_x(p)", B_coeff(float(x), p, n), ref))
        return rows
    ws = BodyWorkspace(P)
    n = P.dim
    if target == "gn_volume":
        for lam in scales:
            Q = _scaled(P, int(lam))
            rows.append(_row(lam, "G_n/scale^n", Fraction(count_lattice(Q), int(lam) ** n), ws.vol))
        return rows
    if target == "mu_volume":
        for lam in scales:
            Q = _scaled(P, int(lam))
            rows.append(_row(lam, "mu/scale^n", mu_measure(Q).exact / int(lam) ** n, ws.vol))
        return rows
    if target in ("discrete_to_continuous_zhang", "purely_discrete_to_continuous"):
        const = Fraction(math.comb(2 * n, n), n**n)
        ref_lhs = const * ws.slab(n).exact
        ref_rhs = ws.vol ** (n + 1) / ws.volp**n
        for lam in scales:
            lam = int(lam)
            qws = BodyWorkspace(_scaled(ws.anchored, lam))
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
