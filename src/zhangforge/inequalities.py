"""Checker registry: every verified inequality/identity, the discrete
comparison-profile machinery behind the purely lattice-counting bound, and
scaling-limit sweeps.

The discrete bounds read the Steiner symmetral S of the anchored body fattened
by the unit cube of e_n^perp.  Every such quantity reads the lattice layer's
run tables of S, of its open fattening and of its memoized closed
fattening F = ``lattice.fattening(S, n-1)``, with no LP, no slice and no
point set: the profiles f, f~ and the top height M count the columns that
reach each height, run by run; G_{n-1}(P K) is the number of columns of S,
and the count at column 0 and the largest count are read off the runs'
ends; the diamond extension is half a column length of F.

Each checker hands ``verdict.report`` the two quantities it compares (see
``verdict`` for the decision rule); a chain of comparisons goes through
``verdict.chain_report``.  m0 is the root of one integer polynomial on an
integer segment: exact when rational, else a rational bracket, read through
the monotonicity of h_q.  No checker retries: `volume_identity_discrete`
compares two rationals, the star volume summed over the cones from each
lattice point to the facets and vol(K).  Violated preconditions and exponents
outside a statement's range yield `inconclusive` with a reason, never a
silent pass; a param of the wrong type or shape is a ``ConfigError``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from .errors import (
    ConfigError,
    EmptyProjectionLattice,
    ExponentOutOfRange,
    FrozenRecord,
    HypothesesViolated,
    NoCrossing,
    NoRoot,
    UnknownChecker,
)
from .lattice import (
    _column_walk,
    _columns,
    _fattened_runs,
    _power_sums,
    _rows_mu,
    column_count,
    column_length_sum,
    column_lengths,
    column_moment,
    count_lattice,
    fattened_mu,
    fattening,
    lattice_points,
    mu_measure,
)
from .linalg import frac
from .lp import lp_solve
from .moments import (
    RayMomentEngine,
    _float_points,
    _overlap_rows,
    _power_integral,
    _rows_at,
    clip_radial,
    discrete_moment,
    lattice_clip,
    projection_power_moment,
    radial_batch,
    ray_moment,
    section_distribution,
    section_power_integral,
    slab_moment,
)
from .pcg import _PCG64
from .polytope import (
    Direction,
    Memo,
    Polytope,
    axis_direction,
    polar_projection_body,
    projection_support,
    top_face_anchor,
    vertical_section,
)
from .steiner import require_x_n_symmetric, steiner_symmetrize
from .verdict import (
    HARD_FAILURES,
    InequalityReport,
    MeasureValue,
    chain_report,
    hard_failure,
    inconclusive,
    report,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# comparison-profile machinery
# ---------------------------------------------------------------------------

def _h_segment(j: int, p: int, n: int) -> list[int]:
    """Coefficients c_0..c_{n-1} of x^{n-1} h_p(x) = p sum_{k<=j} (x - k)^{n-1} k^{p-1}
    on [j, j+1) (on [j, j+1] for n >= 2), from power sums with 0^0 = 1."""
    S = _power_sums(j, n + p - 2)
    return [p * math.comb(n - 1, i) * (-1) ** (n - 1 - i) * S[n + p - 2 - i] for i in range(n)]


def _poly_at(c: list[int], a: int, b: int) -> int:
    """b^d c(a/b) = sum_i c_i a^i b^{d-i}, d = len(c) - 1, over Python ints."""
    acc, bp = 0, 1
    for ci in reversed(c):
        acc = acc * a + ci * bp
        bp *= b
    return acc


def _h_exact(x: Fraction | int, p: int, n: int) -> Fraction:
    """sum_{k=0}^{floor(x)} p (1-k/x)^{n-1} k^{p-1} = sum_i c_i a^i b^{n-1-i} / a^{n-1}
    for x = a/b (an int or a Fraction), c = ``_h_segment(floor(x))``."""
    a, b = x.numerator, x.denominator
    return Fraction(_poly_at(_h_segment(a // b, p, n), a, b), a ** (n - 1))


def _B_exact(m: Fraction, p: int, n: int) -> Fraction:
    """sum_{k=0}^{floor(m)} (p/m)(1-k/m)^{n-1}(k/m)^{p-1} = h_p(m) / m^p."""
    return _h_exact(m, p, n) / m**p


_set = object.__setattr__


class SectionProfiles(FrozenRecord):
    """Lattice counts of symmetral slices (plain f and open-fattened f~) and
    columns of an n-dimensional body: the top height M, G_{n-1}(P K), the
    count of the column at 0 and the largest column count."""

    __slots__ = _fields = ("n", "f", "f_tilde", "M", "G_proj", "zero_count", "max_count")

    def __init__(self, n: int, f: dict[int, int], f_tilde: dict[int, int], M: int, G_proj: int,
                 zero_count: int, max_count: int):
        _set(self, "n", n)
        _set(self, "f", f)
        _set(self, "f_tilde", f_tilde)
        _set(self, "M", M)
        _set(self, "G_proj", G_proj)
        _set(self, "zero_count", zero_count)
        _set(self, "max_count", max_count)

    def f_at(self, k: int) -> int:
        return self.f.get(k, 0)

    def f_tilde_at(self, k: int) -> int:
        return self.f_tilde.get(k, 0)

    @property
    def satisfies_h(self) -> bool:
        """The hypotheses (H): the column at 0 is a longest one, and M >= 1."""
        return self.zero_count > 0 and self.zero_count == self.max_count and self.M >= 1


def _top_heights(table) -> dict[int, int]:
    """The number of columns of a run table whose top lattice height
    floor(hi_n/Qu) is h, for each h.  Along a run that height is monotone and
    reaches h at the column i = ceil((h Qu - hi)/dhi) (a run with dhi < 0 is
    read backwards), so a run costs the fewer of its columns and its
    heights."""
    _Qd, Qu, lines = table
    hist: dict[int, int] = {}
    for _head, _t0, runs in lines:
        for j0, j1, _lo, _dlo, hi, dhi in runs:
            m = j1 - j0
            if dhi < 0:
                hi, dhi = hi + dhi * (m - 1), -dhi
            h0, h1 = hi // Qu, (hi + dhi * (m - 1)) // Qu
            if h1 - h0 >= m:  # steep: one height per column
                for h in range(hi, hi + dhi * m, dhi):
                    hist[h // Qu] = hist.get(h // Qu, 0) + 1
                continue
            i = 0  # the first column at height h
            for h in range(h0, h1):
                nxt = -((hi - (h + 1) * Qu) // dhi)
                hist[h] = hist.get(h, 0) + nxt - i
                i = nxt
            hist[h1] = hist.get(h1, 0) + m - i
    return hist


def _height_profile(hist: dict[int, int]) -> dict[int, int]:
    """{k: number of columns with top height >= k} for 0 <= k <= the largest
    height, ascending: a symmetric body's column of top height h holds one
    lattice point at each height -h..h."""
    counts, acc = [], 0
    for h in range(max(hist, default=-1), -1, -1):
        acc += hist.get(h, 0)
        counts.append(acc)
    return dict(enumerate(reversed(counts)))


def section_profiles(S: Polytope) -> SectionProfiles:
    """f(k)/f~(k): lattice counts of the symmetral S's slice at height k, plain
    and fattened by the open unit cube of the slice's ambient space.  S must be
    symmetric in x_n (such a body is its own symmetral).

    The slice of S + (-1,1)^{n-1} x {0} at an integer height is the slice of S
    plus the open cube, so both profiles are counts of the columns of S (of
    its open fattening) that reach that height, read off the run tables
    (``lattice._column_walk``) with no column expanded.  Each column of S
    is [-h, h], so its count 2 floor(h) + 1 is monotone along a run and the
    largest count is at a run's end.
    """
    n = S.dim
    require_x_n_symmetric(S)
    # S is symmetric in x_n, so (0, 0) is in S exactly when 0 is in P(K)
    if not S.contains(tuple(_ZERO for _ in range(n))):
        raise EmptyProjectionLattice("profiles need 0 in the projection")
    table = _column_walk(S)
    Qd, Qu, lines = table
    hist = _top_heights(table)
    zero_count = max_count = 0
    for head, t0, runs in lines:
        for j0, j1, lo, dlo, hi, dhi in runs:
            for i in (0, j1 - j0 - 1):
                max_count = max(max_count, (hi + dhi * i) // Qu + (-lo - dlo * i) // Qd + 1)
            i = -j0 if t0 is None else -t0 - j0  # the column at 0, when on this run
            if 0 <= i < j1 - j0 and not any(head):
                zero_count = (hi + dhi * i) // Qu + (-lo - dlo * i) // Qd + 1
    f = _height_profile(hist)
    return SectionProfiles(n, f, _height_profile(_top_heights(_column_walk(S, n - 1))),
                           max(f, default=0), sum(hist.values()), zero_count, max_count)


def diamond_extension(S: Polytope, x) -> MeasureValue:
    """Largest half section length of S over the closed unit window around x.

    S must be symmetric in x_n.  The section of S + [-1,1]^{n-1} x {0} over x
    is then [-m, m] with m the largest half section length of S over the
    window; the supremum over the open window equals this closed maximum by
    continuity.  Returns 0 when the window misses the projection.
    """
    require_x_n_symmetric(S)
    seg = vertical_section(fattening(S, S.dim - 1), x)
    return MeasureValue.from_exact(_ZERO if seg is None else seg.hi)


def _profile_sum(profile: dict[int, int], p: int) -> Fraction:
    """sum_k p k^{p-1} f(k) with the 0^0 = 1 convention at k = 0, p = 1.

    An integer sum (Python's ``0 ** 0 == 1`` is the convention); one Fraction
    is built for the result.
    """
    return Fraction(p * sum(k ** (p - 1) * v for k, v in profile.items() if k or p == 1))


def _solve_m0(pr: SectionProfiles, p: int):
    """Rational bracket (lo, hi) of the root of h_p(m) * G_{n-1}(PK) = sum_k p k^{p-1} f~(k).

    An integer search on the nondecreasing h_p finds the least integer J with
    h_p(J) >= target = N/d; on [J-1, J] the root is the zero of the integer
    polynomial q = d x^{n-1} (h_p(x) - N/d).  Bisecting q's sign narrows the
    bracket below 2^-60 and 1/(2 V^2), V q's leading nonzero coefficient.  A
    rational root has a denominator dividing V (rational root theorem), so it
    is the bracket's midpoint rounded to a denominator <= |V|, and lo == hi
    when q vanishes there.
    """
    n = pr.n
    if not pr.satisfies_h:
        raise HypothesesViolated("comparison profile needs max column at 0 and M >= 1")
    target = _profile_sum(pr.f_tilde, p) / pr.G_proj
    if _h_exact(_ONE, p, n) > target:
        raise NoRoot("target below the left end of the bracket")
    i, J = 0, max(pr.M, 1)  # the root lies in (i, J] once h_p(J) >= target
    while _h_exact(J, p, n) < target:
        i, J = J, 2 * J
    J = i + 1 + bisect_left(range(i + 1, J), target, key=lambda x: _h_exact(x, p, n))
    q = [target.denominator * c for c in _h_segment(J - 1, p, n)]
    q[-1] -= target.numerator
    if _poly_at(q, J, 1) == 0:
        lo = hi = Fraction(J)
    else:
        V = abs(next(c for c in reversed(q) if c))
        steps = max(60, 2 * V.bit_length() + 1)
        a = J - 1  # the bracket [a, a + 1] / 2^s: q < 0 at its left end, q >= 0 at its right
        for s in range(1, steps + 1):
            a = 2 * a + 1
            if _poly_at(q, a, 1 << s) >= 0:
                a -= 1
        lo, hi = Fraction(a, 1 << steps), Fraction(a + 1, 1 << steps)
        root = ((lo + hi) / 2).limit_denominator(V)
        # the rounding stays in [J - 1, J] (an end is nearer), where q's one zero is m0
        if _poly_at(q, root.numerator, root.denominator) == 0:
            lo = hi = root
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


def crossing_point(pr: SectionProfiles, p) -> int:
    """Minimal integer threshold separating f~ >= g (below) from g >= f (above),
    tested at m0's bracket ends: g is nondecreasing in m0."""
    return _crossing_in_bracket(pr, _solve_m0(pr, p))


def _crossing_in_bracket(pr: SectionProfiles, m0: tuple[Fraction, Fraction]) -> int:
    """``crossing_point`` for the profiles of a body that meets the hypotheses,
    given m0's bracket: one more than the last k where g < f, if f~ >= g below it."""
    lo, hi = m0
    n, G = pr.n, pr.G_proj
    top = math.ceil(hi) + 1
    upper = max(top, pr.M) + 1
    kstar = next((k + 1 for k in range(upper, -1, -1) if _g_profile(k, lo, G, n) < pr.f_at(k)), 0)
    if kstar > top or any(pr.f_tilde_at(k) < _g_profile(k, hi, G, n) for k in range(kstar)):
        raise NoCrossing("no integer crossing point in range")
    return kstar


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

# the Ball-body checkers' base directions: equally spaced angles (n = 2) and
# a Fibonacci sphere (n = 3), plus the body's vertex and lattice directions
_DIRS_2D = 360
_DIRS_3D = 1000


def _fib_sphere(count: int) -> np.ndarray:
    import numpy as np

    i = np.arange(count) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """The rows of X with norm above 1e-12, each divided by its norm.  Each
    squared norm is the row's own dot product (a stacked matmul), as
    ``np.linalg.norm`` takes it for one vector, so a row comes out bit for
    bit as ``x / np.linalg.norm(x)``; a plain sum of squares may round
    differently."""
    import numpy as np

    nn = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])
    keep = nn > 1e-12
    return X[keep] / nn[keep, None]


class BodyWorkspace(Memo):
    """Per-body cache shared by the checkers: the symmetral and the anchor
    read off it, the section-length distribution, the profiles, the sample
    radials, the scaled workspaces of the sweeps, and the one e_n ray engine
    whose ``ray_support`` LP is solved once per body.  Quantities with no
    argument are cached properties; the rest are memo entries, keyed
    ("radial", source, p), ("workspace", lam) and ("applicability", cid).
    The dilates lam K themselves are the body's memo entries ("scaled", lam)
    (``Polytope.scaled``)."""

    def __init__(self, body: Polytope, seed: int = 20240):
        self.body = body
        self.seed = seed
        self._memo = {}

    @cached_property
    def n(self) -> int:
        return self.body.dim

    @cached_property
    def vol(self) -> Fraction:
        return self.body.volume_fraction()

    @cached_property
    def volp(self) -> Fraction:
        """vol_{n-1}(P K) by Cauchy's formula, from the facet weights."""
        return projection_support(self.body, axis_direction(self.n).raw)

    @cached_property
    def sym(self) -> Polytope:
        """The body's Steiner symmetral, one hull; ``anchor``, ``asym`` and
        ``section_dist`` are read off it."""
        return steiner_symmetrize(self.body)

    @cached_property
    def anchor(self):
        """The lex-min anchor of a longest section, read off ``sym``'s top face."""
        return top_face_anchor(self.sym)

    @cached_property
    def anchored(self) -> Polytope:
        """The body moved by (-anchor, 0), with no hull."""
        return self.body.translated(tuple(-c for c in self.anchor) + (_ZERO,))

    @cached_property
    def asym(self) -> Polytope:
        """The symmetral of ``anchored``: ``sym`` moved by (-anchor, 0), with no
        hull, since ``anchored`` carries it across the horizontal translate."""
        return steiner_symmetrize(self.anchored)

    def scaled(self, lam: int) -> "BodyWorkspace":
        """The workspace of lam * ``anchored`` for an integer lam > 0, built
        once per lam.  The scaled body carries lam * ``asym`` as its
        symmetral, so the new workspace builds no hull and solves no LP."""
        return self.memo(("workspace", lam),
                         lambda: BodyWorkspace(self.anchored.scaled(lam), self.seed))

    @cached_property
    def profiles(self) -> SectionProfiles:
        return section_profiles(self.asym)

    @cached_property
    def G_proj(self) -> int:
        return self.profiles.G_proj

    @cached_property
    def origin_inside(self) -> bool:
        return self.body.contains(tuple(_ZERO for _ in range(self.n)))

    @cached_property
    def lattice(self) -> tuple[tuple[int, ...], ...]:
        """The body's lattice points, enumerated once for the sample radials."""
        return lattice_points(self.body)

    @cached_property
    def sample_dirs(self) -> np.ndarray:
        """The base directions, then +-v/|v| per vertex v and (y - v)/|y - v| per
        lattice point y and vertex v, in that order, nonzero ones only."""
        import numpy as np

        n = self.n
        V = np.array([[float(c) for c in v] for v in self.body.vertices])
        diffs = (_float_points(self.lattice, n)[:, None, :] - V[None, :, :]).reshape(-1, n)
        if n == 2:
            ang = 2.0 * math.pi * np.arange(_DIRS_2D) / _DIRS_2D
            base = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        else:
            base = _fib_sphere(_DIRS_3D)
        U = _unit_rows(V)
        return np.concatenate([base, np.stack([U, -U], axis=1).reshape(-1, n), _unit_rows(diffs)])

    @cached_property
    def closed_clip(self):
        """The closed clip table (lo, hi, feas) of ``lattice`` against the body
        on ``sample_dirs``, m x D each: every ``discrete`` radial and the
        ``difference-set`` radial are reduced from it, and it lives as long as
        the workspace."""
        return lattice_clip(self.body, self.sample_dirs, self.lattice)

    def sample_radial(self, source: str, p) -> np.ndarray:
        """``radial_batch(source, body, sample_dirs, p)``, computed once per (source, p).

        The Ball-body checkers read their radials on the same ``sample_dirs``.
        The ``discrete`` radials (any p) and the ``difference-set`` radial
        reduce the one ``closed_clip`` table; each open-fattened source costs
        one ray-clip pass per p (the ``discrete-open-tilde`` pass, shared by
        ``ball_inclusion_discrete`` and ``difference_set_inclusion``, is the
        costliest), and its table is dropped once reduced.  The D-length
        radials are kept read-only.
        """
        def build():
            if source in ("discrete", "difference-set"):
                rho = clip_radial(source, self.closed_clip, p)
            else:
                rho = radial_batch(source, self.body, self.sample_dirs, p)
            rho.flags.writeable = False
            return rho

        return self.memo(("radial", source, p), build)

    @cached_property
    def section_dist(self):
        return section_distribution(self.sym)

    @cached_property
    def en_engine(self) -> RayMomentEngine:
        """The body's one e_n ``RayMomentEngine``: its moments are the third
        route of ``identity_triple_continuous``, and its ``support`` is the
        body's one LP."""
        return RayMomentEngine(self.body, axis_direction(self.n))

    @cached_property
    def diamond_values(self) -> dict:
        """``diamond_extension`` over each integer point y of P(K) + (-1,1)^{n-1}
        (the columns of the open-fattened symmetral, which holds each (y, 0)),
        with one symmetry check: half the symmetric fattening F's column length."""
        require_x_n_symmetric(self.asym)
        Qd, Qu, lines = _fattened_runs(self.asym)
        return {y: Fraction(hi_n * Qd - lo_n * Qu, 2 * Qu * Qd) for y, lo_n, hi_n in _columns(lines)}


def _mu_moment_exact(P: Polytope, p: int) -> Fraction:
    """p * integral of r^{p-1} mu(P cap (r e_n + P)) dr = sum of ell_y^{p+1} / (p+1)."""
    return column_length_sum(P, p + 1) / (p + 1)


def _G_sym_fattened(ws: BodyWorkspace) -> int:
    """G_n(S + C_{n-1}) from the height counts f~, which are even in k."""
    ft = ws.profiles.f_tilde
    return ft.get(0, 0) + 2 * sum(v for k, v in ft.items() if k)


def _discrete_zhang_mu_sides(ws: BodyWorkspace) -> tuple[Fraction, Fraction, Fraction]:
    """(lhs, rhs, mu(SK + C)) of the discrete Zhang inequality for the column measure."""
    n = ws.n
    const = Fraction(math.comb(2 * n, n), n**n)
    lhs = const * _mu_moment_exact(ws.anchored, n)
    mu_fat = fattened_mu(ws.asym)
    return lhs, mu_fat ** (n + 1) / Fraction(ws.G_proj) ** n, mu_fat


def _purely_discrete_zhang_sides(ws: BodyWorkspace):
    """(lhs, rhs, m0) of the purely discrete Zhang inequality, m0 a bracket.

    (n+1) B_m(1)^{n+1} / B_m(n+1) = (n+1) h_1(m)^{n+1} / h_{n+1}(m), and
    h_1(m0) = sum_k f~(k) / G defines m0, so the left side is
    top / h_{n+1}(m0), enclosed from m0's bracket (exact when m0 is rational).
    m0 is None when M = 0, where the left side is 0.
    """
    n = ws.n
    pr = ws.profiles
    G = ws.G_proj
    rhs = Fraction(_G_sym_fattened(ws) + pr.f_tilde_at(0)) ** (n + 1) / Fraction(G) ** n
    if pr.M == 0:
        return MeasureValue.from_exact(0), rhs, None
    m0 = _solve_m0(pr, 1)
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


def _theta(params: dict) -> Direction | None:
    """``params["theta"]`` as a ``Direction``, None when it is unset."""
    theta = params.get("theta")
    if theta is None or isinstance(theta, Direction):
        return theta
    try:
        return Direction(tuple(frac(c) for c in theta))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"theta must be a nonzero list of rationals, got {theta!r}") from exc


def check_checker_params(checker_params: dict) -> None:
    """Raise ``ConfigError`` for a checker param of the wrong type or shape,
    whether or not its checker applies to a body (``verify`` checks before a
    checker reads its params); a value of the right shape outside the
    statement's range is the checker's inconclusive row."""
    for params in checker_params.values():
        for key in ("theta", "grid", "pairs", "qs", "ps"):
            value = params.get(key)
            if value is not None and not isinstance(value, (list, tuple, Direction)):
                raise ConfigError(f"checker param {key!r} must be a list, got {value!r}")
        _theta(params)
        if not all(isinstance(pair, (list, tuple)) and len(pair) == 2
                   for pair in params.get("pairs") or ()):
            raise ConfigError(f"pairs are [p, q] lists, got {params['pairs']!r}")
        combos = params.get("combos", 0)
        if isinstance(combos, bool) or not isinstance(combos, int) or combos < 0:
            raise ConfigError(f"combos must be an integer >= 0, got {combos!r}")


def _least_slack_sample(lhs_arr, rhs_arr) -> tuple[int, MeasureValue, MeasureValue]:
    """The sample of least slack rhs - lhs of a comparison sampled in binary64:
    its index and its two sides, each asserted to 1e-9 of both plus 1e-12."""
    import numpy as np

    i = int(np.argmin(rhs_arr - lhs_arr))
    lhs, rhs = float(lhs_arr[i]), float(rhs_arr[i])
    err = 1e-9 * (abs(lhs) + abs(rhs)) + 1e-12
    return i, MeasureValue.approx(lhs, err), MeasureValue.approx(rhs, err)


def _chk_zhang_preintegration(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    const = Fraction(math.comb(2 * n, n), n**n)
    lhs = MeasureValue.from_exact(const * projection_power_moment(ws.section_dist, n).exact)
    rhs = MeasureValue.from_exact(ws.vol ** (n + 1) / ws.volp**n)
    return report("zhang_preintegration", lhs, rhs, route="projection-power")


def _chk_zhang_preintegration_2(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    const = Fraction(math.comb(2 * n, n), n**n)
    mom = slab_moment(ws.section_dist, n)
    lhs = MeasureValue.from_exact(const * mom.exact)
    rhs = MeasureValue.from_exact(ws.vol ** (n + 1) / ws.volp**n)
    return report("zhang_preintegration_2", lhs, rhs, route="symmetral-slab")


def _chk_zhang_directional(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    theta = _theta(params)
    if theta is None or theta.dim != n:
        # checker params apply across a mixed-dimension corpus; a direction of
        # the wrong length falls back to the all-ones default for this body
        theta = Direction(tuple(Fraction(1) for _ in range(n)))
    # both sides divided by |theta.raw|^n: the moment in raw units on the
    # left, h_PiK(theta.raw) = |theta.raw| vol(P_theta K) on the right
    const = Fraction(math.comb(2 * n, n), n**n)
    lhs = MeasureValue.from_exact(const * ray_moment(ws.body, theta, n).exact)
    rhs = MeasureValue.from_exact(ws.vol ** (n + 1) / projection_support(ws.body, theta.raw) ** n)
    return report(
        "zhang_directional", lhs, rhs, theta=[str(c) for c in theta.raw], route="projection-power"
    )


def _chk_discrete_zhang_mu(ws: BodyWorkspace, params: dict) -> InequalityReport:
    lhs, rhs, mu_fat = _discrete_zhang_mu_sides(ws)
    return report(
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
    # the longest vertical section of the body, twice the symmetral's top
    # height, read off its integer vertices
    S = ws.asym
    R = Fraction(2 * max(v[-1] for v in S._V), S._L)
    G = ws.G_proj
    pr = ws.profiles
    gsym = _G_sym_fattened(ws)
    gproj_fat = pr.f_tilde_at(0)
    rhs_val = const * R**n * G + Fraction(gsym + gproj_fat) ** (n + 1) / Fraction(G) ** n
    rhs = MeasureValue.from_exact(rhs_val)
    return report(
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
    return report(
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
        E = section_power_integral(ws.section_dist, p)
        pf = float(p)
        c = math.gamma(n + pf) / (math.gamma(n) * math.gamma(1.0 + pf))
        base = c * E.value / float(ws.volp)
        val = base ** (1.0 / pf)
        err = abs(val) * (E.abs_error / E.value if E.value else 0.0) / abs(pf)
        vals.append((pf, val, err))
    # each pair p1 < p2 compares v2 <= v1, with a slop of 1e-9 |v2| on the left
    pairs = [([p1, p2], MeasureValue.approx(v2, e2 + 1e-9 * abs(v2)), MeasureValue.approx(v1, e1),
              v2, v1) for (p1, v1, e1), (p2, v2, e2) in zip(vals, vals[1:])]
    return chain_report("berwald_continuous", pairs, False, grid=[str(g) for g in grid],
                        chain=[v for _p, v, _e in vals])


def _chk_berwald_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    nn = n - 1
    pairs = [_exponents(pair, increasing=True)
             for pair in params.get("pairs") or [(1, 2), (1, n + 1), (2, 5)]]
    G = ws.G_proj
    diam = ws.diamond_values
    rows = []
    for p, q in pairs:
        # X_q^(1/q) <= X_p^(1/p), compared as X_q^p <= X_p^q; the half lengths
        # of the body's columns to the q-th power sum to its q-th length sum / 2^q
        xq = Fraction(math.comb(nn + q, nn), 2**q) * column_length_sum(ws.anchored, q) / G
        xp = Fraction(math.comb(nn + p, nn)) * sum((v**p for v in diam.values()), _ZERO) / G
        rows.append(([p, q], MeasureValue.from_exact(xq**p), MeasureValue.from_exact(xp**q),
                     float(xq) ** (1.0 / q), float(xp) ** (1.0 / p)))
    return chain_report("berwald_discrete", rows, True, anchor=[str(c) for c in ws.anchor])


def _chk_completely_discrete_berwald(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    pr = ws.profiles
    (p,) = _exponents([params.get("p", 1)])
    qs = _exponents([p, *(params.get("qs") or sorted({p + 1, max(p, n) + 1}))],
                    increasing=True)[1:]
    G = ws.G_proj
    lo, hi = m0 = _solve_m0(pr, p)
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
    return report(
        "completely_discrete_berwald",
        MeasureValue.enclosed(max(lows), max(highs)),
        rhs,
        p=p,
        m0=rhs.value,
        m0_exact=str(lo) if lo == hi else None,
        crossing_point=_crossing_in_bracket(pr, m0),
        per_q=per_q,
        anchor=[str(c) for c in ws.anchor],
    )


def _chk_zhang_volume(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    polar = polar_projection_body(ws.body).volume_fraction()
    lhs = MeasureValue.from_exact(Fraction(math.comb(2 * n, n), n**n))
    rhs = MeasureValue.from_exact(ws.vol ** (n - 1) * polar)
    return report("zhang_volume", lhs, rhs, polar_volume=str(polar))


def _chk_different_inclusion(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    grid = _exponents(params.get("grid") or sorted({0, 1, 2, 3, n}), least=0, increasing=True)
    xs = []
    for p in grid:
        if p == 0:
            xs.append((0, Fraction(n) * ws.vol / ws.volp))
        else:
            mom = slab_moment(ws.section_dist, p).exact
            xs.append((p, Fraction(n) * math.comb(n + p, n) * mom / ws.volp))
    # psi_q = X_q^(1/(q+1)) <= psi_p = X_p^(1/(p+1)), compared as X_q^(p+1) <= X_p^(q+1)
    rows = [([p, q], MeasureValue.from_exact(xq ** (p + 1)),
             MeasureValue.from_exact(xp ** (q + 1)),
             float(xq) ** (1.0 / (q + 1)), float(xp) ** (1.0 / (p + 1)))
            for (p, xp), (q, xq) in zip(xs, xs[1:])]
    return chain_report("different_inclusion", rows, True, grid=grid)


def _chk_mu_gn_sandwich(ws: BodyWorkspace, params: dict) -> InequalityReport:
    mu = mu_measure(ws.body).exact
    gn = count_lattice(ws.body)
    gp = column_count(ws.body)
    lhs = MeasureValue.from_exact(abs(mu - gn))
    rhs = MeasureValue.from_exact(gp)
    return report("mu_gn_sandwich", lhs, rhs, mu=str(mu), G_n=gn, G_proj=gp)


def _chk_identity_triple_continuous(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    ps = _exponents(params.get("ps") or sorted({1, 2, n}))
    per_p = []
    engine = ws.en_engine
    for p in ps:
        # three rationals: they agree exactly or the identity fails
        vals = [engine.moment(p).exact, slab_moment(ws.section_dist, p).exact,
                projection_power_moment(ws.section_dist, p).exact]
        per_p.append({"p": p, "values": vals, "spread": max(vals) - min(vals), "tol": _ZERO})
    worst = max(row["spread"] for row in per_p)
    return report("identity_triple_continuous", MeasureValue.from_exact(worst),
                  MeasureValue.from_exact(_ZERO), per_p=per_p)


def _chk_identity_triple_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    ps = _exponents(params.get("ps") or sorted({1, 2, n}))
    # route B: exact piecewise-linear integration of the column measure of
    # K cap (r e_n + K), read at two nodes per gap between K's column lengths
    # (the kinks of r -> mu) off the overlap's integer rows over K's bounding
    # box, with no hull; route C: column sums over the symmetral
    rows = _overlap_rows(ws.body, axis_direction(n))
    ells = sorted({ell for ell in column_lengths(ws.body).values() if ell > 0})
    pieces = []
    prev = _ZERO
    for brk in ells:
        w = brk - prev
        nodes = (prev + w / 3, prev + 2 * w / 3)
        vals = [_rows_mu(_rows_at(rows, r), ws.body) for r in nodes]
        slope = (vals[1] - vals[0]) / (nodes[1] - nodes[0])
        const = vals[0] - slope * nodes[0]
        pieces.append((prev, brk, const, slope))
        prev = brk
    per_p = []
    worst = _ZERO
    for p in ps:
        a_val = _mu_moment_exact(ws.body, p)
        # route B: p int r^(p-1) mu(r) dr over the linear pieces of mu
        b_val = sum((p * _power_integral([c0, c1], alpha, beta, p - 1)
                     for alpha, beta, c0, c1 in pieces), _ZERO)
        # route C: 2^{p+1} sum h^{p+1} / (p+1) over the symmetral's half lengths h
        c_val = _mu_moment_exact(ws.sym, p)
        vals = (a_val, b_val, c_val)
        worst = max(worst, max(vals) - min(vals))
        per_p.append({"p": p, "values": [str(v) for v in vals], "equal": a_val == b_val == c_val})
    # three rationals: they agree exactly or the identity fails
    return report("identity_triple_discrete", MeasureValue.from_exact(worst),
                  MeasureValue.from_exact(_ZERO), per_p=per_p)


def _chk_ball_inclusion_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    p, q = _exponents([params.get("p", 1), params.get("q", 2)], increasing=True)
    dirs = ws.sample_dirs
    lhs_arr = math.comb(n + q, n) ** (1.0 / q) * ws.sample_radial("discrete", q)
    rhs_arr = math.comb(n + p, n) ** (1.0 / p) * ws.sample_radial("discrete-open-tilde", p)
    i, lhs, rhs = _least_slack_sample(lhs_arr, rhs_arr)
    return report(
        "ball_inclusion_discrete", lhs, rhs, p=p, q=q, directions=len(dirs),
        worst_direction=[float(c) for c in dirs[i]],
    )


def _chk_convexhull_inclusion(ws: BodyWorkspace, params: dict) -> InequalityReport:
    import numpy as np

    (p,) = _exponents([params.get("p", 1)])
    combos = params.get("combos", 200)
    dirs = ws.sample_dirs
    rho = ws.sample_radial("discrete", p)
    pts = rho[:, None] * dirs
    # numpy's default_rng(seed).integers, .integers, .uniform, in that order
    rng = _PCG64(ws.seed ^ 0x5EED)
    ra = rng.integers(0, len(pts), combos)
    rb = rng.integers(0, len(pts), combos)
    rl = rng.uniform(combos)
    idx_a = np.arange(len(pts))
    ia = np.concatenate([idx_a, np.array(ra, dtype=np.intp)])
    ib = np.concatenate([np.roll(idx_a, -1), np.array(rb, dtype=np.intp)])
    ll = np.concatenate([np.full(len(pts), 0.5), np.array(rl, dtype=float)])
    z = ll[:, None] * pts[ia] + (1.0 - ll[:, None]) * pts[ib]
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-9
    z = z[keep]
    norms = norms[keep]
    zdirs = z / norms[:, None]
    rho_t = radial_batch("discrete-open-tilde", ws.body, zdirs, p)
    _i, lhs, rhs = _least_slack_sample(norms, rho_t)
    return report(
        "convexhull_inclusion", lhs, rhs, p=p, combos=int(len(z)), directions=len(dirs)
    )


def _chk_difference_set_inclusion(ws: BodyWorkspace, params: dict) -> InequalityReport:
    n = ws.n
    (p,) = _exponents([params.get("p", 1)])
    dirs = ws.sample_dirs
    lhs_arr = ws.sample_radial("difference-set", None)
    rhs_arr = math.comb(n + p, n) ** (1.0 / p) * ws.sample_radial("discrete-open-tilde", p)
    i, lhs, rhs = _least_slack_sample(lhs_arr, rhs_arr)
    return report(
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
    return sum(((G * b - sum(x * y for x, y in zip(a, ysum))) * w
                for a, b, w in P.facet_weights()),
               _ZERO) / (P.dim * G)


def _chk_volume_identity_discrete(ws: BodyWorkspace, params: dict) -> InequalityReport:
    # every y gives vol(K) by Minkowski's relation sum_F a_F w_F = 0, so the
    # row cross-checks the facet weights against the triangulated volume
    star = _discrete_star_volume(ws.body)
    return report("volume_identity_discrete", MeasureValue.from_exact(abs(star - ws.vol)),
                  MeasureValue.from_exact(_ZERO), star_volume=str(star), volume=str(ws.vol))


def _neg_radial(vertices, raw) -> Fraction:
    """rho_{-K}(raw) = max{t : -t raw in conv(vertices)}, by one exact LP over
    the convex weights lambda_v of the vertices and t:
    lambda >= 0, sum lambda = 1, sum lambda_v v + t raw = 0."""
    m = len(vertices)
    rows = [[-_ONE if k == j else _ZERO for k in range(m + 1)] for j in range(m)]
    rhs = [_ZERO] * m
    equalities = [([_ONE] * m + [_ZERO], _ONE)]
    equalities += [([v[i] for v in vertices] + [raw[i]], _ZERO) for i in range(len(raw))]
    for a, b in equalities:
        rows += [a, [-x for x in a]]
        rhs += [b, -b]
    return lp_solve([_ZERO] * m + [_ONE], rows, rhs).value


def _chk_one_point_collapse(ws: BodyWorkspace, params: dict) -> InequalityReport:
    # both sides as p-th powers, so both stay rational: the lattice-covariogram
    # Ball body (1/G) sum_y rho_y^p over G = 1 point, and rho_{-K}^p
    # read off K's vertices
    n = ws.n
    (p,) = _exponents([params.get("p", 1)])
    G = count_lattice(ws.body)
    test_dirs = []
    for v in ws.body.vertices:
        if any(c != 0 for c in v):
            test_dirs.append(tuple(-c for c in v))
    for i in range(n):
        e = axis_direction(n, i).raw
        test_dirs += [e, tuple(-c for c in e)]
    worst = _ZERO
    details = []
    for raw in test_dirs:
        ball = discrete_moment(ws.body, Direction(raw), p).exact / G
        neg = _neg_radial(ws.body.vertices, raw) ** p
        worst = max(worst, abs(ball - neg))
        details.append({"dir": [str(c) for c in raw], "ball": str(ball), "neg": str(neg)})
    return report("one_point_collapse", MeasureValue.from_exact(worst),
                  MeasureValue.from_exact(_ZERO), p=p, directions=details)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _unless(ok: bool, reason: str):
    """None when a checker's precondition holds, else the reason it does not."""
    return None if ok else reason


def _needs_full_dim(ws: BodyWorkspace):
    """Every checker compares sections or columns over P K, in R^(n-1)."""
    return (_unless(ws.n >= 2, "the statements need dimension n >= 2")
            or _unless(ws.body.is_full_dimensional, "the body is not full-dimensional"))


def _needs_origin(ws: BodyWorkspace):
    return _needs_full_dim(ws) or _unless(ws.origin_inside, "the body does not contain 0")


def _needs_hypotheses(ws: BodyWorkspace):
    return _needs_full_dim(ws) or _unless(
        ws.profiles.satisfies_h, "profile hypotheses (max column at 0, M >= 1) not satisfied")


def _ball_body_applicable(ws: BodyWorkspace):
    return _needs_origin(ws) or _unless(
        ws.n in (2, 3), "Ball-body sample directions are wired for n = 2, 3")


def _vol_identity_applicable(ws: BodyWorkspace):
    return _needs_origin(ws) or _unless(
        ws.n == 2, "discrete volume identity kept to n = 2: criterion 6 pairs it with a 2-d"
        " chord-radial quadrature, and perfbench/reference.json fixes its rows")


def _one_point_applicable(ws: BodyWorkspace):
    return _needs_full_dim(ws) or _unless(
        ws.origin_inside and count_lattice(ws.body) == 1,
        "the lattice set of the body is not exactly {0}")


class CheckerEntry(FrozenRecord):
    __slots__ = _fields = ("run", "applicable", "statement")

    def __init__(self, run, applicable, statement: str):
        _set(self, "run", run)
        _set(self, "applicable", applicable)
        _set(self, "statement", statement)


_REGISTRY: dict[str, CheckerEntry] = {}


def _register(cid, run, applicable, statement):
    _REGISTRY[cid] = CheckerEntry(run, applicable, statement)


_register(
    "zhang_preintegration",
    _chk_zhang_preintegration,
    _needs_full_dim,
    "binom(2n,n)/n^n * n*int_0^inf r^(n-1) vol(K cap (r e_n + K)) dr"
    " <= vol(K)^(n+1) / vol(P K)^n",
)
_register(
    "zhang_preintegration_2",
    _chk_zhang_preintegration_2,
    _needs_full_dim,
    "binom(2n,n)/n^n * 2^n int_{S K} |x_n|^n dx <= vol(K)^(n+1) / vol(P K)^n",
)
_register(
    "zhang_directional",
    _chk_zhang_directional,
    _needs_full_dim,
    "binom(2n,n)/n^n * n*int r^(n-1) vol(K cap (r theta + K)) dr"
    " <= vol(K)^(n+1) / vol(P_theta K)^n, both sides divided by |theta.raw|^n",
)
_register(
    "discrete_zhang_mu",
    _chk_discrete_zhang_mu,
    _needs_full_dim,
    "binom(2n,n)/n^n * n*int r^(n-1) mu(K cap (r e_n + K)) dr"
    " <= mu(S K + open base cube)^(n+1) / G_(n-1)(P K)^n   (column measure mu)",
)
_register(
    "lattice_zhang",
    _chk_lattice_zhang,
    _needs_full_dim,
    "binom(2n,n)/n^n * n*int r^(n-1) G_n(K cap (r e_n + K)) dr <= binom(2n,n)/n^n *"
    " rho_(K-K)(e_n)^n G_(n-1)(P K) + (G_n(S K + base cube) + G_(n-1)(P K + base cube))^(n+1)"
    " / G_(n-1)(P K)^n",
)
_register(
    "purely_discrete_zhang",
    _chk_purely_discrete_zhang,
    _needs_full_dim,
    "(n+1) B_m0(n+1)^-1 / B_m0(1)^-(n+1) * 2^n sum_{x in S K cap Z^n} |x_n|^n"
    " <= (G_n(S K + base cube) + G_(n-1)(P K + base cube))^(n+1) / G_(n-1)(P K)^n",
)
_register(
    "berwald_continuous",
    _chk_berwald_continuous,
    _needs_full_dim,
    "p -> (binom(n-1+p,n-1)/vol(P K) * int ell^p)^(1/p) is nonincreasing"
    " for the concave section-length profile ell",
)
_register(
    "berwald_discrete",
    _chk_berwald_discrete,
    _needs_full_dim,
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
    _needs_full_dim,
    "binom(2n,n)/n^n <= vol(K)^(n-1) * vol(polar projection body of K)",
)
_register(
    "different_inclusion",
    _chk_different_inclusion,
    _needs_full_dim,
    "p -> (n binom(n+p,n) M_p / vol(P K))^(1/(p+1)) is nonincreasing on p >= 0,"
    " M_p the p-th ray moment of the covariogram",
)
_register(
    "mu_gn_sandwich",
    _chk_mu_gn_sandwich,
    _needs_full_dim,
    "|mu(K) - G_n(K)| <= G_(n-1)(P K)",
)
_register(
    "identity_triple_continuous",
    _chk_identity_triple_continuous,
    _needs_full_dim,
    "agreement of the projection-power, ray-moment and symmetral-slab forms of"
    " the continuous moment (p in {1,2,n})",
)
_register(
    "identity_triple_discrete",
    _chk_identity_triple_discrete,
    _needs_full_dim,
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
    """None when the checker's preconditions hold; otherwise the reason.

    The decision is made once per checker and workspace and kept in its memo, so
    the suite's skip of a pair and ``verify``'s guard read one evaluation.
    """
    if cid not in _REGISTRY:
        raise UnknownChecker(cid)
    return ws.memo(("applicability", cid), lambda: _REGISTRY[cid].applicable(ws))


def verify(cid: str, body: Polytope, params: dict | None = None,
           ws: BodyWorkspace | None = None) -> InequalityReport:
    """Run one checker; a violated precondition or an exponent outside the
    statement's range yields an inconclusive report, one of ``HARD_FAILURES``
    a `fails` report, and a param of the wrong shape raises ``ConfigError``."""
    params = dict(params or {})
    check_checker_params({cid: params})
    if ws is None or ws.body is not body:
        ws = BodyWorkspace(body)
    reason = applicability(cid, ws)
    if reason is None:
        try:
            return _REGISTRY[cid].run(ws, params)
        except ExponentOutOfRange as exc:
            reason = str(exc)
        except HARD_FAILURES as exc:
            return hard_failure(cid, exc)
    return inconclusive(cid, reason)


# ---------------------------------------------------------------------------
# scaling-limit sweeps
# ---------------------------------------------------------------------------

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
    workspace to every target of a body, so its volume, projection volume,
    slab moment, anchor and symmetral are computed once.  The two discrete Zhang
    targets read each scale's workspace off it (``BodyWorkspace.scaled``),
    with no hull and no LP per scale; ``gn_volume`` and ``mu_volume`` read
    lam K as ``body.scaled(lam)``, the one image per lam that the scaled
    workspace holds too when the anchor is 0.  Rows report per-scale values; only
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
            rows.append(_row(x, "B_x(p)", _B_exact(frac(x), p, n), ref))
        return rows
    check_lattice_scales(scales)
    ws = body if isinstance(body, BodyWorkspace) else BodyWorkspace(body)
    n = ws.n
    if target == "gn_volume":
        for lam in scales:
            Q = ws.body.scaled(lam)
            rows.append(_row(lam, "G_n/scale^n", Fraction(count_lattice(Q), lam**n), ws.vol))
        return rows
    if target == "mu_volume":
        for lam in scales:
            Q = ws.body.scaled(lam)
            rows.append(_row(lam, "mu/scale^n", mu_measure(Q).exact / lam**n, ws.vol))
        return rows
    if target in ("discrete_to_continuous_zhang", "purely_discrete_to_continuous"):
        const = Fraction(math.comb(2 * n, n), n**n)
        ref_lhs = const * slab_moment(ws.section_dist, n).exact
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
                                 mu_sym ** (n + 1) / Fraction(qws.G_proj) ** n / norm, ref_rhs))
            else:
                lhs, rhs, _m0 = _purely_discrete_zhang_sides(qws)
                rows.append(_row(lam, "lhs", (lhs.value if lhs.exact is None else lhs.exact) / norm,
                                 ref_lhs))
                rows.append(_row(lam, "rhs", rhs / norm, ref_rhs))
        return rows
    raise ValueError(f"unknown sweep target {target!r}")
