"""Small dense linear algebra over exact rationals, eliminated over integers.

``rref``, ``det`` and ``mat_inv`` take ``fractions.Fraction`` rows (ints
are accepted too): each row is scaled by the least common multiple of its
denominators, which leaves its solution set and the reduced row echelon
form unchanged, :func:`_bareiss` eliminates fraction-free (Bareiss, Math.
Comp. 1968), and a ``Fraction`` is built only for each returned entry.  The
other helpers take and return integers; every rank is counted by
:func:`independent_rows`.  The systems are tiny (dimension <= 5 or so), so
no pivoting heuristic beyond exact nonzero selection is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def common_denominator(xs) -> int:
    """Least common multiple of the denominators of the rationals ``xs``."""
    den = 1
    for x in xs:
        q = x.denominator
        if q != 1:
            den = den * q // gcd(den, q)
    return den


def integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """The points as integer numerators over one positive common denominator L;
    points of ``int``s are taken as they are, over 1."""
    if all(type(x) is int for p in points for x in p):
        return list(map(tuple, points)), 1
    den = common_denominator(x for p in points for x in p)
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points], den


def integer_row(xs) -> tuple[list[int], int]:
    """(numerators over L, L) for L = :func:`common_denominator` of ``xs``."""
    den = common_denominator(xs)
    return [x.numerator * (den // x.denominator) for x in xs], den


def integer_pivot(m: list[list[int]], r: int, c: int, prev: int) -> int:
    """Integer-preserving pivot on m[r][c] = p, in place; returns p.

    Every other row becomes (p * row - row[c] * m[r]) / prev, an exact division
    when ``prev`` is the previous pivot (Bareiss; Edmonds), so ``m`` stays p
    times the rational tableau with unit column c.
    """
    prow = m[r]
    p = prow[c]
    for i in range(len(m)):
        if i == r:
            continue
        row = m[i]
        f = row[c]
        if f:
            m[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        elif p != prev:
            m[i] = [p * x // prev for x in row]
    return p


def _bareiss(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer matrix ``m`` in place.

    Each step makes an :func:`integer_pivot` on the first nonzero entry of the
    next column.  On return the pivot rows come first, each pivot column is D
    times a unit column, and the remaining rows are zero, so ``m`` / D is the
    reduced row echelon form.  Returns (pivot columns, D, sign of the row
    permutation).
    """
    nrow = len(m)
    ncol = len(m[0]) if nrow else 0
    pivots: list[int] = []
    prev = 1
    sign = 1
    r = 0
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prev = integer_pivot(m, r, c, prev)
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return pivots, prev, sign


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    m = [integer_row(r)[0] for r in rows]
    pivots, D, _ = _bareiss(m)
    return [[Fraction(x, D) for x in row] for row in m], pivots


def _null_vectors(m: list[list[int]], n: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """(pivot columns, null vectors) of the integer matrix ``m`` with n
    columns, eliminated in place by :func:`_bareiss`.  One primitive integer
    vector per free column c, ascending: the positive multiple of the
    rational basis vector with x_c = 1 read off the reduced row echelon form."""
    pivots, D, _ = _bareiss(m)
    s = 1 if D > 0 else -1
    vectors = []
    for c in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[c] = s * D
        for row, pc in zip(m, pivots):
            x[pc] = -s * row[c]
        vectors.append(primitive_int(x))
    return pivots, vectors


def det_int(m: list[list[int]]) -> int:
    """Determinant of a small square integer matrix (cofactor expansion)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return sum(
        (-1) ** k * m[0][k] * det_int([row[:k] + row[k + 1:] for row in m[1:]])
        for k in range(n)
        if m[0][k]
    )


def det(rows) -> Fraction:
    """Determinant: Bareiss elimination of the rows scaled to integers (exact)."""
    n = len(rows)
    m = []
    scale = 1
    for r in rows:
        ints, den = integer_row(r)
        m.append(ints)
        scale *= den
    pivots, D, sign = _bareiss(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * D, scale)


def mat_inv(rows) -> list[Vec] | None:
    """Inverse matrix, or None if singular."""
    n = len(rows)
    m = []
    for i, r in enumerate(rows):
        ints, den = integer_row(r)
        m.append(ints + [den if i == j else 0 for j in range(n)])
    pivots, D, _ = _bareiss(m)
    if pivots != list(range(n)):
        return None
    return [tuple(Fraction(x, D) for x in m[i][n:]) for i in range(n)]


def primitive_int(a) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries; the sign is kept."""
    g = gcd(*a)
    if g <= 1:
        return tuple(a)
    return tuple(v // g for v in a)


def independent_rows(vectors) -> list[int]:
    """Indices of a maximal linearly independent subset of integer vectors
    (greedy, deterministic).

    One incremental fraction-free elimination: each vector is reduced
    against the rows kept so far, in order, and kept when something is left.
    """
    idx = []
    rows: list[tuple[int, tuple[int, ...]]] = []  # (pivot column, row)
    for i, v in enumerate(vectors):
        if len(rows) == len(v):
            break
        for c, row in rows:
            f = v[c]
            if f:
                p = row[c]
                v = [p * x - f * y for x, y in zip(v, row)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            rows.append((c, primitive_int(v)))
            idx.append(i)
    return idx


def affine_basis(points) -> list[int]:
    """Indices of a maximal affinely independent subset of integer points
    (greedy, deterministic): 0 and the :func:`independent_rows` of the
    differences points[i] - points[0]."""
    if not points:
        return []
    origin = points[0]
    return [0] + [i + 1 for i in independent_rows(
        [x - y for x, y in zip(p, origin)] for p in points[1:])]
