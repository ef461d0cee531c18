"""Exact Steiner symmetrization with respect to the last coordinate hyperplane.

Writing the input's facets as upper (t <= u_i(y)), lower (t >= l_j(y)) and
vertical families, the symmetral is cut out directly by the pair family
+-2t <= u_i(y) - l_j(y) together with the vertical facets; the halfspace
round trip prunes the redundant pairs and re-enumerates vertices.  The output
is always the closed symmetral (inputs are compact).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateBody
from .linalg import integer_points
from .polytope import Polytope

_ZERO = Fraction(0)


def steiner_symmetrize(P: Polytope) -> Polytope:
    """P's Steiner symmetral, one hull, kept as P's memo entry "symmetral".
    ``Polytope.translated`` carries it across a horizontal translate and
    ``Polytope.scaled`` across a scale, so the body anchored by
    ``polytope.max_section_anchor`` reuses the symmetral the anchor was read
    off, and so does each scaled body of the sweeps."""
    return P.memo("symmetral", lambda: _symmetral(P))


def _symmetral(P: Polytope) -> Polytope:
    if not P.is_full_dimensional:
        raise DegenerateBody("Steiner symmetrization needs a full-dimensional body")
    n = P.dim
    uppers = []  # (a', p, b) meaning  <a',y> + p t <= b  with p > 0
    lowers = []
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for a, b in P.halfspaces:
        p = a[-1]
        if p == 0:
            rows.append((a, b))
        elif p > 0:
            uppers.append((a[:-1], p, b))
        else:
            lowers.append((a[:-1], p, b))
    for au, pu, bu in uppers:
        for al, pl, bl in lowers:
            # 2 pu (-pl) |t| <= (-pl)(bu - <au,y>) + pu (bl - <al,y>)
            w = -pl
            ay = tuple(w * au[i] + pu * al[i] for i in range(n - 1))
            rhs = w * bu + pu * bl
            coef = 2 * pu * w
            rows.append((ay + (coef,), rhs))
            rows.append((ay + (-coef,), rhs))
    y0 = P.interior_point[:-1]
    hint = y0 + (_ZERO,)
    S = Polytope.from_halfspaces(rows, n, interior=hint)
    assert S is not None
    return S


def require_x_n_symmetric(S: Polytope) -> None:
    """Raise ``ValueError`` unless S is symmetric in x_n, that is, unless S is
    its own Steiner symmetral."""
    verts = set(integer_points(S.vertices)[0])
    if any(v[:-1] + (-v[-1],) not in verts for v in verts):
        raise ValueError("needs a body symmetric in x_n")
