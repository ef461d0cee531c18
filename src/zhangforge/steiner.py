"""Exact Steiner symmetrization with respect to the last coordinate hyperplane.

Writing the input's facets as upper (t <= u_i(y)), lower (t >= l_j(y)) and
vertical families, the symmetral is cut out directly by the pair family
+-2t <= u_i(y) - l_j(y) together with the vertical facets, built over
integers from the input's integer rows; the halfspace round trip prunes the
redundant pairs and re-enumerates vertices.  The output is always the closed
symmetral (inputs are compact).
"""

from __future__ import annotations

from .errors import DegenerateBody
from .polytope import Polytope, integer_rows


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
    uppers = []  # (a', p, num, den) meaning  <a',y> + p t <= num/den  with p > 0
    lowers = []
    rows = []  # integer rows (a, num, den)
    for a, num, den in integer_rows(P):
        p = a[-1]
        if p == 0:
            rows.append((a, num, den))
        else:
            (uppers if p > 0 else lowers).append((a[:-1], p, num, den))
    for au, pu, nu, du in uppers:
        for al, pl, nl, dl in lowers:
            # 2 pu (-pl) |t| <= (-pl)(bu - <au,y>) + pu (bl - <al,y>)
            w = -pl
            ay = tuple(w * x + pu * y for x, y in zip(au, al))
            rhs = w * nu * dl + pu * nl * du
            coef = 2 * pu * w
            rows.append((ay + (coef,), rhs, du * dl))
            rows.append((ay + (-coef,), rhs, du * dl))
    Z, D = P._interior  # (y0, 0) is inside S for P's interior point (y0, t0)
    S = Polytope.from_int_rows(rows, P.dim, interior=(Z[:-1] + (0,), D))
    assert S is not None
    return S


def require_x_n_symmetric(S: Polytope) -> None:
    """Raise ``ValueError`` unless S is symmetric in x_n, that is, unless S is
    its own Steiner symmetral."""
    verts = set(S._V)
    if any(v[:-1] + (-v[-1],) not in verts for v in verts):
        raise ValueError("needs a body symmetric in x_n")
