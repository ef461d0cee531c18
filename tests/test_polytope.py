import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhangforge import (
    Direction,
    Polytope,
    axis_direction,
    difference_body,
    intersect,
    make_polytope,
    max_section_anchor,
    minkowski_sum,
    polar_projection_body,
    project_drop_last,
    projection_volume,
    slice_at_height,
    transform,
    translate,
    vertical_section,
    volume,
)
from zhangforge.errors import DegenerateBody, DimensionMismatch, Unbounded
from zhangforge.linalg import det, integer_row
from zhangforge.polytope import _panel_sweep, parametric_volume, polytope_to_json

F = Fraction


class TestConstruction:
    def test_triangle(self, triangle):
        assert triangle.affine_dim == 2
        assert len(triangle.halfspaces) == 3
        assert len(triangle.vertices) == 3

    def test_collinear_points_make_segment(self):
        seg = make_polytope([(0, 0), (1, 0), (2, 0)], 2)
        assert seg.affine_dim == 1
        assert seg.vertices == ((F(0), F(0)), (F(2), F(0)))

    def test_3simplex_facets(self, simplex3):
        assert len(simplex3.halfspaces) == 4
        assert simplex3.affine_dim == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_polytope([(0, 0), (1, 0, 0)], 2)

    def test_interior_points_are_not_vertices(self):
        P = make_polytope([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)], 2)
        assert len(P.vertices) == 4

    def test_halfspace_roundtrip(self, unit_square):
        Q = Polytope.from_halfspaces(unit_square.halfspaces, 2)
        assert Q == unit_square

    def test_redundant_halfspaces_pruned(self, unit_square):
        rows = list(unit_square.halfspaces) + [((F(1), F(0)), F(5))]
        Q = Polytope.from_halfspaces(rows, 2)
        assert Q == unit_square
        assert len(Q.halfspaces) == 4


class TestVolume:
    def test_square(self, unit_square):
        assert volume(unit_square).exact == 1

    def test_triangle(self, triangle):
        assert volume(triangle).exact == F(1, 2)

    def test_difference_body_triangle(self, triangle):
        # shoelace on the hexagon conv{+-(1,0), +-(0,1), +-(1,-1)}
        D = difference_body(triangle)
        assert len(D.vertices) == 6
        assert volume(D).exact == 3

    @pytest.mark.parametrize("n", [2, 3])
    def test_rogers_shephard_equality_for_simplices(self, n):
        pts = [tuple(F(0) for _ in range(n))]
        pts += [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
        T = make_polytope(pts, n)
        ratio = volume(difference_body(T)).exact / volume(T).exact
        assert ratio == math.comb(2 * n, n)

    def test_monte_carlo_oracle(self, triangle, simplex3):
        rng = np.random.default_rng(123)
        for P in (triangle, simplex3):
            box = P.bounding_box()
            lo = np.array([float(a) for a, _ in box])
            hi = np.array([float(b) for _, b in box])
            pts = rng.uniform(lo, hi, size=(100_000, P.dim))
            A = np.array([[float(x) for x in a] for a, _ in P.halfspaces])
            b = np.array([float(bb) for _, bb in P.halfspaces])
            inside = np.all(pts @ A.T <= b + 1e-12, axis=1)
            boxvol = float(np.prod(hi - lo))
            est = boxvol * inside.mean()
            sigma = boxvol * inside.std() / math.sqrt(len(pts))
            assert abs(est - float(volume(P).exact)) < 3 * sigma


def _zhang_product(P):
    n = P.dim
    return volume(P).exact ** (n - 1) * volume(polar_projection_body(P)).exact


class TestPolarProjectionBody:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_is_the_equality_case(self, n):
        pts = [tuple(F(0) for _ in range(n))]
        pts += [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
        assert _zhang_product(make_polytope(pts, n)) == F(math.comb(2 * n, n), n**n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_cube(self, n):
        pts = [tuple(F((i >> k) & 1) for k in range(n)) for i in range(2**n)]
        assert _zhang_product(make_polytope(pts, n)) == F(2**n, math.factorial(n))

    def test_cross_polytope_4d(self):
        pts = [tuple(F(s if j == i else 0) for j in range(4)) for i in range(4) for s in (1, -1)]
        assert _zhang_product(make_polytope(pts, 4)) == F(11, 12)


class TestIntersection:
    def test_half_overlap(self, unit_square):
        Q = intersect(unit_square, translate(unit_square, (F(1, 2), 0)))
        assert volume(Q).exact == F(1, 2)

    def test_touching_gives_degenerate(self, unit_square):
        Q = intersect(unit_square, translate(unit_square, (1, 0)))
        assert Q.affine_dim == 1
        assert volume(Q).exact == 0

    def test_disjoint_gives_none(self, unit_square):
        assert intersect(unit_square, translate(unit_square, (3, 0))) is None

    def test_slab(self, big_square):
        Q = intersect(big_square, translate(big_square, (1, 0)))
        assert volume(Q).exact == 2

    def test_covariogram_monotone_along_ray(self, triangle, big_square):
        for P in (triangle, big_square):
            vols = []
            for k in range(8):
                r = F(k, 5)
                Q = intersect(P, translate(P, (r, F(r, 3))))
                vols.append(volume(Q).exact if Q is not None else F(0))
            assert all(a >= b for a, b in zip(vols, vols[1:]))


class TestMinkowskiAndProjections:
    def test_square_doubling(self, unit_square):
        S = minkowski_sum(unit_square, unit_square)
        assert volume(S).exact == 4

    def test_point_translation_identity(self, triangle):
        pt = make_polytope([(3, 5)], 2)
        assert minkowski_sum(triangle, pt) == translate(triangle, (3, 5))

    def test_projection_examples(self, triangle, unit_square, simplex3):
        assert project_drop_last(unit_square).vertices == ((F(0),), (F(1),))
        assert project_drop_last(triangle).vertices == ((F(0),), (F(1),))
        assert project_drop_last(simplex3) == make_polytope([(0, 0), (1, 0), (0, 1)], 2)

    def test_projection_commutes_with_minkowski(self, triangle, unit_square, simplex3):
        pairs = [(triangle, unit_square), (simplex3, simplex3)]
        for P, Q in pairs:
            left = project_drop_last(minkowski_sum(P, Q))
            right = minkowski_sum(project_drop_last(P), project_drop_last(Q))
            assert left == right


class TestSectionsAndSlices:
    def test_triangle_section(self, triangle):
        seg = vertical_section(triangle, (F(1, 2),))
        assert (seg.lo, seg.hi) == (0, F(1, 2))
        assert seg.length == F(1, 2)

    def test_empty_section(self, unit_square):
        assert vertical_section(unit_square, (2,)) is None

    def test_sym_square_section(self, sym_square):
        seg = vertical_section(sym_square, (0,))
        assert (seg.lo, seg.hi) == (-1, 1)

    def test_slices(self, unit_square, sym_square):
        sl = slice_at_height(sym_square, 1)
        assert sl.vertices == ((F(-1),), (F(1),))
        assert slice_at_height(unit_square, 3) is None

    def test_section_matches_symmetral_slice_membership(self, triangle):
        from zhangforge.steiner import steiner_symmetrize

        S = steiner_symmetrize(triangle)
        for k in range(1, 100):
            y = F(k, 100)
            seg = vertical_section(triangle, (y,))
            half = seg.length / 2
            for t in (half / 2, -half / 2):
                sl = slice_at_height(S, t)
                assert sl is not None and sl.contains((y,)) == (abs(t) <= half)


class TestProjectionVolume:
    def test_axis(self, unit_square, triangle):
        e2 = axis_direction(2)
        assert projection_volume(unit_square, e2).exact == 1
        assert projection_volume(triangle, e2).exact == 1

    def test_diagonal_shadow(self, unit_square):
        pv = projection_volume(unit_square, Direction((1, 1)))
        assert pv.exact is None
        assert abs(pv.value - math.sqrt(2)) < 1e-12

    def test_degenerate_raises(self):
        seg = make_polytope([(0, 0), (1, 0)], 2)
        with pytest.raises(DegenerateBody):
            projection_volume(seg, axis_direction(2))


class TestTransform:
    def test_scaling(self, unit_square):
        assert volume(transform(unit_square, [[2, 0], [0, 2]], [0, 0])).exact == 4

    def test_shear_preserves_volume(self, unit_square):
        assert volume(transform(unit_square, [[1, 1], [0, 1]], [0, 0])).exact == 1

    def test_negation(self, triangle):
        N = transform(triangle, [[-1, 0], [0, -1]], [0, 0])
        assert set(N.vertices) == {(F(0), F(0)), (F(-1), F(0)), (F(0), F(-1))}


# lower-dimensional bodies next to the corpus: a segment and a point in the
# plane, a segment, a triangle and a flat square in space
_FLAT_BODIES = [
    ([(0, 0), (1, Fraction(1, 2))], 2),
    ([(Fraction(1, 3), 1)], 2),
    ([(0, 0, 0), (1, 2, 3)], 3),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 1)], 3),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
]


def _image_bodies():
    """The 14 corpus bodies and the flat ones, each with its volume read."""
    from zhangforge.harness import default_corpus, make_body

    bodies = [(spec.name, make_body(spec)) for spec in default_corpus()]
    bodies += [(f"flat{k}", Polytope.from_points(pts, n)) for k, (pts, n) in enumerate(_FLAT_BODIES)]
    assert len(bodies) == 14 + len(_FLAT_BODIES)
    assert sum(not P.is_full_dimensional for _name, P in bodies) == len(_FLAT_BODIES)
    for _name, P in bodies:
        P.volume_fraction()  # carried across
    return bodies


def _images_without_hull_or_lp(monkeypatch, bodies, image):
    """``image(P)`` per body, with every hull and LP of the polytope layer refused."""
    import zhangforge.polytope as poly

    def refuse(*_args, **_kwargs):
        raise AssertionError("the image built a hull or solved an LP")

    with monkeypatch.context() as m:
        for name in ("convex_hull", "lp_solve", "max_slack_point"):
            m.setattr(poly, name, refuse)
        return [image(P) for _name, P in bodies]


def _assert_same_image(Q, T, name):
    """Q and T with the same vertices, rows, triangulation and interior pair,
    each as integers over its least denominator, and that pair in T."""
    from zhangforge.polytope import integer_rows

    assert Q.affine_dim == T.affine_dim, name
    assert (Q._V, Q._L, Q._tri, Q._interior) == (T._V, T._L, T._tri, T._interior), name
    assert integer_rows(Q) == integer_rows(T) and Q.halfspaces == T.halfspaces, name
    assert T.contains(_interior(T)), name


@pytest.mark.parametrize("lam", [2, 3, 7])
def test_scaled_equals_transform_by_lam_identity(lam, monkeypatch):
    # lam P through the integer map, with no hull and no LP, flat bodies too
    bodies = _image_bodies()
    images = _images_without_hull_or_lp(monkeypatch, bodies, lambda P: P.scaled(lam))
    for (name, P), Q in zip(bodies, images):
        n = P.dim
        T = transform(P, [[lam * int(i == j) for j in range(n)] for i in range(n)], [0] * n)
        assert Q.affine_dim == P.affine_dim, name
        _assert_same_image(Q, T, name)
        assert Q.volume_fraction() == T.volume_fraction() == lam**n * P.volume_fraction(), name


@pytest.mark.parametrize("kind", ["mixed", "horizontal", "vertical"])
def test_translated_equals_transform_by_identity(kind, monkeypatch):
    # P + t through the same integer map, with no hull and no LP, flat bodies
    # too: t with mixed denominators, an integer horizontal t (its numerators
    # need no reduction) and a vertical t
    def shift(n):
        return {"mixed": (F(1, 2), F(-2, 3), F(5, 6))[3 - n:],
                "horizontal": (2,) * (n - 1) + (0,),
                "vertical": (0,) * (n - 1) + (F(-7, 4),)}[kind]

    bodies = _image_bodies()
    assert {P.dim for _name, P in bodies} == {2, 3}
    images = _images_without_hull_or_lp(monkeypatch, bodies, lambda P: P.translated(shift(P.dim)))
    for (name, P), Q in zip(bodies, images):
        n = P.dim
        T = transform(P, [[int(i == j) for j in range(n)] for i in range(n)], shift(n))
        assert Q.affine_dim == P.affine_dim, name
        _assert_same_image(Q, T, name)
        assert Q.volume_fraction() == T.volume_fraction() == P.volume_fraction(), name


def _read(P, key):
    """P's memo entry ``key``, read through the program's own route."""
    from zhangforge.lattice import _column_walk, fattening
    from zhangforge.polytope import _integer_weights
    from zhangforge.steiner import steiner_symmetrize

    if isinstance(key, tuple):
        kind, k = key
        return fattening(P, k) if kind == "fattening" else _column_walk(P, k)
    return {"volume": Polytope.volume_fraction, "facet_weights": Polytope.facet_weights,
            "int_weights": _integer_weights, "symmetral": steiner_symmetrize}[key](P)


def _memo_keys(P) -> set:
    """Every memo key P can hold: a flat P has no facet weights and no symmetral."""
    keys = {"volume", *(("fattening", k) for k in range(1, P.dim)),
            *(("columns", k) for k in range(P.dim))}
    if P.is_full_dimensional:
        keys |= {"facet_weights", "int_weights", "symmetral"}
    return keys


def _exact(value):
    """A memo value as plain data; a polytope (the symmetral) as its vertices,
    halfspaces, integer rows, boundary triangulation and interior point."""
    from zhangforge.polytope import integer_rows

    if isinstance(value, Polytope):
        return (value.vertices, value.halfspaces, integer_rows(value), _tri(value),
                _interior(value))
    return value


def _tri(P):
    """P's boundary triangulation with its points as rationals, (points,
    simplices); None for a lower-dimensional P."""
    if P._tri is None:
        return None
    points, den, simplices = P._tri
    return tuple(tuple(F(x, den) for x in p) for p in points), simplices


def _interior(P):
    """P's interior point as rationals, from its integer pair (Z, D)."""
    Z, D = P._interior
    return tuple(F(z, D) for z in Z)


def _carry_faults(bodies) -> list:
    """(body, map, key) for each memo entry of a horizontal translate, a
    non-horizontal translate and the scales 2 and 3 of a filled body that is
    not exactly the entry a fresh build gives on the hull of the image's
    vertices, or that ``_CARRY`` has no rule for under that map; key "rows"
    when the image's vertices or integer rows are not the fresh build's."""
    from zhangforge.polytope import _CARRY, integer_rows

    faults = []
    for name, P in bodies:
        n = P.dim
        for key in _memo_keys(P):
            _read(P, key)
        assert set(P._memo) == _memo_keys(P), name
        images = [
            ("horizontal", ("translate", "horizontal"),
             P.translated((F(1, 2),) * (n - 1) + (F(0),))),
            ("vertical", ("translate",), P.translated((F(-1, 2),) * (n - 1) + (F(1, 3),))),
            ("scale2", ("scale",), P.scaled(2)),
            ("scale3", ("scale",), P.scaled(3)),
        ]
        for label, maps, Q in images:
            carried = {key for key, rules in _CARRY.items()
                       if key in P._memo and any(m in rules for m in maps)}
            faults += [(name, label, key) for key in set(Q._memo) ^ carried]
            fresh = make_polytope(Q.vertices, n)
            if (Q.vertices, integer_rows(Q)) != (fresh.vertices, integer_rows(fresh)):
                faults.append((name, label, "rows"))
            faults += [(name, label, key) for key in set(Q._memo) & carried
                       if _exact(Q._memo[key]) != _exact(_read(fresh, key))]
    return faults


def _carry_bodies():
    from zhangforge.harness import default_corpus, make_body

    bodies = [(spec.name, make_body(spec)) for spec in default_corpus()]
    return bodies + [(f"flat{k}", make_polytope(pts, n))
                     for k, (pts, n) in enumerate(_FLAT_BODIES)]


def test_each_carried_memo_entry_equals_a_fresh_build():
    # the 14 corpus bodies and the flat ones, every memo key filled
    bodies = _carry_bodies()
    assert len(bodies) == 14 + len(_FLAT_BODIES)
    assert _carry_faults(bodies) == []


def test_a_dilate_built_before_the_memo_takes_the_carried_entries():
    # lam P is read once on an empty memo, P's memo is filled, and lam P is
    # read again: the same object, now holding every scale carry of P's
    # entries, each equal to a fresh build, as its integer rows are
    from zhangforge.polytope import _CARRY, integer_rows

    for name, P in _carry_bodies():
        early = {lam: P.scaled(lam) for lam in (2, 3)}
        assert all(not Q._memo for Q in early.values()), name
        for key in _memo_keys(P):
            _read(P, key)
        carried = {key for key, rules in _CARRY.items() if "scale" in rules and key in P._memo}
        assert carried >= {"volume"}, name
        for lam, Q in early.items():
            assert P.scaled(lam) is Q, name
            assert set(Q._memo) == carried, name
            fresh = make_polytope(Q.vertices, P.dim)
            assert integer_rows(Q) == integer_rows(fresh), (name, lam)
            for key in carried:
                assert _exact(Q._memo[key]) == _exact(_read(fresh, key)), (name, lam, key)


def test_a_wrong_carry_rule_is_caught(monkeypatch):
    # the symmetral carried across every translate, the vertical one too
    from zhangforge.polytope import _CARRY

    rules = dict(_CARRY["symmetral"], translate=lambda S, t, _n: S.translated(t))
    monkeypatch.setitem(_CARRY, "symmetral", rules)
    faults = _carry_faults([("triangle", make_polytope([(0, 0), (2, 0), (0, 1)], 2))])
    assert faults == [("triangle", "vertical", "symmetral")]


def test_translate_by_a_vector_of_the_wrong_length_raises(unit_square):
    # the vector is not cut to the body's dimension
    for t in [(1,), (1, 2, 3)]:
        with pytest.raises(DimensionMismatch):
            translate(unit_square, t)
    with pytest.raises(DimensionMismatch):
        transform(unit_square, [[1, 0], [0, 1]], [1, 2, 3])


class TestAnchor:
    def test_examples(self, unit_square, triangle):
        assert max_section_anchor(unit_square) == (F(0),)
        assert max_section_anchor(triangle) == (F(0),)
        assert max_section_anchor(translate(unit_square, (3, 0))) == (F(3),)


class TestSerialization:
    def test_roundtrip(self, triangle, simplex3):
        for P in (triangle, simplex3):
            doc = polytope_to_json(P)
            assert set(doc) == {"dim", "vertices", "halfspaces"}
            pts = [tuple(F(n, d) for n, d in v) for v in doc["vertices"]]
            Q = make_polytope(pts, doc["dim"])
            assert Q == P and Q.halfspaces == P.halfspaces


coord = st.integers(-4, 4).map(lambda n: F(n, 2))
point2 = st.tuples(coord, coord)


@settings(max_examples=30, deadline=None)
@given(st.lists(point2, min_size=3, max_size=8))
def test_hull_contains_all_points(pts):
    P = make_polytope(pts, 2)
    for x in pts:
        assert P.contains(x)


@settings(max_examples=30, deadline=None)
@given(st.lists(point2, min_size=3, max_size=7), st.integers(1, 3), st.integers(-2, 2))
def test_volume_scales_with_determinant(pts, s, t):
    P = make_polytope(pts, 2)
    A = [[F(s), F(t)], [F(0), F(1)]]
    Q = transform(P, A, [F(1, 3), F(-2, 5)])
    assert volume(Q).exact == abs(F(s)) * volume(P).exact


@settings(max_examples=20, deadline=None)
@given(st.lists(point2, min_size=3, max_size=6), st.lists(point2, min_size=3, max_size=6))
def test_projection_minkowski_commute_random(p1, p2):
    P, Q = make_polytope(p1, 2), make_polytope(p2, 2)
    assert project_drop_last(minkowski_sum(P, Q)) == minkowski_sum(
        project_drop_last(P), project_drop_last(Q)
    )


class TestDimensionFour:
    def test_hypercube(self):
        pts = [tuple(F((i >> k) & 1) for k in range(4)) for i in range(16)]
        C = make_polytope(pts, 4)
        assert volume(C).exact == 1
        assert len(C.halfspaces) == 8
        assert project_drop_last(C) == make_polytope(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 3
        )

    def test_cross_polytope(self):
        pts = []
        for i in range(4):
            for s in (1, -1):
                pts.append(tuple(F(s if j == i else 0) for j in range(4)))
        X = make_polytope(pts, 4)
        assert volume(X).exact == F(2, 3)  # 2^4 / 4!
        assert len(X.halfspaces) == 16
        cube4 = make_polytope(
            [tuple(F((i >> k) & 1) for k in range(4)) for i in range(16)], 4
        )
        assert projection_volume(cube4, axis_direction(4)).exact == 1


class TestDegenerateHalfspacePaths:
    def test_point_from_halfspaces(self):
        rows = []
        for i in range(2):
            e = [F(0), F(0)]
            e[i] = F(1)
            rows.append((tuple(e), F(3)))
            rows.append((tuple(-x for x in e), F(-3)))
        P = Polytope.from_halfspaces(rows, 2)
        assert P.affine_dim == 0 and P.vertices == ((F(3), F(3)),)

    def test_segment_from_halfspaces(self):
        rows = [
            ((F(0), F(1)), F(0)), ((F(0), F(-1)), F(0)),  # y = 0
            ((F(1), F(0)), F(2)), ((F(-1), F(0)), F(1)),  # -1 <= x <= 2
        ]
        P = Polytope.from_halfspaces(rows, 2)
        assert P.affine_dim == 1
        assert P.vertices == ((F(-1), F(0)), (F(2), F(0)))

    def test_infeasible_from_halfspaces(self):
        rows = [((F(1),), F(0)), ((F(-1),), F(-1))]
        assert Polytope.from_halfspaces(rows, 1) is None

    def test_unbounded_rows_have_a_flat_dual(self):
        # the dual points of x >= 0, y >= 0 span no plane
        rows = [((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]
        with pytest.raises(Unbounded) as info:
            Polytope.from_halfspaces(rows, 2, interior=(F(1), F(1)))
        assert isinstance(info.value.__cause__, DegenerateBody)

    def test_a_hull_fault_is_not_reported_as_unbounded(self, monkeypatch):
        # a kernel check that fires inside the dual hull surfaces as itself,
        # in the unrolled d = 3 loop (a zero normal has gcd 0) and in the
        # generic loop (a zero cofactor normal)
        import zhangforge.hull as hull

        faults = {3: ("gcd", lambda *a: 0), 4: ("_normal", lambda edges: [0] * (len(edges) + 1))}
        for dim, (name, fake) in faults.items():
            cube = [(tuple(F(s * int(i == j)) for j in range(dim)), F(1))
                    for i in range(dim) for s in (1, -1)]
            with monkeypatch.context() as m:
                m.setattr(hull, name, fake)
                with pytest.raises(ValueError, match="degenerate facet points"):
                    Polytope.from_halfspaces(cube, dim)


def test_scipy_hull_cross_check():
    rng = np.random.default_rng(2024)
    from scipy.spatial import ConvexHull

    for dim in (2, 3):
        for trial in range(4):
            raw = rng.integers(-8, 9, size=(9, dim))
            pts = [tuple(F(int(v), 2) for v in row) for row in raw]
            P = make_polytope(pts, dim)
            if P.affine_dim < dim:
                continue
            hull = ConvexHull(np.array(raw, dtype=float) / 2.0)
            assert abs(float(volume(P).exact) - hull.volume) < 1e-9
            assert len(P.vertices) == len(hull.vertices)


def _symmetral_slice_family(P):
    """Rows, shifts and panels of u -> {y : ell(y) >= u}, the symmetral's slice at u/2."""
    from zhangforge.steiner import steiner_symmetrize

    S = steiner_symmetrize(P)
    heads = [(a, b) for a, b in S.halfspaces if any(a[:-1])]
    breaks = sorted({2 * v[-1] for v in S.vertices if v[-1] >= 0} | {F(0)})
    return ([(a[:-1], b) for a, b in heads], [-a[-1] / 2 for a, _b in heads],
            list(zip(breaks, breaks[1:])))


def _int_rows(rows, shifts):
    """The rows <a, x> <= b + t c as the integer rows (A, B, C) that
    ``parametric_volume`` reads."""
    return [integer_row(list(a) + [b, c])[0] for (a, b), c in zip(rows, shifts)]


def _slice_sweep(P):
    """u -> vol{ell >= u} by one ``parametric_volume`` sweep of the symmetral's
    slices: one piece per maximal interval of one slice type."""
    rows, shifts, panels = _symmetral_slice_family(P)
    ints = _int_rows(rows, shifts)
    return _panel_sweep(lambda lo, hi: parametric_volume(ints, lo, hi),
                        F(0), panels[-1][1])


def _overlap_family(P, raw):
    """Rows, shifts and panels of r -> K cap (K + r raw)."""
    from zhangforge.moments import ray_breakpoints, ray_support

    theta = Direction(raw)
    R, _ = ray_support(P, theta)
    breaks = [F(0)] + ray_breakpoints(P, theta, R)
    shifts = [F(0)] * len(P.halfspaces) + [sum(x * y for x, y in zip(a, theta.raw))
                                           for a, _b in P.halfspaces]
    return list(P.halfspaces) * 2, shifts, list(zip(breaks, breaks[1:]))


def _poly(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("dim, raw", [(2, (1, 2)), (3, (1, 2, 2))])
def test_parametric_volume_against_full_hulls(dim, raw):
    # away from the interpolation nodes, each panel's polynomial equals the
    # volume of the body built from scratch at that parameter
    from zhangforge.harness import BodySpec, make_body

    for seed in range(3):
        P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": seed}))
        for rows, shifts, panels in (_symmetral_slice_family(P), _overlap_family(P, raw)):
            for lo, hi in panels:
                coeffs, start, end = parametric_volume(_int_rows(rows, shifts), lo, hi)
                assert (start, end) == (lo, hi), (seed, lo, hi)
                for t in (lo + (hi - lo) / 5, lo + 5 * (hi - lo) / 7):
                    Q = Polytope.from_halfspaces(
                        [(a, b + t * c) for (a, b), c in zip(rows, shifts)], len(rows[0][0]))
                    assert _poly(coeffs, t) == Q.volume_fraction(), (seed, t)


def test_parametric_volume_rejects_a_kink_left_of_the_midpoint():
    # merging two panels with different polynomials, the shared break left of
    # the merged midpoint: the midpoint's polynomial is the right panel's, and
    # its interval must stop exactly at the break.  A panel centred on the
    # break puts a splitting vertex at the midpoint: the interval is that point.
    from zhangforge.harness import BodySpec, make_body

    merged = 0
    for dim in (2, 3):
        for seed in range(4):
            P = make_body(BodySpec("random_hull", dim, {"count": 6, "radius": 2, "seed": seed}))
            rows, shifts, _panels = _symmetral_slice_family(P)
            ints = _int_rows(rows, shifts)
            pieces = _slice_sweep(P)
            for (a, b, left), (_b, c, right) in zip(pieces, pieces[1:]):
                if left != right and b - a < c - b:
                    assert parametric_volume(ints, a, c) == (right, b, c), (dim, seed, b)
                    assert parametric_volume(ints, a, 2 * b - a)[1:] == (b, b), (dim, seed)
                    merged += 1
    assert merged >= 3


def _count_hulls(monkeypatch):
    import zhangforge.polytope as poly

    calls = []
    real = poly.convex_hull

    def counted(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(poly, "convex_hull", counted)
    return calls


def test_one_hull_per_full_dimensional_from_halfspaces(monkeypatch):
    from zhangforge.harness import BodySpec, make_body

    bodies = [make_polytope([(0,), (F(3, 2),)], 1)]
    bodies += [make_body(BodySpec("random_hull", dim, {"count": dim + 4, "radius": 2, "seed": 7}))
               for dim in (2, 3, 4)]
    calls = _count_hulls(monkeypatch)
    for P in bodies:
        before = len(calls)
        (a, b), *_ = P.halfspaces
        Q = Polytope.from_halfspaces(list(P.halfspaces) + [(a, b + 1)], P.dim)
        assert Q == P and len(calls) == before + 1


def test_facet_weights_and_repeated_fattenings_build_no_hull(monkeypatch):
    # facet weights are read off the boundary triangulation, and a
    # full-dimensional body is fattened one segment at a time from its faces
    from zhangforge.harness import BodySpec, make_body
    from zhangforge.lattice import fattening

    specs = [BodySpec("random_hull", dim, {"count": dim + 4, "radius": 2, "seed": s})
             for dim in (2, 3, 4) for s in (11, 12)]
    bodies = [make_body(spec) for spec in specs]
    calls = _count_hulls(monkeypatch)
    for P in bodies:
        P.facet_weights()
        for k in range(1, P.dim + 1):
            fattening(P, k).facet_weights()
    assert calls == []


def test_invertible_affine_images_build_no_hull(monkeypatch):
    from zhangforge.harness import BodySpec, make_body

    bodies = [make_body(BodySpec("random_hull", dim, {"count": dim + 4, "radius": 2, "seed": 5}))
              for dim in (1, 2, 3, 4)]
    calls = _count_hulls(monkeypatch)
    for P in bodies:
        n = P.dim
        A = [[F(i + 1, j + 2) if i != j else F(3) for j in range(n)] for i in range(n)]
        Q = transform(P, A, [F(1, 3)] * n)
        assert Q.volume_fraction() == abs(det(A)) * P.volume_fraction()
    assert calls == []


def test_one_hull_per_ray_engine_panel(monkeypatch):
    import zhangforge.moments as mom
    from zhangforge.harness import BodySpec, make_body
    from zhangforge.moments import RayMomentEngine

    panels = []
    real = mom.parametric_volume

    def counted(*args, **kwargs):
        panels.append(args[1:3])
        return real(*args, **kwargs)

    P = make_body(BodySpec("random_hull", 3, {"count": 6, "radius": 2, "seed": 0}))
    calls = _count_hulls(monkeypatch)
    monkeypatch.setattr(mom, "parametric_volume", counted)
    engine = RayMomentEngine(P, Direction((1, 2, 2)))
    engine.moment(1)
    # the four pieces between the exact kinks, one call and one hull each
    assert len(panels) == len(engine._panels) == 4 and len(calls) == len(panels)


def _count_lps(monkeypatch):
    """Count ``lp_solve`` calls through every module that binds it."""
    import sys

    import zhangforge.lp as lp

    calls = []
    real = lp.lp_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "zhangforge" and getattr(mod, "lp_solve", None) is real:
            monkeypatch.setattr(mod, "lp_solve", counted)
    return calls


def _distribution_bodies():
    """Random hulls n = 2, 3, 4, one whose slice sweep splits a polynomial at
    1/4, a sheared image (x_n + <s, x'> keeps every section length) and the
    corpus."""
    from zhangforge.harness import BodySpec, default_corpus, make_body

    bodies = [make_body(BodySpec("random_hull", n, {"count": n + 4, "radius": 2, "seed": s}))
              for n in (2, 3, 4) for s in range(4)]
    split = make_body(BodySpec("random_hull", 3, {"count": 9, "radius": F(1, 3), "seed": 20}))
    bodies.append(split)
    P = make_body(BodySpec("random_hull", 3, {"count": 7, "radius": 2, "seed": 1}))
    bodies.append(transform(P, [[1, 0, 0], [0, 1, 0], [F(1, 2), F(-2, 3), 1]], [0, 0, F(1, 5)]))
    bodies += [make_body(spec) for spec in default_corpus()]
    return bodies, split


def test_section_distribution_against_the_slice_sweep():
    # the distribution read off the symmetral's boundary simplices against the
    # sweep of its slices: each swept piece lies in one read piece with the
    # same polynomial, adjacent read pieces differ, and the integer moments agree
    from zhangforge.moments import SectionDistribution, section_distribution, section_power_integral
    from zhangforge.steiner import steiner_symmetrize

    bodies, split = _distribution_bodies()
    for P in bodies:
        dist = section_distribution(steiner_symmetrize(P))
        swept = _slice_sweep(P)
        assert dist.reach == swept[-1][1] and dist.pieces[0][0] == swept[0][0] == 0, P
        for a, b, coeffs in swept:
            (_lo, _hi, read), = [p for p in dist.pieces if p[0] <= a and b <= p[1]]
            assert read == coeffs, (P, a, b)
        assert all(p[2] != q[2] for p, q in zip(dist.pieces, dist.pieces[1:])), P
        old = SectionDistribution(swept, dist.symmetral, dist.reach)
        for q in range(1, 6):
            want = section_power_integral(old, q).exact
            assert section_power_integral(dist, q).exact == want, (P, q)
    # the sweep splits one polynomial at 1/4, where the slice changes type;
    # the read gives one piece there
    swept_breaks = {b for _a, b, _c in _slice_sweep(split)}
    read_breaks = {b for _a, b, _c in section_distribution(steiner_symmetrize(split)).pieces}
    assert F(1, 4) in swept_breaks - read_breaks


def test_section_distribution_builds_no_hull_and_solves_no_lp(monkeypatch):
    from zhangforge.moments import section_distribution
    from zhangforge.steiner import steiner_symmetrize

    bodies = _distribution_bodies()[0][:14]
    symmetrals = [steiner_symmetrize(P) for P in bodies]
    hulls, lps = _count_hulls(monkeypatch), _count_lps(monkeypatch)
    for S in symmetrals:
        section_distribution(S)
    assert hulls == [] and lps == []


def test_workspace_section_layer_is_one_hull_and_no_lp(monkeypatch):
    # the anchor, both symmetrals and the distribution come from the one
    # Steiner hull of the body; the anchor agrees with the two-copy LP's
    # (tests/test_differential.py)
    from zhangforge.harness import default_corpus, make_body
    from zhangforge.inequalities import BodyWorkspace

    bodies = [make_body(spec) for spec in default_corpus()]
    # the reference anchors read fresh copies: a body keeps the symmetral
    # its anchor was read off, and the workspace would reuse it
    anchors = [max_section_anchor(make_body(spec)) for spec in default_corpus()]
    hulls, lps = _count_hulls(monkeypatch), _count_lps(monkeypatch)
    for P, want in zip(bodies, anchors):
        before = len(hulls)
        ws = BodyWorkspace(P)
        assert ws.anchor == want
        assert ws.asym.vertices == tuple(tuple(x - c for x, c in zip(v, want + (F(0),)))
                                         for v in ws.sym.vertices)
        ws.section_dist
        assert len(hulls) == before + 1, P
    assert lps == []
