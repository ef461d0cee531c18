"""Tour of the exact rational polytope kernel.

Everything here is computed in fractions.Fraction: hulls carry both
representations, volumes are exact, and degenerate results (touching
intersections, slices) are legal lower-dimensional polytopes.
"""

import math
from fractions import Fraction as F

from zhangforge import (
    Direction,
    axis_direction,
    difference_body,
    intersect,
    make_polytope,
    max_section_anchor,
    project_drop_last,
    projection_volume,
    slice_at_height,
    translate,
    vertical_section,
    volume,
)

T = make_polytope([(0, 0), (1, 0), (0, 1)], 2)
square = make_polytope([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
simplex3 = make_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)

print("triangle halfspaces:")
for a, b in T.halfspaces:
    print("   <", tuple(map(str, a)), ", x>  <=", b)
print("volume(T) =", volume(T).exact)

print("\nMinkowski sums and the difference body:")
D = difference_body(T)
print("T - T has", len(D.vertices), "vertices and volume", volume(D).exact)
for n, body in ((2, T), (3, simplex3)):
    ratio = volume(difference_body(body)).exact / volume(body).exact
    print(f"vol(K-K)/vol(K) for the {n}-simplex = {ratio} = C(2n,n) = {math.comb(2*n,n)}")

print("\nintersections along a translation ray are nonincreasing:")
for k in range(4):
    x = (F(k, 2), 0)
    Q = intersect(square, translate(square, x))
    v = volume(Q).exact if Q is not None else 0
    print(f"  vol([0,1]^2 cap ({x[0]},0)+[0,1]^2) = {v}")

print("\ntouching copies intersect in a degenerate (measure-zero) polytope:")
seg = intersect(square, translate(square, (1, 0)))
print("  affine_dim =", seg.affine_dim, " vertices =", seg.vertices)

print("\nprojections, sections and slices:")
print("  projection of the 3-simplex:", project_drop_last(simplex3).vertices)
print("  vertical section of T at y=1/2:", vertical_section(T, (F(1, 2),)))
print("  slice of [-1,1]^2 at height 1:", slice_at_height(
    make_polytope([(-1, -1), (1, -1), (-1, 1), (1, 1)], 2), 1).vertices)

print("\nshadow volumes by the facet sum (exact for rational directions):")
print("  shadow of [0,1]^2 along e2:", projection_volume(square, axis_direction(2)).exact)
pv = projection_volume(square, Direction((1, 1)))
print("  shadow of [0,1]^2 along (1,1):", pv.value, "(= sqrt(2))")

print("\nanchor of a longest vertical section (lexicographic tie-break):")
print("  [0,1]^2 ->", max_section_anchor(square))
print("  (3,0)+[0,1]^2 ->", max_section_anchor(translate(square, (3, 0))))
