"""Lattice counting, the mixed column measure, and discrete ray moments.

The column measure mu sums vertical-section lengths over integer columns;
it is sandwiched between G_n -+ G_(n-1) and is invariant under Steiner
symmetrization.  The reach of each lattice point along a ray gives exact
lattice covariogram moments.
"""

from fractions import Fraction as F

from zhangforge import Direction, make_polytope, project_drop_last
from zhangforge.lattice import (
    count_lattice,
    discrete_covariogram,
    discrete_ray_moment,
    lattice_points,
    mu_measure,
    ray_decomposition,
)
from zhangforge.steiner import steiner_symmetrize

big = make_polytope([(0, 0), (2, 0), (0, 2), (2, 2)], 2)
print("lattice points of [0,2]^2:", list(lattice_points(big)))
print("count with the open fattening (-1,3)^2:", count_lattice(big, 2))

print("\ncolumn measure examples:")
print("  mu([0,2]^2) =", mu_measure(big).exact, "(three columns of length 2)")
slab = make_polytope([(-2, F(1, 3)), (2, F(1, 3)), (-2, F(1, 2)), (2, F(1, 2))], 2)
print(
    "  mu([-2,2] x [1/3,1/2]) =", mu_measure(slab).exact,
    "although the body misses the lattice entirely:", count_lattice(slab),
)

print("\nsandwich |mu - G_n| <= G_(n-1)(projection):")
for body, name in ((big, "[0,2]^2"), (slab, "slab")):
    gn = count_lattice(body)
    gp = count_lattice(project_drop_last(body))
    print(f"  {name}: G_n={gn} G_proj={gp} mu={mu_measure(body).exact}")

print("\nmu is a symmetrization invariant:")
print("  mu(S(slab)) =", mu_measure(steiner_symmetrize(slab)).exact)

print("\ndiscrete covariogram of [0,2]^2:")
for x in [(0, 0), (1, 0), (2, 2), (3, 0)]:
    print(f"  g~({x}) = {discrete_covariogram(big, x)}")

print("\nray decomposition along e1 (interval of r with y - r e1 in K):")
d = ray_decomposition(big, Direction((1, 0)))
for y, rho in d.entries:
    print(f"  y={y}: [0, {rho}]")
print("p=1 moment (sum of lengths):", discrete_ray_moment(d, 1).exact)
print("p=2 moment (sum of reach^2):", discrete_ray_moment(d, 2).exact)
print("max reach = radial of (K cap Z^n) - K:", d.max_reach())

square = make_polytope([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
d_open = ray_decomposition(square, Direction((1, 0)), open_cube=True)
print("\nopen-cube decomposition of [0,1]^2 (half-open intervals):")
for y, rho in d_open.entries:
    print(f"  y={y}: [0, {rho}{')' if d_open.open_cube else ']'}")
