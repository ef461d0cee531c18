"""Covariogram moments along three independent routes, and star bodies.

The same number  p * int r^(p-1) vol(K cap (r e_n + K)) dr  is computed as a
ray quadrature over exact covariogram panels, as a slab integral over the
symmetral, and as a section-power integral over the projection; the routes
cross-validate each other.  Radial p-th means and Ball bodies of the discrete
covariogram reduce to these moments; the polar projection body is an exact
polytope.
"""

import math

import numpy as np

from zhangforge import (
    Direction,
    axis_direction,
    make_polytope,
    polar_projection_body,
    volume,
)
from zhangforge.moments import (
    RayMomentEngine,
    covariogram,
    facet_angles,
    polar_projection_radial,
    radial_Rp,
    radial_ball_body,
    projection_power_moment,
    radial_batch,
    section_distribution,
    slab_moment,
    star_volume,
)
from zhangforge.steiner import steiner_symmetrize

square = make_polytope([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
T = make_polytope([(0, 0), (1, 0), (0, 1)], 2)
e2 = axis_direction(2)

print("covariogram of the unit square:")
for x in [(0, 0), (0.5, 0), (2, 0)]:
    print(f"  g({x}) = {covariogram(square, x).exact}")

print("\nthree routes for the p-th moments of [0,1]^2 along e2:")
dist = section_distribution(steiner_symmetrize(square))
for p in (1, 2):
    routes = (("ray engine", RayMomentEngine(square, e2).moment(p)),
              ("symmetral slab", slab_moment(dist, p)),
              ("projection power", projection_power_moment(dist, p)))
    print(f"  p={p}:  " + "   ".join(f"{name}: {mv.exact}" for name, mv in routes))

print("\nchord-mean radials (projection-power form):")
print("  rho_R1([0,1]^2)(e2) =", radial_Rp(square, e2, 1).value)
print("  rho_R1(T)(e2) =", radial_Rp(T, e2, 1).value, "(= 1/3)")

print("\ndiscrete Ball-body radials of [0,1]^2 along e1:")
e1 = Direction((1, 0))
print("  closed source, p=1:", radial_ball_body("discrete", square, e1, 1).exact)
print("  open-fattened source, p=1:", radial_ball_body("discrete-open", square, e1, 1).exact)
print("  difference set (K cap Z^2) - K:",
      radial_ball_body("difference-set", square, e1, None).exact)

print("\npolar projection body and the simplex equality case:")
print("  rho_polar([0,1]^2)(e2) =", polar_projection_radial(square, e2).exact)
polar_vol = volume(polar_projection_body(T)).exact
print(f"  vol(polar body of T) = {polar_vol}  (exact; the bound")
print(f"  C(4,2)/4 = 3/2 <= vol(T) * that = {volume(T).exact * polar_vol} is tight for simplices)")

print("\nthe n-th Ball body of the covariogram has the body's volume:")
sv2 = star_volume(lambda dirs: radial_batch("continuous", T, dirs, 2),
                  2, extra_angles=facet_angles(T))
print(f"  vol(K_2(g_T)) = {sv2.value:.6f}  vs  vol(T) = {float(volume(T).exact)}")

print("\nscaled-radial inclusion chain (nonincreasing in p):")
angles = np.linspace(0, 2 * math.pi, 8, endpoint=False)
dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
for p in (1, 2, 3):
    scaled = math.comb(2 + p, 2) ** (1.0 / p) * radial_batch("continuous", square, dirs, p)
    print(f"  p={p}: max over 8 directions = {scaled.max():.6f}")
