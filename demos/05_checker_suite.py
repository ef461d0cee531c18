"""Run the checker registry on a few bodies and a scaling sweep.

Equivalent CLI:  zhangforge verify --out reports/  and  zhangforge sweep
"""

from zhangforge import make_polytope
from zhangforge.harness import BodySpec, SuiteConfig, run_suite
from zhangforge.inequalities import (
    checker_ids,
    checker_statement,
    crossing_point,
    limit_sweep,
    section_profiles,
    verify,
)

sym = make_polytope([(-1, -1), (1, -1), (-1, 1), (1, 1)], 2)

print("the registry:")
for cid in checker_ids():
    print(f"  {cid}")

print("\nworked example on [-1,1]^2:")
for cid in ("discrete_zhang_mu", "purely_discrete_zhang", "mu_gn_sandwich"):
    rep = verify(cid, sym)
    print(f"  {cid}: {rep.lhs.value:g} <= {rep.rhs.value:g}  [{rep.verdict}]")
    print(f"      {checker_statement(cid)}")

print("\nslice lattice profiles of [-1,1]^2 and the crossing point of the comparison profile g:")
pr = section_profiles(sym)
print(f"  f = {dict(sorted(pr.f.items()))}  f~ = {dict(sorted(pr.f_tilde.items()))}")
print(f"  f~ >= g below k* and g >= f from k* on, k* = {crossing_point(sym, 1, pr)}")

print("\nscaling sweep: the rescaled lattice bound approaches the continuous one:")
square = make_polytope([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
for row in limit_sweep(square, "discrete_to_continuous_zhang", [4, 16, 64]):
    print(
        f"  scale {row['scale']:>4g}  {row['quantity']:<14s} value {row['value']:.6f}"
        f"  reference {row['reference']:.6f}  rel.err {row['rel_error']:.4f}"
    )

print("\na small suite run (three bodies, all checkers):")
cfg = SuiteConfig(
    bodies=[
        BodySpec("simplex", 2, name="simplex2"),
        BodySpec("cube", 2, {"edge": [-1, 1]}, name="sym_cube2"),
        BodySpec("cross", 2, {"scale": 2}, name="cross2"),
    ],
    sweeps=[{"target": "B_limit", "scales": [100, 10000], "params": {"n": 2, "p": 1}}],
)
doc = run_suite(cfg)
print("  summary:", doc["summary"])
for row in doc["reports"][:6]:
    print(f"  {row['body']:<10s} {row['id']:<28s} {row['verdict']}")
print("  ...")
