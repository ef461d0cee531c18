#!/usr/bin/env python3
"""Self-test of the benchmark itself (a few seconds):

    python3 perfbench/selftest.py

- while the tracer is installed, every listed binding is its wrapper (for
  example ``zhangforge.moments.lp_solve``, ``zhangforge.polytope.convex_hull``
  and ``zhangforge.harness.verify``), and after ``restore`` none is;
- a traced run gives the same report digest as an untraced one, every span's
  self time is non-negative and their sum is at most the traced wall time;
- the per-layer and end-to-end metric names and units agree with
  ``BENCHMARK.json``;
- every body and sweep that any seed can pick has a reference, and the same
  seed gives the same config.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
import zhangforge.harness as harness  # noqa: E402
from zhangforge.harness import BodySpec, SuiteConfig  # noqa: E402
from zhangforge.inequalities import checker_ids  # noqa: E402
from zhangforge.moments import SOURCES  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def small_config() -> SuiteConfig:
    bodies = [BodySpec("simplex", 2, name="simplex2"), BodySpec("cube", 3, name="cube3")]
    sweeps = [{"target": "gn_volume", "body": "simplex2", "scales": [4, 16]},
              {"target": "B_limit", "scales": [100], "params": {"n": 2, "p": 1}}]
    return SuiteConfig(bodies=bodies, sweeps=sweeps)


def digest(doc) -> str:
    return hashlib.sha256(harness.report_json(doc).encode()).hexdigest()


def test_tracer() -> None:
    cfg = small_config()
    plain = digest(harness.run_suite(cfg))
    held = {}

    def call():
        for mod, attr in (("moments", "lp_solve"), ("polytope", "convex_hull"),
                          ("harness", "verify")):
            held[f"zhangforge.{mod}.{attr}"] = getattr(sys.modules[f"zhangforge.{mod}"], attr)
        return digest(harness.run_suite(cfg))

    t, traced, wall, problems = tr.traced_call(call)
    for name, fn in held.items():
        check(fn in t.wrappers.values(), f"{name} is the wrapper while traced")
    for p in problems:
        print(f"     {p}")
    check(not problems, "bindings traced and restored; self times non-negative, sum <= wall")
    check(traced == plain, "traced and untraced report digests agree")
    names = tr.layer_metric_names(checker_ids(), SOURCES, workloads.SWEEP_TARGETS)
    vals = tr.layer_values(t, names, 1.0, 0.0)
    check(vals["lp.lp_solve.calls"] > 0 and vals["hull.convex_hull.d3.calls"] > 0,
          "lp and 3-d hull calls are counted")
    check(vals["moments.ray_engine.builds"] > 0, "ray engine builds are counted")


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = tr.layer_metric_names(checker_ids(), SOURCES, workloads.SWEEP_TARGETS)
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == layers,
          "per_layer metrics match the tracer's names and units")
    check({m["name"] for m in bench["end_to_end"]}
          == {"setup_s", "wall_s", "checks_per_s", "peak_rss_mb"},
          "end_to_end metrics match run.py")
    check([w["name"] for w in bench["workloads"]] == list(workloads.GATED),
          "BENCHMARK.json lists the gated workloads")


def test_reference_coverage() -> None:
    ref = reference.load()
    corpus = workloads.build("corpus", workloads.DEFAULT_SEED)
    bodies = [b.name for b in corpus.bodies]
    bodies += [workloads.fuzz3_body(s).name for s in workloads.FUZZ3_POOL]
    check(all(b in ref["bodies"] for b in bodies), "every body a seed can pick has a reference")
    sweep_bodies = workloads.fixed_sweep_bodies()
    sweep_bodies += [workloads.sweep_body(s) for s in workloads.SWEEP_POOL]
    entries = corpus.sweeps + workloads.sweep_entries(sweep_bodies)
    keys = [reference.sweep_key(e["target"], e.get("body"), dict(e.get("params", {})))
            for e in entries]
    check(all(k in ref["sweeps"] for k in keys), "every sweep a seed can pick has a reference")
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            same = workloads.build(name, seed).to_json() == workloads.build(name, seed).to_json()
            check(same, f"{name} seed {seed}: the same seed gives the same config")


if __name__ == "__main__":
    test_tracer()
    test_benchmark_json()
    test_reference_coverage()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
