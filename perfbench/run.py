#!/usr/bin/env python3
"""Benchmark zhangforge end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 perfbench/run.py --workload corpus|fuzz3|sweep --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from a checkout: the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat each metric with its unit and record the environment.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# numpy's OpenBLAS would otherwise start a thread per core in every process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 11

SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
    "import speed\n"
    "with speed.SpeedSampler() as s:\n"
    "    import zhangforge.cli, workloads\n"
    "    workloads.build({workload!r}, {seed!r})\n"
    "print(s.factor)\n"
)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
    }


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, speed factor) of fresh interpreters that import zhangforge
    and build the config; each samples the host's speed while it imports."""
    code = SETUP_CODE.format(src=SRC, here=HERE, workload=workload, seed=seed)
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True)
        out.append((perf_counter() - t0, float(proc.stdout.split()[-1])))
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """One workload's config, its call into zhangforge, and the output check."""

    def __init__(self, workload: str, seed: int):
        import reference
        import workloads

        self.workload = workload
        self.config = workloads.build(workload, seed)
        self.jobs = workloads.JOBS[workload]
        self.ref = reference.load()
        self.expected_ops = reference.expected_ops(self.config, self.ref, workload != "sweep")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def call(self, jobs: int):
        # looked up at call time, so a traced run goes through the wrappers
        import zhangforge.harness as harness

        if self.workload == "sweep":
            return harness.run_sweeps(self.config)
        return harness.run_suite(self.config, jobs=min(jobs, os.cpu_count() or 1))

    def timed(self, jobs: int, sampler=None) -> tuple[float, str | None]:
        """Run once, under ``sampler`` if given; check the output; return
        (seconds, report digest)."""
        import reference
        import zhangforge.harness as harness

        t0 = perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                result = self.call(jobs)
        except Exception:  # counted as failed operations, run continues
            wall = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.attempted += max(1, self.expected_ops)
            self.failed += max(1, self.expected_ops)
            self.problems.append("exception in the workload call")
            return wall, None
        wall = perf_counter() - t0
        ops, problems = reference.check(result, self.config, self.ref)
        self.attempted += ops
        self.failed += len(problems)
        self.problems += problems
        d = digest(harness.report_json(result))
        self.digests.add(d)
        return wall, d

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and len(self.digests) == 1


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def emit(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def run_timed(workload: str, seed: int, seconds: int) -> None:
    import speed

    setup = setup_seconds(workload, seed)
    runner = Runner(workload, seed)
    walls = []  # (raw seconds, speed factor)
    t_begin = perf_counter()
    while True:
        sampler = speed.SpeedSampler()
        wall, _d = runner.timed(runner.jobs, sampler)
        walls.append((wall, sampler.factor))
        # stop when one more call would end past the measuring window
        if perf_counter() - t_begin + wall > seconds:
            break
    setup_s = statistics.median(t * f for t, f in setup)
    wall_s = statistics.median(t * f for t, f in walls)
    print(f"runs: setup {len(setup)}, workload {len(walls)} (closed loop, one caller,"
          f" jobs={runner.jobs}, {runner.expected_ops} operations per run)")
    for name, rows in (("setup", setup), ("workload", walls)):
        print(f"{name} raw seconds: " + " ".join(f"{t:.4f}" for t, _f in rows))
        print(f"{name} speed factors: " + " ".join(f"{f:.4f}" for _t, f in rows))
    print(f"raw_setup_s {statistics.median(t for t, _f in setup)!r} s (median, not corrected)")
    print(f"raw_wall_s {statistics.median(t for t, _f in walls)!r} s (median, not corrected)")
    fail_share = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"fail_share {fail_share!r} ratio ({runner.failed} of {runner.attempted} attempted)")
    for p in runner.problems[:20]:
        print(f"problem: {p}")
    if len(runner.digests) > 1:
        print(f"problem: {len(runner.digests)} distinct report digests across repeats")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "checks_per_s": {"value": runner.expected_ops / wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
    }
    emit(metrics, runner.correct, runner.attempted, runner.failed)


def run_traced(workload: str, seed: int) -> None:
    import speed
    import tracer as tr
    import workloads
    from zhangforge.inequalities import checker_ids
    from zhangforge.moments import SOURCES

    runner = Runner(workload, seed)
    plain = speed.SpeedSampler()
    untraced_wall, untraced_digest = runner.timed(1, plain)
    traced = speed.SpeedSampler()
    t, (traced_wall, traced_digest), _total, problems = tr.traced_call(
        lambda: runner.timed(1, traced))
    if traced_digest != untraced_digest:
        problems.append("traced report digest differs from the untraced one")
    os.makedirs(OUT_DIR, exist_ok=True)
    t.write(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.tsv.gz"))
    names = tr.layer_metric_names(checker_ids(), SOURCES, workloads.SWEEP_TARGETS)
    overhead = traced_wall * traced.factor - untraced_wall * plain.factor
    values = tr.layer_values(t, names, traced.factor, overhead)
    print(f"traced run: jobs=1, {len(t.self_times())} spans; raw wall {traced_wall!r} s"
          f" traced, {untraced_wall!r} s untraced; speed factors {traced.factor!r},"
          f" {plain.factor!r}")
    for p in (runner.problems + problems)[:20]:
        print(f"problem: {p}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in names}
    correct = runner.correct and not problems
    emit(metrics, correct, runner.attempted, runner.failed + len(problems))


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, one child process at a time."""
    import workloads

    status = 0
    for w in workloads.WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {w} trace={trace}", flush=True)
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", trace], cwd=ROOT)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="corpus, fuzz3, sweep or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zhangforge", "__init__.py")):
        fail(f"no zhangforge sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        run_traced(args.workload, args.seed)
    else:
        run_timed(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
