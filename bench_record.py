#!/usr/bin/env python3
"""Record a parent/change comparison of one benchmark workload as BENCH_<workload>.json.

    python3 bench_record.py --workload corpus [--parent REV] [--pairs 10] [--seed 1]

Runs ``perfbench/run.py --trace 0`` on the parent and on the change in
alternating pairs (the parent first in even pairs, the change first in odd
ones), each run as long as ``BENCHMARK.json``'s ``run_seconds``.  The parent
(default ``HEAD~1``) is exported with ``git archive`` into a temporary
directory; the change is the working tree (its id marked ``+dirty`` when
``src/``, ``perfbench/`` or ``BENCHMARK.json``, the files the runs measure,
differ from HEAD).  Each side runs its own ``perfbench/run.py``, which
imports the ``src/`` beside it.

The file holds, per end-to-end metric of ``BENCHMARK.json``, each side's runs,
median and quartiles, the change's median over the parent's, and the pairs the
change won (ties count for neither), with both commit ids.  Run it on an idle
host: the pairs cancel slow drift, not a neighbour's load.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.abspath(__file__))
MEASURED = ("src", "perfbench", "BENCHMARK.json")  # what the runs import and read


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def dirty() -> bool:
    """Whether a file the runs measure differs from HEAD: edited, staged,
    deleted or new under ``MEASURED``.  Notes, records and other files
    outside it leave a measurement clean."""
    return bool(git("status", "--porcelain", "--", *MEASURED))


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``, with no git metadata."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.10.12+, 3.11.4+)
        kw = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kw)


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``perfbench/run.py`` run in the checkout ``root``: the
    JSON summary on its last line of output."""
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    parent_id = git("rev-parse", args.parent)
    change_id = git("rev-parse", "HEAD") + ("+dirty" if dirty() else "")

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        roots = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        export(parent_id, roots["parent"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = run_once(roots[side], args.workload, args.seed, seconds)
                runs[side].append(out)
                vals = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                                for m in metrics)
                print(f"pair {i + 1}/{args.pairs} {side}: correct={out['correct']} {vals}",
                      flush=True)

    record = {
        "workload": args.workload,
        "parent": parent_id,
        "change": change_id,
        "pairs": args.pairs,
        "seconds": seconds,
        "seed": args.seed,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "correct": {side: all(r["correct"] for r in rows) for side, rows in runs.items()},
        "metrics": {},
    }
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in rows] for side, rows in runs.items()}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        par, chg = summary(vals["parent"]), summary(vals["change"])
        record["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": par, "change": chg,
            "ratio": chg["median"] / par["median"],
            "wins": wins,
        }
    path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, row in record["metrics"].items():
        print(f"{name}: parent {row['parent']['median']:.4g} [{row['parent']['q1']:.4g},"
              f" {row['parent']['q3']:.4g}], change {row['change']['median']:.4g}"
              f" [{row['change']['q1']:.4g}, {row['change']['q3']:.4g}],"
              f" ratio {row['ratio']:.3f}, wins {row['wins']}/{args.pairs}")
    print(f"wrote {path}")
    return 0 if all(record["correct"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
