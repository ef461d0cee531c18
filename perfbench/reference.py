"""Reference outputs and the output check run on every benchmark result.

``reference.json`` holds, for every body a workload can pick, the verdict of
each (body, checker) row, and for every sweep a workload can run, its rows.
It was recorded with the code the benchmark was added for; record it again
only when a change alters verdicts or sweep values on purpose:

    python3 perfbench/reference.py

An operation is one (body, checker) row or one sweep row.  It fails when its
verdict differs from the reference or is not ``holds``, when it carries a
``hard_failure``, when a sweep value differs from the reference by more than
``SWEEP_REL_TOL`` (relative), or when the reference row is missing from the
output (or the output row from the reference).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")
SWEEP_REL_TOL = 1e-9


def sweep_key(target: str, body, params: dict) -> str:
    return json.dumps([target, body, params], sort_keys=True)


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= SWEEP_REL_TOL * max(abs(a), abs(b))


def check_rows(rows: list[dict], bodies: list[str], ref: dict) -> tuple[int, list[str]]:
    """(operations, problems) for the suite rows of the named bodies."""
    problems = []
    seen = set()
    ops = 0
    for r in rows:
        ops += 1
        key = (r["body"], r["id"])
        seen.add(key)
        expected = dict(ref["bodies"].get(r["body"], [])).get(r["id"])
        where = f"{r['body']}/{r['id']}"
        if "hard_failure" in r.get("context", {}):
            problems.append(f"{where}: hard failure {r['context']['hard_failure']}")
        elif r["verdict"] != expected:
            problems.append(f"{where}: verdict {r['verdict']}, reference {expected}")
        elif r["verdict"] != "holds":
            problems.append(f"{where}: verdict {r['verdict']}")
    for b in bodies:
        for cid, _verdict in ref["bodies"].get(b, []):
            if (b, cid) not in seen:
                ops += 1
                problems.append(f"{b}/{cid}: missing from the output")
    return ops, problems


def check_sweeps(sweeps: list[dict], entries: list[dict], ref: dict) -> tuple[int, list[str]]:
    """(operations, problems) for the sweep results of the configured entries."""
    problems = []
    ops = 0
    by_key = {sweep_key(s["target"], s["body"], s["params"]): s["rows"] for s in sweeps}
    for e in entries:
        key = sweep_key(e["target"], e.get("body"), dict(e.get("params", {})))
        expected = {(r[0], r[1]): r for r in ref["sweeps"].get(key, [])}
        got = by_key.get(key, [])
        if not expected:
            problems.append(f"sweep {key}: no reference")
        for r in got:
            ops += 1
            want = expected.pop((r["scale"], r["quantity"]), None)
            where = f"sweep {key} scale {r['scale']} {r['quantity']}"
            if want is None:
                problems.append(f"{where}: no reference row")
            elif not (_close(r["value"], want[2]) and _close(r["reference"], want[3])):
                problems.append(f"{where}: {r['value']} vs reference {want[2]}")
        for scale, quantity in expected:
            ops += 1
            problems.append(f"sweep {key} scale {scale} {quantity}: missing from the output")
    return ops, problems


def check(result, config, ref: dict) -> tuple[int, list[str]]:
    """Check a ``run_suite`` document or a ``run_sweeps`` list against ``ref``."""
    if isinstance(result, dict):
        ops, problems = check_rows(result["reports"], [b.name for b in config.bodies], ref)
        sweeps = result["sweeps"]
    else:
        ops, problems = 0, []
        sweeps = result
    sops, sproblems = check_sweeps(sweeps, config.sweeps, ref)
    return ops + sops, problems + sproblems


def expected_ops(config, ref: dict, with_rows: bool) -> int:
    n = 0
    if with_rows:
        n += sum(len(ref["bodies"].get(b.name, [])) for b in config.bodies)
    for e in config.sweeps:
        n += len(ref["sweeps"].get(sweep_key(e["target"], e.get("body"),
                                             dict(e.get("params", {}))), []))
    return n


def record() -> dict:
    """Run every body and sweep any workload can pick; return the reference."""
    import workloads as W
    from zhangforge.harness import SuiteConfig, default_config, run_suite, run_sweeps

    corpus = default_config()
    pool3 = [W.fuzz3_body(s) for s in W.FUZZ3_POOL]
    doc = run_suite(SuiteConfig(bodies=corpus.bodies + pool3, sweeps=[]), jobs=2)
    bodies: dict[str, list] = {}
    for r in doc["reports"]:
        bodies.setdefault(r["body"], []).append([r["id"], r["verdict"]])
    sweep_bodies = W.fixed_sweep_bodies() + [W.sweep_body(s) for s in W.SWEEP_POOL]
    entries = corpus.sweeps + W.sweep_entries(sweep_bodies)
    cfg = SuiteConfig(bodies=corpus.bodies + sweep_bodies, sweeps=entries)
    sweeps = {}
    for s in run_sweeps(cfg):
        sweeps[sweep_key(s["target"], s["body"], s["params"])] = [
            [r["scale"], r["quantity"], r["value"], r["reference"]] for r in s["rows"]
        ]
    return {
        "schema": 1,
        "sweep_rel_tol": SWEEP_REL_TOL,
        "bodies": bodies,
        "sweeps": sweeps,
    }


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    out = record()
    with open(PATH, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"wrote {PATH}: {len(out['bodies'])} bodies, {len(out['sweeps'])} sweeps")
