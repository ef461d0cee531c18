"""The benchmark's sweep workload must reproduce its recorded reference rows.

``perfbench/reference.json`` holds the sweep values of the fixed bodies
(among them the unit cube and simplex in n = 3) and of the seeded random
n = 2 hulls that the ``sweep`` workload can pick; no other test sweeps those
bodies.  This test runs the workload at its default seed and applies the
benchmark's own check (relative tolerance 1e-9 per row).  A second test pins
the SHA-256 of ``report_json`` of the workload's rows at seeds 1 and 2
(``tests/data/sweep_digest.json``), so a byte change that the tolerance hides
is caught too.
``perfbench/workloads.py`` and ``perfbench/reference.py`` are only imported,
never modified.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from zhangforge.harness import report_json, run_sweeps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "data" / "sweep_digest.json"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sweep_workload_matches_reference():
    workloads = _load("workloads")
    reference = _load("reference")
    config = workloads.build("sweep", workloads.DEFAULT_SEED)
    ref = reference.load()
    ops, problems = reference.check(run_sweeps(config), config, ref)
    assert problems == []
    assert ops == reference.expected_ops(config, ref, with_rows=False)


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_workload_report_bytes(seed):
    config = _load("workloads").build("sweep", seed)
    got = hashlib.sha256(report_json(run_sweeps(config)).encode()).hexdigest()
    assert got == json.loads(DIGESTS.read_text())[str(seed)]
