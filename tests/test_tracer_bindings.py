"""The benchmark's tracer must find every name it wraps in the package.

``perfbench/tracer.py`` rebinds listed functions by module and name; a name
deleted or moved in ``zhangforge`` would break ``perfbench/run.py --trace 1``
and ``perfbench/selftest.py`` silently, so this test installs the tracer and
checks every binding.  The tracer file is only imported, never modified.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_binds_every_listed_name():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.binding_problems() == []
    finally:
        tracer.restore()
    assert tracer.leftover_wrappers() == []


def test_tracer_counts_one_certified_engine_build():
    # the engine-moment wrapper reads the engine's ``_panels`` and
    # ``certified``; binding checks alone do not see those attributes go
    from zhangforge import axis_direction, make_polytope
    from zhangforge.moments import RayMomentEngine

    mod = _load_tracer()
    tracer = mod.Tracer()
    try:
        tracer.install()
        P = make_polytope([(0, 0), (2, 0), (0, 1)], 2)
        RayMomentEngine(P, axis_direction(2)).moment(1)
        metrics = [(name, "count") for name in
                   ("moments.ray_engine.builds", "moments.ray_engine.uncertified")]
        vals = mod.layer_values(tracer, metrics, 1.0, 0.0)
    finally:
        tracer.restore()
    assert vals["moments.ray_engine.builds"] == 1
    assert vals["moments.ray_engine.uncertified"] == 0
