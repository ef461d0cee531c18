import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zhangforge.errors import ConfigError, DegenerateSpec, NoCrossing, NoRoot
from zhangforge.harness import (
    BodySpec,
    SuiteConfig,
    _random_hull_points,
    body_operation,
    default_config,
    default_corpus,
    exit_code,
    make_body,
    report_json,
    run_suite,
    run_sweeps,
)
from zhangforge.linalg import affine_basis, integer_points

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


def _count_calls(monkeypatch, *names):
    """Count the calls of each named function through every module of the
    package that binds it; returns the list of the names called."""
    import importlib
    import pkgutil

    import zhangforge

    calls = []
    for info in pkgutil.iter_modules(zhangforge.__path__):
        if info.name.startswith("__"):
            continue
        mod = importlib.import_module(f"zhangforge.{info.name}")
        for name in names:
            real = getattr(mod, name, None)
            if real is not None:
                monkeypatch.setattr(mod, name, lambda *a, _real=real, _name=name, **k:
                                    calls.append(_name) or _real(*a, **k))
    return calls


# a random_hull integer param that int() would change or that is out of
# range, and the key the error names
_BAD_DRAW_PARAMS = [
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"count": 8.7}, "count"),
    ({"count": -2}, "count"),
    ({"denominator": 2.5}, "denominator"),
    ({"denominator": 0}, "denominator"),
    ({"denominator": -4}, "denominator"),
    ({"count": "8"}, "count"),
]

# every random_hull body the repo names: the default corpus's two, criterion
# 8's 200, criterion 9's two and the sweep workload's pool; then seeds of more
# than one 32-bit word, 15 draws a round redrawn twice (so the unused half of
# a 64-bit draw carries into the next round), a span that rejects about half
# its Lemire draws (2^31 + 7) and a span on the 64-bit path
_NAMED_RANDOM_HULLS = [
    *((b.dim, b.params) for b in default_corpus() if b.family == "random_hull"),
    *((2, {"count": 8, "radius": 2, "seed": s}) for s in range(100)),
    *((3, {"count": 6, "radius": 2, "seed": 100 + s}) for s in range(100)),
    (2, {"count": 7, "seed": 5}),
    (3, {"count": 6, "seed": 6}),
    *((2, {"count": 8, "radius": "1/2", "seed": s}) for s in range(64)),
    *((2, {"count": 8, "radius": 2, "seed": s}) for s in (2**32 + 5, 2**63 - 1, 10**30, 3**200)),
    (3, {"count": 5, "radius": "1/4", "seed": 27}),
    (3, {"count": 6, "radius": 2**30 + 3, "denominator": 1, "seed": 3}),
    (2, {"count": 5, "radius": 2**32, "denominator": 1, "seed": 4}),
]


def _numpy_hull_points(spec: BodySpec) -> list:
    """The oracle: a random_hull body's points as numpy's generator draws them."""
    import numpy as np

    n, params = spec.dim, spec.params
    den = params.get("denominator", 4)
    top = int(F(params.get("radius", 1)) * den)
    rng = np.random.default_rng(params.get("seed", 0))
    for _round in range(100):
        raw = rng.integers(-top, top + 1, size=(params.get("count", 8), n))
        pts = [tuple(F(int(v), den) for v in row) for row in raw]
        if len(affine_basis(integer_points(pts)[0])) == n + 1:
            return pts


class TestMakeBody:
    def test_simplex(self):
        T = make_body(BodySpec("simplex", 2, name="T"))
        assert set(T.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}

    def test_cube_edge(self):
        C = make_body(BodySpec("cube", 2, {"edge": [-1, 1]}, name="c"))
        assert len(C.vertices) == 4
        assert C.bounding_box() == [(-1, 1), (-1, 1)]

    def test_cross(self):
        X = make_body(BodySpec("cross", 3, {"scale": 2}, name="x"))
        assert len(X.vertices) == 6

    def test_random_hull_deterministic(self):
        spec = BodySpec("random_hull", 2, {"count": 8, "seed": 7, "radius": 2}, name="r")
        assert make_body(spec).vertices == make_body(spec).vertices

    def test_random_hull_seed_changes(self):
        a = make_body(BodySpec("random_hull", 2, {"count": 8, "seed": 7}, name="a"))
        b = make_body(BodySpec("random_hull", 2, {"count": 8, "seed": 8}, name="b"))
        assert a.vertices != b.vertices

    def test_affine_and_anchor(self):
        spec = BodySpec(
            "cube", 2, {"edge": [0, 1]},
            affine=([[1, 0], [0, 1]], [3, 0]), anchor=True, name="t",
        )
        P = make_body(spec)
        # translated to x in [3,4] then re-anchored so the longest column is at 0
        assert P.bounding_box()[0] == (0, 1)

    def test_anchored_body_and_its_workspace_build_one_symmetral(self, monkeypatch):
        # one hull of the points and one of the symmetral: the anchor is read
        # off the symmetral, which the horizontal translate carries to the
        # workspace of the anchored body
        import zhangforge.polytope as poly
        from zhangforge.inequalities import BodyWorkspace

        calls = _count_calls(monkeypatch, "convex_hull")
        spec = BodySpec("random_hull", 3, {"count": 6, "radius": 2, "seed": 101}, anchor=True)
        body = make_body(spec)
        assert len(calls) == 2
        ws = BodyWorkspace(body)
        ws.section_dist, ws.asym, ws.profiles
        assert len(calls) == 2
        assert ws.anchor == (F(0), F(0)) and poly.max_section_anchor(body) == ws.anchor

    def test_custom(self):
        spec = BodySpec("custom", 2, {"points": [[0, 0], ["1/2", 1], ["1/2", -1]]}, name="c")
        P = make_body(spec)
        assert len(P.vertices) == 3

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            make_body(BodySpec("blob", 2, name="b"))

    @pytest.mark.parametrize("params", [
        {"seed": -1},  # the seed must be a non-negative integer
        {"radius": 2**62},  # -radius * denominator is below the int64 range
        {"radius": -1},  # an empty range of draws
        *(params for params, _key in _BAD_DRAW_PARAMS),
    ])
    def test_random_hull_bad_draw_is_a_config_error(self, params):
        with pytest.raises(ConfigError) as info:
            make_body(BodySpec("random_hull", 2, params, name="r"))
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("params,key", [
        *_BAD_DRAW_PARAMS, ({"seed": -1}, "seed"), ({"radius": -1}, "radius")])
    def test_random_hull_bad_draw_names_its_param(self, params, key):
        with pytest.raises(ConfigError, match=f"random_hull {key} is"):
            make_body(BodySpec("random_hull", 2, params, name="r"))

    def test_random_hull_points_are_the_numpy_draw(self):
        for dim, params in _NAMED_RANDOM_HULLS:
            spec = BodySpec("random_hull", dim, params)
            assert _random_hull_points(spec) == _numpy_hull_points(spec), (dim, params)

    @pytest.mark.parametrize("family,params,bad", [
        ("cube", {"edge": [[1.5, 2], 1]}, "1.5"),  # not truncated to 1/2
        ("cube", {"edge": [0, [True, 1]]}, "True"),  # not read as 1
        ("cube", {"edge": [0, ["3", 4]]}, "'3'"),
        ("cross", {"scale": [1, float("inf")]}, "inf"),
        ("simplex", {"scale": float("inf")}, "inf"),
        ("simplex", {"scale": float("nan")}, "nan"),
    ])
    def test_bad_rational_is_a_config_error_naming_it(self, family, params, bad):
        with pytest.raises(ConfigError, match=re.escape(bad)):
            make_body(BodySpec(family, 2, params, name="b"))

    def test_random_hull_of_radius_zero_is_degenerate(self):
        with pytest.raises(DegenerateSpec):
            make_body(BodySpec("random_hull", 2, {"radius": 0}, name="r"))

    @pytest.mark.parametrize("family,params,key", [
        ("cube", {"edg": [0, 2]}, "edg"),
        ("simplex", {"edge": [0, 1]}, "edge"),
        ("cross", {"scale": 2, "seed": 1}, "seed"),
        ("random_hull", {"count": 6, "denom": 3}, "denom"),
        ("custom", {"points": [[0, 0], [1, 0], [0, 1]], "scale": 2}, "scale"),
    ])
    def test_unknown_param_is_a_config_error_naming_it(self, family, params, key):
        # a misspelt param would otherwise fall back to its default in silence
        spec = BodySpec(family, 2, params, name="b")
        with pytest.raises(ConfigError, match=f"param '{key}'"):
            make_body(spec)
        with pytest.raises(ConfigError, match=f"param '{key}'"):
            BodySpec.from_json(spec.to_json())

    def test_unknown_body_key_is_a_config_error_naming_it(self):
        with pytest.raises(ConfigError, match="key 'anchr'"):
            BodySpec.from_json({"family": "cube", "dim": 2, "anchr": True})


class TestConfig:
    def test_default_has_enough_bodies(self):
        corpus = default_corpus()
        assert len(corpus) >= 12
        assert {2, 3} == {b.dim for b in corpus}

    def test_unknown_checker_rejected_before_work(self):
        cfg = {"bodies": [], "checkers": ["not_a_checker"]}
        with pytest.raises(ConfigError):
            SuiteConfig.from_json(cfg)

    def test_roundtrip(self):
        cfg = default_config()
        doc = cfg.to_json()
        again = SuiteConfig.from_json(doc)
        assert again.to_json() == doc

    def test_the_corpus_and_every_benchmark_workload_load(self):
        # no body of theirs carries a key or param that the checks refuse
        import importlib.util

        path = ROOT / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        configs = [default_config()] + [workloads.build(name, seed)
                                        for name in workloads.WORKLOADS for seed in (1, 2)]
        for cfg in configs:
            again = SuiteConfig.from_json(cfg.to_json())
            assert again.to_json() == cfg.to_json()
            for body in again.bodies:
                make_body(body)


    def test_config_with_tolerances_key_still_runs(self):
        # older configs carry "tolerances" and "direction_samples" maps; they
        # are ignored, not an error
        cfg = SuiteConfig.from_json({
            "bodies": [{"family": "simplex", "dim": 2, "name": "T"}],
            "checkers": ["zhang_preintegration"],
            "sweeps": [],
            "tolerances": {"zhang_preintegration": 1e-9},
            "direction_samples": {"2": 90, "3": 200},
        })
        assert "tolerances" not in cfg.to_json()
        assert "direction_samples" not in cfg.to_json()
        doc = run_suite(cfg)
        assert doc["summary"] == {"total": 1, "holds": 1, "fails": 0, "inconclusive": 0}


# a top-level field of the wrong type, and a document that is no object
_BAD_FIELDS = {
    "seed-text": {"seed": "abc"},
    "seed-bool": {"seed": True},
    "checkers-number": {"checkers": 5},
    "checker-params-list": {"checker_params": [1]},
    "checker-params-entry": {"checker_params": {"berwald_discrete": 3}},
    "output-text": {"output": "x"},
    "output-name-number": {"output": {"json": 5}},
    "bodies-object": {"bodies": {"family": "cube", "dim": 2}},
    "top-level-list": [1, 2],
}


@pytest.mark.parametrize("kind", sorted(_BAD_FIELDS))
def test_bad_field_type_is_64_with_no_report(kind, tmp_path, capsys):
    from zhangforge.cli import main

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_BAD_FIELDS[kind]))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 64
    assert capsys.readouterr().err.startswith("configuration error")
    assert not out.exists()


# one bad entry of each kind: an unknown target, an unknown body, a lattice
# scale that is not a positive integer, a B_limit entry with one bad field
# (n or p not a positive integer, a scale that is not a positive real), and
# an entry of the wrong shape (not an object, scales not a list, params not
# an object)
_BAD_SWEEPS = {
    "shape-entry": "gn_volume",
    "shape-lattice-scales": {"target": "gn_volume", "body": "cube2", "scales": 100},
    "shape-B_limit-scales": {"target": "B_limit", "scales": 100, "params": {"n": 2, "p": 1}},
    "shape-B_limit-params": {"target": "B_limit", "scales": [100], "params": [2]},
    "target": {"target": "gn_volum", "body": "cube2", "scales": [4]},
    "body": {"target": "gn_volume", "body": "no_such_body", "scales": [4]},
    "scale": {"target": "gn_volume", "body": "cube2", "scales": [4, 2.5]},
    "B_limit-n": {"target": "B_limit", "scales": [100], "params": {"n": 0, "p": 1}},
    "B_limit-p": {"target": "B_limit", "scales": [100], "params": {"n": 2, "p": "1/2"}},
    "B_limit-fractional-p": {"target": "B_limit", "scales": [100], "params": {"n": 2, "p": 1.5}},
    "B_limit-zero-scale": {"target": "B_limit", "scales": [100, 0], "params": {"n": 2, "p": 1}},
    "B_limit-text-scale": {"target": "B_limit", "scales": [100, "x"], "params": {"n": 2, "p": 1}},
}


# whole configurations of the wrong shape: sweeps that are not a list, a body
# with no dim or with params that are not an object, a cube edge of one number,
# body params that do not parse (text for a number, an affine map without its
# vector, a custom body without points), random-hull draws that cannot be made
# (a negative seed, a range beyond int64), a body dim or anchor of the wrong
# type (no coercion: 2.7 is not truncated, "false" is not truthy), a singular
# affine map, a random hull that cannot reach full dimension, a misspelt
# checker_params key, and checker params of the wrong type or shape
_SYM_SQUARE = {"family": "cube", "dim": 2, "params": {"edge": [-1, 1]}, "name": "c"}
_UNIT_INTERVAL = {"family": "cube", "dim": 1, "name": "unit_interval"}
_FLAT_SEGMENT = {"family": "custom", "dim": 2, "params": {"points": [[0, 0], [1, 1]]},
                 "name": "diagonal"}
_UNTAKEN_SWEEPS = {
    "sweep-mu_volume-of-a-1d-body": {"bodies": [_UNIT_INTERVAL], "sweeps": [
        {"target": "mu_volume", "body": "unit_interval", "scales": [4]}]},
    "sweep-discrete_to_continuous_zhang-of-a-flat-body": {"bodies": [_FLAT_SEGMENT], "sweeps": [
        {"target": "discrete_to_continuous_zhang", "body": "diagonal", "scales": [4]}]},
}
_OFF_ORIGIN_SQUARE = {"family": "cube", "dim": 2, "params": {"edge": [1, 2]}, "name": "c"}
_BAD_CONFIGS = {
    "body-dim-fractional": {"bodies": [{"family": "cube", "dim": 2.7, "name": "c"}],
                            "sweeps": []},
    "body-dim-bool": {"bodies": [{"family": "cube", "dim": True, "name": "c"}], "sweeps": []},
    "body-anchor-text": {"bodies": [{"family": "cube", "dim": 2, "anchor": "false",
                                     "name": "c"}], "sweeps": []},
    "checker-params-misspelt": {"bodies": [{"family": "cube", "dim": 2, "name": "c"}],
                                "checker_params": {"berwald_discret": {"pairs": [[0, 1]]}},
                                "sweeps": []},
    "sweeps-object": {"bodies": [], "sweeps": {"target": "B_limit", "scales": [100]}},
    "body-without-dim": {"bodies": [{"family": "cube", "name": "c"}], "sweeps": []},
    "body-name-number": {"bodies": [{"family": "cube", "dim": 2, "name": 5}], "sweeps": []},
    "body-params-list": {"bodies": [{"family": "cube", "dim": 2, "params": [2], "name": "c"}],
                         "sweeps": []},
    "cube-edge-of-one": {"bodies": [{"family": "cube", "dim": 2, "params": {"edge": [1]},
                                     "name": "c"}], "sweeps": []},
    "cube-edge-text": {"bodies": [{"family": "cube", "dim": 2, "params": {"edge": ["a", 1]},
                                   "name": "c"}], "sweeps": []},
    "affine-without-vector": {"bodies": [{"family": "cube", "dim": 2,
                                          "affine": [[[1, 0], [0, 1]]], "name": "c"}],
                              "sweeps": []},
    "random-hull-count-text": {"bodies": [{"family": "random_hull", "dim": 2,
                                           "params": {"count": "x"}, "name": "c"}],
                               "sweeps": []},
    "custom-without-points": {"bodies": [{"family": "custom", "dim": 2, "name": "c"}],
                              "sweeps": []},
    "random-hull-negative-seed": {"bodies": [{"family": "random_hull", "dim": 2,
                                              "params": {"seed": -3}, "name": "c"}],
                                  "sweeps": []},
    "random-hull-beyond-int64": {"bodies": [{"family": "random_hull", "dim": 2,
                                             "params": {"radius": 2**62}, "name": "c"}],
                                 "sweeps": []},
    "affine-singular": {"bodies": [{"family": "cube", "dim": 2,
                                    "affine": [[[1, 2], [2, 4]], [0, 0]], "name": "c"}],
                        "sweeps": []},
    "random-hull-two-points": {"bodies": [{"family": "random_hull", "dim": 2,
                                           "params": {"count": 2}, "name": "c"}],
                               "sweeps": []},
    # an affine map or custom points whose shape does not match dim, no point, no dimension
    "affine-vector-too-long": {"bodies": [{"family": "cube", "dim": 2,
                                           "affine": [[[1, 0], [0, 1]], [1, 2, 3]],
                                           "name": "c"}], "sweeps": []},
    "affine-vector-too-short": {"bodies": [{"family": "cube", "dim": 2,
                                            "affine": [[[1, 0], [0, 1]], [1]], "name": "c"}],
                                "sweeps": []},
    "affine-matrix-2x3": {"bodies": [{"family": "cube", "dim": 2,
                                      "affine": [[[1, 0, 0], [0, 1, 0]], [0, 0]], "name": "c"}],
                          "sweeps": []},
    "custom-points-3d-in-dim-2": {"bodies": [{"family": "custom", "dim": 2,
                                              "params": {"points": [[0, 0, 0], [1, 0, 0],
                                                                    [0, 1, 0]]},
                                              "name": "c"}], "sweeps": []},
    "custom-no-points": {"bodies": [{"family": "custom", "dim": 2, "params": {"points": []},
                                     "name": "c"}], "sweeps": []},
    "body-dim-zero": {"bodies": [{"family": "cube", "dim": 0, "name": "c"}], "sweeps": []},
    # a scale of Infinity, which Python's json reads
    "simplex-scale-infinity": {"bodies": [{"family": "simplex", "dim": 2,
                                           "params": {"scale": float("inf")}, "name": "c"}],
                               "sweeps": []},
    # a misspelt param of the body's family, a misspelt body key
    "edg": {"bodies": [{"family": "cube", "dim": 2, "params": {"edg": [0, 2]}, "name": "c"}],
            "sweeps": []},
    "anchr": {"bodies": [{"family": "cube", "dim": 2, "anchr": True, "name": "c"}],
              "sweeps": []},
    # a body a sweep target cannot take: a 1-d body has no columns, a flat one
    # no Steiner symmetral
    **_UNTAKEN_SWEEPS,
    # an anchored flat body: the anchor is read off the Steiner symmetral
    "anchor-of-a-flat-body": {"bodies": [{"family": "custom", "dim": 2,
                                          "params": {"points": [[0, 0], [2, 1]]},
                                          "anchor": True, "name": "flat"}],
                              "sweeps": [{"target": "gn_volume", "body": "flat", "scales": [2]}]},
    # two bodies of one name: a sweep of "a" could not tell them apart
    "duplicate-body-names": {"bodies": [{"family": "cube", "dim": 2, "name": "a"},
                                        {"family": "simplex", "dim": 2, "name": "a"}],
                             "sweeps": [{"target": "gn_volume", "body": "a", "scales": [2]}]},
    **{f"checker-params-{name}": {"bodies": [_SYM_SQUARE], "checker_params": {cid: params},
                                  "sweeps": []}
       for name, cid, params in [
           ("combos-text", "convexhull_inclusion", {"combos": "abc"}),
           ("combos-negative", "convexhull_inclusion", {"combos": -5}),
           ("pairs-flat", "berwald_discrete", {"pairs": [1, 2]}),
           ("theta-text", "zhang_directional", {"theta": "ab"}),
           ("theta-zero", "zhang_directional", {"theta": [0, 0]}),
           ("theta-infinity", "zhang_directional", {"theta": [1, float("inf")]}),
           ("qs-number", "completely_discrete_berwald", {"qs": 3}),
       ]},
    # the same params on [1,2]^2, to which neither checker applies (no origin, M = 0)
    **{f"checker-params-{name}-inapplicable": {"bodies": [_OFF_ORIGIN_SQUARE],
                                               "checkers": [cid, "mu_gn_sandwich"],
                                               "checker_params": {cid: params}, "sweeps": []}
       for name, cid, params in [
           ("combos-text", "convexhull_inclusion", {"combos": "abc"}),
           ("combos-negative", "convexhull_inclusion", {"combos": -5}),
           ("qs-number", "completely_discrete_berwald", {"qs": 3}),
       ]},
}
_CHECKER_PARAM_CONFIGS = sorted(k for k in _BAD_CONFIGS if k.startswith("checker-params-")
                                and k != "checker-params-misspelt")


@pytest.mark.parametrize("kind", _CHECKER_PARAM_CONFIGS)
def test_bad_checker_params_fail_before_any_body_task(kind, monkeypatch):
    # checked once, up front, whether or not the checker applies to a body
    import zhangforge.harness as harness

    ran = []
    monkeypatch.setattr(harness, "_run_body_task", lambda task: ran.append(task) or [])
    obj = _BAD_CONFIGS[kind]
    with pytest.raises(ConfigError):
        SuiteConfig.from_json(obj)
    cfg = SuiteConfig(bodies=[BodySpec.from_json(b) for b in obj["bodies"]],
                      checker_params=obj["checker_params"], sweeps=[])
    cfg.checkers = obj.get("checkers", cfg.checkers)
    with pytest.raises(ConfigError):
        run_suite(cfg)
    assert ran == []


@pytest.mark.parametrize("name,error", [("_solve_m0", NoRoot),
                                        ("_crossing_in_bracket", NoCrossing)])
def test_a_lemma_failure_is_a_fails_row(name, error, monkeypatch, tmp_path, capsys):
    # no root of the profile scale, or no crossing point, would falsify a
    # lemma of the discrete proof: a fails row with both sides 0, not a crash
    import zhangforge.inequalities as ineq
    from zhangforge.cli import main

    def broken(*args):
        raise error("forced for the test")

    monkeypatch.setattr(ineq, name, broken)
    cfg = {"bodies": [{"family": "cube", "dim": 3, "params": {"edge": [-1, 1]},
                       "name": "sym_cube3"}],
           "checkers": ["completely_discrete_berwald", "mu_gn_sandwich"], "sweeps": []}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    row, other = doc["reports"]
    assert (row["id"], row["verdict"], other["verdict"]) == ("completely_discrete_berwald",
                                                             "fails", "holds")
    assert row["context"] == {"hard_failure": error.__name__, "message": "forced for the test"}
    for side in (row["lhs"], row["rhs"]):
        assert side["value"] == 0.0 and side["exact"] is None
    assert row["slack"] == 0.0
    assert doc["summary"] == {"total": 2, "holds": 1, "fails": 1, "inconclusive": 0}


class TestSweepConfig:
    @pytest.mark.parametrize("kind", sorted(_BAD_SWEEPS))
    def test_bad_sweep_entry_fails_before_any_body_task(self, kind, monkeypatch):
        import zhangforge.harness as harness

        ran = []
        monkeypatch.setattr(harness, "_run_body_task", lambda task: ran.append(task) or [])
        cfg = default_config()
        cfg.sweeps = [*cfg.sweeps, _BAD_SWEEPS[kind]]
        with pytest.raises(ConfigError):
            run_suite(cfg)
        assert ran == []
        with pytest.raises(ConfigError):
            run_sweeps(cfg)

    def test_a_body_of_too_low_a_dimension_fails_before_any_body_task(self, monkeypatch):
        # the target's dimension is read off the spec, so no checker runs first
        import zhangforge.harness as harness

        ran = []
        monkeypatch.setattr(harness, "_run_body_task", lambda task: ran.append(task) or [])
        monkeypatch.setattr(harness, "make_body", lambda spec: ran.append(spec))
        cfg = SuiteConfig.from_json(_UNTAKEN_SWEEPS["sweep-mu_volume-of-a-1d-body"])
        with pytest.raises(ConfigError, match="'unit_interval': mu_volume needs dim >= 2"):
            run_suite(cfg)
        assert ran == []

    def test_each_swept_body_is_built_once(self, monkeypatch):
        import zhangforge.harness as harness

        built = []
        real = harness.make_body
        monkeypatch.setattr(harness, "make_body", lambda spec: built.append(spec.name) or real(spec))
        cfg = SuiteConfig(bodies=[BodySpec("simplex", 2, name="T")], sweeps=[
            {"target": t, "body": "T", "scales": [2]}
            for t in ("gn_volume", "mu_volume", "discrete_to_continuous_zhang",
                      "purely_discrete_to_continuous")])
        assert len(run_sweeps(cfg)) == 4
        assert built == ["T"]


class TestRunSuite:
    def test_misspelt_checker_params_key_is_a_config_error(self):
        cfg = SuiteConfig(bodies=[], sweeps=[],
                          checker_params={"berwald_discret": {"pairs": [[0, 1]]}})
        with pytest.raises(ConfigError, match="berwald_discret"):
            run_suite(cfg)

    def test_empty_bodies_exit_zero(self):
        cfg = SuiteConfig(bodies=[], sweeps=[])
        doc = run_suite(cfg)
        assert doc["summary"] == {"total": 0, "holds": 0, "fails": 0, "inconclusive": 0}
        assert exit_code(doc["summary"]) == 0

    def test_small_suite_all_holds(self, tmp_path):
        cfg = SuiteConfig(
            bodies=[
                BodySpec("simplex", 2, name="T"),
                BodySpec("cube", 2, {"edge": [0, 1]}, name="sq"),
                BodySpec("cube", 2, {"edge": [-1, 1]}, name="sym"),
            ],
            sweeps=[],
        )
        doc = run_suite(cfg, out_dir=str(tmp_path))
        assert doc["summary"]["fails"] == 0
        assert doc["schema"] == "zhang-forge/1"
        assert (tmp_path / "report.json").exists()
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "id,body,lhs,rhs,slack,verdict"
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["summary"] == doc["summary"]
        for row in loaded["reports"]:
            assert row["statement"]

    def test_jobs_do_not_change_bytes(self):
        cfg = SuiteConfig(
            bodies=[
                BodySpec("simplex", 2, name="T"),
                BodySpec("cube", 2, {"edge": [-1, 1]}, name="sym"),
                BodySpec("random_hull", 2, {"count": 6, "seed": 3}, name="r"),
            ],
            sweeps=[{"target": "B_limit", "scales": [100], "params": {"n": 2, "p": 1}}],
        )
        doc1 = run_suite(cfg, jobs=1)
        doc8 = run_suite(cfg, jobs=8)
        assert report_json(doc1) == report_json(doc8)

    def test_corpus_contexts_are_json_native(self):
        # every context value reaches the report as a JSON type, never a numpy scalar
        native = (str, int, float, bool, type(None))

        def walk(obj):
            if isinstance(obj, dict):
                assert all(type(k) is str for k in obj)
                for v in obj.values():
                    walk(v)
            elif type(obj) is list:
                for v in obj:
                    walk(v)
            else:
                assert type(obj) in native, repr(obj)

        cfg = default_config()
        cfg.sweeps = []
        rows = run_suite(cfg)["reports"]
        assert len(rows) > 200
        for row in rows:
            walk(row["context"])

    def test_duplicate_names_rejected(self):
        cfg = SuiteConfig(bodies=[BodySpec("simplex", 2, name="a"),
                                  BodySpec("simplex", 2, name="a")], sweeps=[])
        with pytest.raises(ConfigError):
            run_suite(cfg)

    def test_directional_theta_param_with_mixed_dimensions(self):
        # a configured 2-d direction must not break 3-d bodies (falls back)
        cfg = SuiteConfig(
            bodies=[BodySpec("simplex", 2, name="T2"), BodySpec("simplex", 3, name="T3")],
            checkers=["zhang_directional"],
            checker_params={"zhang_directional": {"theta": [2, 1]}},
            sweeps=[],
        )
        doc = run_suite(cfg)
        assert doc["summary"]["fails"] == 0
        thetas = {r["body"]: r["context"]["theta"] for r in doc["reports"]}
        assert thetas == {"T2": ["2", "1"], "T3": ["1", "1", "1"]}


def test_default_corpus_run_takes_at_most_14_lps_and_123_hulls(monkeypatch):
    # a work-count guard: one LP per body (the e_n ray support), none per
    # overlap, and no more hulls than the corpus needs today
    from collections import Counter

    calls = _count_calls(monkeypatch, "lp_solve", "convex_hull")
    doc = run_suite(default_config(), jobs=1)
    assert doc["summary"]["fails"] == 0
    counts = Counter(calls)
    assert 0 < counts["lp_solve"] <= 14
    assert 0 < counts["convex_hull"] <= 123


def test_default_corpus_run_builds_no_rational_rows(monkeypatch):
    # a work-count guard: the producers of the halfspace round trip pass
    # integer rows to Polytope.from_int_rows, never rational rows to the
    # from_halfspaces adapter, and no reader clears rational points back to
    # integers that the polytope already holds.  Only the integer_points
    # calls that clear a non-int coordinate count; the hull's all-int points
    # pass through uncounted (59 clearing calls, 93 pass-throughs measured)
    import importlib
    import pkgutil
    from collections import Counter

    import zhangforge
    from zhangforge.polytope import Polytope

    calls = []

    def clearing(real):
        def wrapper(points, *a, **k):
            if any(type(x) is not int for p in points for x in p):
                calls.append("integer_points")
            return real(points, *a, **k)
        return wrapper

    for info in pkgutil.iter_modules(zhangforge.__path__):
        if info.name.startswith("__"):
            continue
        mod = importlib.import_module(f"zhangforge.{info.name}")
        real = getattr(mod, "integer_points", None)
        if real is not None:
            monkeypatch.setattr(mod, "integer_points", clearing(real))
    real = Polytope.from_halfspaces
    monkeypatch.setattr(Polytope, "from_halfspaces", staticmethod(
        lambda *a, **k: calls.append("from_halfspaces") or real(*a, **k)))
    doc = run_suite(default_config(), jobs=1)
    assert doc["summary"]["fails"] == 0
    counts = Counter(calls)
    assert counts["from_halfspaces"] == 0
    assert 0 < counts["integer_points"] <= 59


class TestBodyOperation:
    def test_all_ops(self):
        spec = BodySpec("cube", 2, {"edge": [0, 2]}, name="b")
        assert body_operation(spec, "volume")["value"]["exact"] == "4/1"
        assert body_operation(spec, "lattice")["count"] == 9
        assert body_operation(spec, "mu")["value"]["exact"] == "6/1"
        sym = body_operation(spec, "steiner")["polytope"]
        assert sym["dim"] == 2

    def test_unknown_op(self):
        with pytest.raises(ConfigError):
            body_operation(BodySpec("simplex", 2, name="s"), "frob")


class TestCli:
    def _run(self, *args, **kw):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "zhangforge", *args],
            capture_output=True, text=True, env=env, **kw,
        )

    def test_list_checkers(self):
        res = self._run("list-checkers")
        assert res.returncode == 0
        assert "zhang_volume" in res.stdout

    def test_config_error_is_64(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"checkers": ["nope"]}))
        res = self._run("verify", "--config", str(bad))
        assert res.returncode == 64

    @pytest.mark.parametrize("kind", sorted(_BAD_SWEEPS))
    def test_bad_sweep_entry_is_64_with_no_report(self, kind, tmp_path):
        cfg = {"bodies": [{"family": "cube", "dim": 2, "params": {"edge": [0, 1]},
                           "name": "cube2"}],
               "checkers": ["mu_gn_sandwich"], "sweeps": [_BAD_SWEEPS[kind]]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        res = self._run("verify", "--config", str(path), "--out", str(out))
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error")
        assert not out.exists()
        res = self._run("sweep", "--config", str(path))
        assert res.returncode == 64 and res.stdout == ""

    @pytest.mark.parametrize("kind", sorted(_BAD_CONFIGS))
    def test_bad_config_shape_is_64_with_no_report(self, kind, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_BAD_CONFIGS[kind]))
        out = tmp_path / "out"
        res = self._run("verify", "--config", str(path), "--out", str(out))
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error")
        assert not out.exists()

    @pytest.mark.parametrize("args", [["verify"], ["verify", "--jobs", "2"], ["sweep"]])
    @pytest.mark.parametrize("kind,reason", [
        ("sweep-mu_volume-of-a-1d-body", "'unit_interval': mu_volume needs dim >= 2"),
        ("sweep-discrete_to_continuous_zhang-of-a-flat-body",
         "'diagonal': discrete_to_continuous_zhang needs a full-dimensional body"),
        ("anchor-of-a-flat-body", "'flat': anchor needs a full-dimensional body"),
    ])
    def test_a_body_a_sweep_cannot_take_is_64_naming_it(self, kind, reason, args, tmp_path):
        # exit 1 means a verdict failed; a body the target cannot take is a
        # configuration error, named before any report is written
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_BAD_CONFIGS[kind]))
        out = tmp_path / "out"
        res = self._run(*args, "--config", str(path), *(["--out", str(out)] if args[0] == "verify"
                                                        else []))
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error") and reason in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == "" and not out.exists()

    @pytest.mark.parametrize("pair,bad", [([1, 2.5], "2.5"), ([0, 1], "0")])
    def test_bad_exponent_is_an_inconclusive_row(self, pair, bad, tmp_path):
        # a fractional or zero exponent is reported, not a crash of the run
        cfg = {"bodies": [{"family": "cube", "dim": 2, "params": {"edge": [-1, 1]},
                           "name": "sym"}],
               "checkers": ["berwald_discrete", "mu_gn_sandwich"],
               "checker_params": {"berwald_discrete": {"pairs": [pair]}}, "sweeps": []}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self._run("verify", "--config", str(path), "--out", str(tmp_path))
        assert res.returncode == 2, res.stderr
        rows = json.loads((tmp_path / "report.json").read_text())["reports"]
        assert [r["verdict"] for r in rows] == ["inconclusive", "holds"]
        assert f"exponent {bad} " in rows[0]["context"]["reason"]

    @pytest.mark.parametrize("verb", ["verify", "sweep", "body"])
    @pytest.mark.parametrize("text", ["{\"bodies\": [", "", "\xff\xfe"])
    def test_invalid_json_is_64_with_no_report(self, verb, text, tmp_path):
        # 1 would mean "a checker fails"; a file that does not parse is a
        # configuration error, reported before anything runs
        path = tmp_path / "cfg.json"
        path.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out"
        args = {"verify": ["--config", str(path), "--out", str(out)],
                "sweep": ["--config", str(path)],
                "body": ["--spec", str(path), "--op", "volume"]}[verb]
        res = self._run(verb, *args)
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert not out.exists()

    def test_missing_file_is_64(self):
        res = self._run("verify", "--config", "/nonexistent.json")
        assert res.returncode == 64

    @pytest.mark.parametrize("verb", ["verify", "sweep", "body"])
    def test_a_directory_as_the_input_file_is_64(self, verb, tmp_path):
        # not "a checker fails" (1) with an IsADirectoryError traceback
        args = (["--spec", str(tmp_path), "--op", "volume"] if verb == "body"
                else ["--config", str(tmp_path)])
        res = self._run(verb, *args)
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error")
        assert "Traceback" not in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("verb", ["verify", "sweep"])
    def test_duplicate_body_names_are_64_for_every_verb(self, verb, tmp_path):
        # the sweep verb used to sweep the last body named "a" and exit 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_BAD_CONFIGS["duplicate-body-names"]))
        res = self._run(verb, "--config", str(path))
        assert res.returncode == 64, res.stderr
        assert "body names must be unique" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("args", [["--out", "report"], ["--jobs", "0"]])
    def test_a_bad_out_or_jobs_is_64_before_any_body_runs(self, args, tmp_path, monkeypatch,
                                                          capsys):
        # --out naming an existing file ran the whole suite and then exited 1
        # on FileExistsError; --jobs 0 ran serially
        import zhangforge.harness as harness
        from zhangforge.cli import main

        ran = []
        monkeypatch.setattr(harness, "_run_body_task", lambda task: ran.append(task) or [])
        (tmp_path / "report").write_text("kept")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bodies": [_SYM_SQUARE], "sweeps": []}))
        if args[0] == "--out":
            args = ["--out", str(tmp_path / "report")]
        assert main(["verify", "--config", str(path), *args]) == 64
        assert capsys.readouterr().err.startswith("configuration error")
        assert ran == [] and (tmp_path / "report").read_text() == "kept"

    def test_verify_small_config(self, tmp_path):
        cfg = {
            "bodies": [{"family": "cube", "dim": 2, "params": {"edge": [-1, 1]},
                        "name": "sym"}],
            "checkers": ["discrete_zhang_mu", "mu_gn_sandwich"],
            "sweeps": [],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self._run("verify", "--config", str(path), "--out", str(tmp_path))
        assert res.returncode == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["holds"] == 2

    def test_body_verb(self, tmp_path):
        spec = tmp_path / "body.json"
        spec.write_text(json.dumps({"family": "simplex", "dim": 2, "name": "T"}))
        res = self._run("body", "--spec", str(spec), "--op", "volume")
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"]["exact"] == "1/2"

    @pytest.mark.parametrize("body,key", [
        ({"family": "cube", "dim": 2, "params": {"edg": [0, 2]}}, "'edg'"),
        ({"family": "cube", "dim": 2, "anchr": True}, "'anchr'"),
    ])
    def test_body_verb_names_an_unknown_key(self, body, key, tmp_path):
        # exit 0 with the default unit cube, un-anchored, would hide the typo
        spec = tmp_path / "body.json"
        spec.write_text(json.dumps(body))
        res = self._run("body", "--spec", str(spec), "--op", "volume")
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error") and key in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("params,bad", [({"edge": [[1.5, 2], [True, 1]]}, "1.5"),
                                            ({"edge": [0, float("inf")]}, "inf")])
    def test_body_verb_names_a_bad_rational(self, params, bad, tmp_path):
        # not the square [1/2, 1]^2 with exit 0, nor a traceback with exit 1
        spec = tmp_path / "body.json"
        spec.write_text(json.dumps({"family": "cube", "dim": 2, "params": params}))
        res = self._run("body", "--spec", str(spec), "--op", "volume")
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error") and bad in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("body,op,reason", [
        ({"family": "custom", "dim": 3, "params": {"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]},
          "name": "triangle"}, "steiner", "'triangle': steiner needs a full-dimensional body"),
        (_FLAT_SEGMENT, "steiner", "'diagonal': steiner needs a full-dimensional body"),
        (_UNIT_INTERVAL, "mu", "'unit_interval': mu needs dim >= 2"),
    ])
    def test_body_verb_names_a_body_the_op_cannot_take(self, body, op, reason, tmp_path):
        # a configuration error, not a failed verdict; the ops that take every
        # body still take these
        spec = tmp_path / "body.json"
        spec.write_text(json.dumps(body))
        res = self._run("body", "--spec", str(spec), "--op", op)
        assert res.returncode == 64, res.stderr
        assert res.stderr.startswith("configuration error") and reason in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""
        for op in ("volume", "lattice"):
            res = self._run("body", "--spec", str(spec), "--op", op)
            assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("points", [[[0, 0], [2, 1]], [[1, 1]]])
    def test_body_verb_names_an_anchored_flat_body(self, points, tmp_path):
        # max_section_anchor raised DegenerateBody: exit 1 with a traceback;
        # a 1-d body is full-dimensional and still anchors
        spec = tmp_path / "body.json"
        spec.write_text(json.dumps({"family": "custom", "dim": 2, "params": {"points": points},
                                    "anchor": True, "name": "flat"}))
        res = self._run("body", "--spec", str(spec), "--op", "volume")
        assert res.returncode == 64, res.stderr
        assert "'flat': anchor needs a full-dimensional body, got affine dimension" in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""
        spec.write_text(json.dumps({**_UNIT_INTERVAL, "anchor": True}))
        res = self._run("body", "--spec", str(spec), "--op", "volume")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["value"]["exact"] == "1/1"

    def test_sweep_verb(self, tmp_path):
        cfg = {"bodies": [], "sweeps": [{"target": "B_limit", "scales": [100],
                                         "params": {"n": 2, "p": 1}}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self._run("sweep", "--config", str(path))
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert rows[0]["rows"][0]["reference"] == 0.5


_IMPORT_GUARD = """
import contextlib, io, sys
import zhangforge.cli
from zhangforge.harness import BodySpec, SuiteConfig, body_operation, default_config, run_sweeps
default_config()
with contextlib.redirect_stdout(io.StringIO()):
    assert zhangforge.cli.main(["list-checkers"]) == 0
bodies = [BodySpec("cube", 2, {"edge": [0, 1]}, name="square"),
          BodySpec("cube", 3, {"edge": [0, 1]}, name="cube3")]
bodies += [BodySpec("cross", 2, {"scale": 2}, name="diamond"),
           BodySpec("custom", 2, {"points": [[0, 0], [3, 1], ["5/2", 2], [0, "3/2"]]},
                    name="quad")]
bodies += [BodySpec("random_hull", 2, {"count": 7, "seed": 5}, name="r2"),
           BodySpec("random_hull", 3, {"count": 6, "seed": 6}, name="r3")]
body_operation(BodySpec("random_hull", 3, {"count": 6, "radius": 2, "seed": 11}), "volume")
targets = ("gn_volume", "mu_volume", "discrete_to_continuous_zhang",
           "purely_discrete_to_continuous")
run_sweeps(SuiteConfig(bodies=bodies, sweeps=[
    {"target": t, "body": b.name, "scales": [4, 16]} for b in bodies for t in targets]))
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "concurrent")))
"""


_START_UP = """
import contextlib, io, sys
loaded = lambda: sorted(m for m in sys.modules if m in ("dataclasses", "inspect", "numpy"))
import zhangforge.cli
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert zhangforge.cli.main(["list-checkers"]) == 0
print(loaded())
"""


def test_start_up_loads_neither_dataclasses_nor_inspect_nor_numpy():
    # each would cost every CLI process its import time before any geometry runs
    import zhangforge

    src = str(Path(zhangforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", _START_UP], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["[]", "[]"]


def test_exact_paths_load_neither_numpy_nor_the_process_pool():
    # numpy is loaded only by the binary64 Ball-body radials and by
    # convexhull_inclusion's sampled combinations, the process pool only by
    # run_suite with jobs > 1
    import zhangforge

    src = str(Path(zhangforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
