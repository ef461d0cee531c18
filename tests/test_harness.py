import json
import subprocess
import sys
from fractions import Fraction

import pytest

from zhangforge.errors import ConfigError
from zhangforge.harness import (
    BodySpec,
    SuiteConfig,
    body_operation,
    default_config,
    default_corpus,
    exit_code,
    make_body,
    report_csv,
    report_json,
    run_suite,
    run_sweeps,
)

F = Fraction


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

    def test_custom(self):
        spec = BodySpec("custom", 2, {"points": [[0, 0], ["1/2", 1], ["1/2", -1]]}, name="c")
        P = make_body(spec)
        assert len(P.vertices) == 3

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            make_body(BodySpec("blob", 2, name="b"))


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


    def test_config_with_tolerances_key_still_runs(self):
        # older configs carry a "tolerances" map; it is ignored, not an error
        cfg = SuiteConfig.from_json({
            "bodies": [{"family": "simplex", "dim": 2, "name": "T"}],
            "checkers": ["zhang_preintegration"],
            "sweeps": [],
            "tolerances": {"zhang_preintegration": 1e-9},
        })
        assert "tolerances" not in cfg.to_json()
        doc = run_suite(cfg)
        assert doc["summary"] == {"total": 1, "holds": 1, "fails": 0, "inconclusive": 0}


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
# vector, a custom body without points)
_BAD_CONFIGS = {
    "sweeps-object": {"bodies": [], "sweeps": {"target": "B_limit", "scales": [100]}},
    "body-without-dim": {"bodies": [{"family": "cube", "name": "c"}], "sweeps": []},
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
}


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
        return subprocess.run(
            [sys.executable, "-m", "zhangforge", *args],
            capture_output=True, text=True, **kw,
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

    def test_missing_file_is_64(self):
        res = self._run("verify", "--config", "/nonexistent.json")
        assert res.returncode == 64

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

    def test_sweep_verb(self, tmp_path):
        cfg = {"bodies": [], "sweeps": [{"target": "B_limit", "scales": [100],
                                         "params": {"n": 2, "p": 1}}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self._run("sweep", "--config", str(path))
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert rows[0]["rows"][0]["reference"] == 0.5
