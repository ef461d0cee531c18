"""Corpus generation, suite orchestration and report emission.

A suite configuration is a single JSON document; reports embed it verbatim for
provenance.  Reports are byte-identical for identical (config, seed) across
runs and worker counts: work is partitioned per body, each body's checkers run
in a deterministic order with RNG streams seeded from (global seed, body name),
and rows are merged in configuration order.
"""

from __future__ import annotations

import csv
import io
import json
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError, DegenerateSpec, SingularMap
from .inequalities import (
    SWEEP_TARGETS,
    BodyWorkspace,
    applicability,
    check_B_limit,
    check_checker_params,
    check_lattice_scales,
    checker_ids,
    checker_statement,
    limit_sweep,
    verify,
)
from .lattice import count_lattice, lattice_points, mu_measure
from .linalg import affine_basis, det
from .polytope import (
    Polytope,
    max_section_anchor,
    polytope_to_json,
    transform,
    volume,
)
from .steiner import steiner_symmetrize
from .verdict import MeasureValue

SCHEMA = "zhang-forge/1"
_SWEEP_SCALES = [4, 16, 64]  # a sweep entry's scales when it names none


def parse_rational(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise ConfigError("boolean is not a rational")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return Fraction(int(v[0]), int(v[1]))
    raise ConfigError(f"cannot parse rational from {v!r}")


@dataclass(frozen=True)
class BodySpec:
    family: str
    dim: int
    params: dict = field(default_factory=dict)
    affine: tuple | None = None  # (matrix, vector) of rationals
    anchor: bool = False
    name: str = ""

    @staticmethod
    def from_json(obj: dict) -> "BodySpec":
        try:
            spec = BodySpec(
                family=obj["family"],
                dim=obj["dim"],
                params=dict(obj.get("params", {})),
                affine=tuple(obj["affine"]) if obj.get("affine") else None,
                anchor=obj.get("anchor", False),
                name=obj.get("name", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"a body needs a family, an integer dim and params: {obj!r}") from exc
        if not isinstance(spec.name, str):
            raise ConfigError(f"a body name is a string, got {spec.name!r}")
        if not isinstance(spec.dim, int) or isinstance(spec.dim, bool):
            raise ConfigError(f"a body dim is an integer, got {spec.dim!r}")
        if not isinstance(spec.anchor, bool):
            raise ConfigError(f"a body anchor is true or false, got {spec.anchor!r}")
        return spec

    def to_json(self) -> dict:
        out = {"family": self.family, "dim": self.dim, "params": self.params,
               "anchor": self.anchor, "name": self.name}
        if self.affine:
            out["affine"] = list(self.affine)
        return out


def _unit_vec(n: int, i: int, s=1) -> tuple:
    return tuple(Fraction(s if j == i else 0) for j in range(n))


def make_body(spec: BodySpec) -> Polytope:
    """Deterministic polytope from a body specification; params that do not
    parse (a missing key or vector, text where a number belongs) raise
    ``ConfigError``."""
    n = spec.dim
    fam = spec.family
    try:
        if fam == "simplex":
            scale = parse_rational(spec.params.get("scale", 1))
            pts = [tuple(Fraction(0) for _ in range(n))]
            pts += [tuple(scale * c for c in _unit_vec(n, i)) for i in range(n)]
        elif fam == "cube":
            edge = spec.params.get("edge", [0, 1])
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise ConfigError(f"a cube edge is a list [lo, hi], got {edge!r}")
            lo, hi = (parse_rational(c) for c in edge)
            pts = [tuple(hi if (mask >> i) & 1 else lo for i in range(n)) for mask in range(2**n)]
        elif fam == "cross":
            scale = parse_rational(spec.params.get("scale", 1))
            pts = [tuple(scale * c for c in _unit_vec(n, i, s)) for i in range(n) for s in (1, -1)]
        elif fam == "random_hull":
            pts = _random_hull_points(spec)
        elif fam == "custom":
            pts = [tuple(parse_rational(c) for c in p) for p in spec.params["points"]]
        else:
            raise ConfigError(f"unknown body family {spec.family!r}")
        if spec.affine:
            A = [[parse_rational(c) for c in row] for row in spec.affine[0]]
            b = [parse_rational(c) for c in spec.affine[1]]
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"body {spec.name!r}: bad params ({type(exc).__name__}: {exc})") from exc
    P = Polytope.from_points(pts, n)
    if fam == "random_hull" and not P.is_full_dimensional:
        raise DegenerateSpec("random hull did not reach full dimension")
    if spec.affine:
        if det(A) == 0:
            raise SingularMap("corpus bodies need an invertible affine map")
        P = transform(P, A, b)
    if spec.anchor:
        y = max_section_anchor(P)
        P = P.translated(tuple(-c for c in y) + (Fraction(0),))
    return P


def _random_hull_points(spec: BodySpec):
    import numpy as np

    n = spec.dim
    count = int(spec.params.get("count", 8))
    radius = parse_rational(spec.params.get("radius", 1))
    seed = int(spec.params.get("seed", 0))
    den = int(spec.params.get("denominator", 4))
    top = int(radius * den)
    rng = np.random.default_rng(seed)
    for _round in range(100):
        raw = rng.integers(-top, top + 1, size=(count, n))
        pts = [tuple(Fraction(int(v), den) for v in row) for row in raw]
        if len(affine_basis(sorted(set(pts)))) == n + 1:
            return pts
    raise DegenerateSpec("no full-dimensional hull after 100 rejection rounds")


def check_checkers(checkers, checker_params) -> None:
    """Raise ``ConfigError`` for an entry of ``checkers`` or a key of
    ``checker_params`` that is not a checker id (a misspelt key would
    otherwise be dropped in silence), or a checker param of the wrong shape."""
    known = set(checker_ids())
    bad = [c for c in [*checkers, *checker_params] if c not in known]
    if bad:
        raise ConfigError(f"unknown checker ids: {bad}")
    check_checker_params(checker_params)


# the type of each top-level field of a suite config; a bool is no int here
_CONFIG_FIELDS = {"bodies": list, "checkers": list, "checker_params": dict, "sweeps": list,
                  "seed": int, "output": dict}
_KIND_NAMES = {list: "a list", dict: "an object", int: "an integer"}


@dataclass
class SuiteConfig:
    bodies: list[BodySpec]
    checkers: list[str] = field(default_factory=checker_ids)
    checker_params: dict = field(default_factory=dict)
    sweeps: list[dict] = field(default_factory=list)
    seed: int = 20240
    output_json: str = "report.json"
    output_csv: str = "report.csv"

    @staticmethod
    def from_json(obj: dict) -> "SuiteConfig":
        """The config a JSON object describes; ``ConfigError`` for a document
        that is not an object or a field of the wrong type.  Unknown keys,
        such as those of older configs, are ignored."""
        if not isinstance(obj, dict):
            raise ConfigError(f"a suite config is a JSON object, got {obj!r}")
        for key, kind in _CONFIG_FIELDS.items():
            if key in obj and not (isinstance(obj[key], kind) and not isinstance(obj[key], bool)):
                raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {obj[key]!r}")
        params = obj.get("checker_params", {})
        out = obj.get("output", {})
        if not all(isinstance(v, dict) for v in params.values()):
            raise ConfigError(f"checker_params maps checker ids to objects, got {params!r}")
        if not all(isinstance(out.get(k, ""), str) for k in ("json", "csv")):
            raise ConfigError(f"output file names must be strings, got {out!r}")
        ids = list(obj.get("checkers", checker_ids()))
        check_checkers(ids, params)
        return SuiteConfig(
            bodies=[BodySpec.from_json(b) for b in obj.get("bodies", [])],
            checkers=ids,
            checker_params=dict(params),
            sweeps=list(obj.get("sweeps", [])),
            seed=obj.get("seed", 20240),
            output_json=out.get("json", "report.json"),
            output_csv=out.get("csv", "report.csv"),
        )

    def to_json(self) -> dict:
        return {
            "bodies": [b.to_json() for b in self.bodies],
            "checkers": list(self.checkers),
            "checker_params": self.checker_params,
            "sweeps": self.sweeps,
            "seed": self.seed,
            "output": {"json": self.output_json, "csv": self.output_csv},
        }


def default_corpus() -> list[BodySpec]:
    """The standard verification corpus (14 bodies, dimensions 2 and 3)."""
    return [
        BodySpec("simplex", 2, name="simplex2"),
        BodySpec("simplex", 3, name="simplex3"),
        BodySpec("simplex", 2, {"scale": 2}, name="simplex2_scaled"),
        BodySpec("cube", 2, {"edge": [0, 1]}, name="cube2"),
        BodySpec("cube", 2, {"edge": [-1, 1]}, name="sym_cube2"),
        BodySpec("cube", 2, {"edge": [0, 2]}, name="rect2"),
        BodySpec("cube", 2, {"edge": ["1/4", "3/4"]}, name="tiny2"),
        BodySpec("cube", 3, {"edge": [0, 1]}, name="cube3"),
        BodySpec("cube", 3, {"edge": [-1, 1]}, name="sym_cube3"),
        BodySpec("cross", 2, {"scale": 2}, name="cross2"),
        BodySpec("cross", 3, {"scale": 2}, name="cross3"),
        BodySpec(
            "custom",
            2,
            {"points": [[-2, "1/3"], [2, "1/3"], [-2, "1/2"], [2, "1/2"]]},
            name="slab2",
        ),
        BodySpec("random_hull", 2, {"count": 8, "radius": 2, "seed": 7}, name="rand2_7"),
        BodySpec("random_hull", 3, {"count": 6, "radius": 2, "seed": 11}, name="rand3_11"),
    ]


def default_config() -> SuiteConfig:
    return SuiteConfig(
        bodies=default_corpus(),
        sweeps=[
            {"target": "gn_volume", "body": "cube2", "scales": [4, 16, 64]},
            {"target": "gn_volume", "body": "simplex2", "scales": [4, 16, 64]},
            {"target": "mu_volume", "body": "cube2", "scales": [4, 16, 64]},
            {"target": "discrete_to_continuous_zhang", "body": "cube2", "scales": [4, 16, 64]},
            {"target": "discrete_to_continuous_zhang", "body": "simplex2", "scales": [4, 16, 64]},
            {"target": "purely_discrete_to_continuous", "body": "cube2", "scales": [4, 16, 64]},
            {"target": "purely_discrete_to_continuous", "body": "simplex2", "scales": [4, 16, 64]},
            {"target": "B_limit", "scales": [100, 1000, 10000], "params": {"n": 2, "p": 1}},
            {"target": "B_limit", "scales": [100, 1000, 10000], "params": {"n": 2, "p": 2}},
        ],
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _body_seed(global_seed: int, name: str) -> int:
    return (global_seed * 0x9E3779B1 + zlib.crc32(name.encode())) % (2**63)


def _mv_json(mv: MeasureValue) -> dict:
    return {
        "value": mv.value,
        "exact": f"{mv.exact.numerator}/{mv.exact.denominator}" if mv.exact is not None else None,
        "abs_error": mv.abs_error,
    }


def _json_safe(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _run_body_task(args) -> list[dict]:
    spec_json, ids, checker_params, seed = args
    spec = BodySpec.from_json(spec_json)
    body = make_body(spec)
    ws = BodyWorkspace(body, seed=_body_seed(seed, spec.name))
    rows = []
    for cid in ids:
        if applicability(cid, ws) is not None:
            continue  # precondition fails: the pair is skipped, not reported
        rep = verify(cid, body, params=dict(checker_params.get(cid, {})), ws=ws)
        rows.append({"id": cid, "body": spec.name, "lhs": _mv_json(rep.lhs),
                     "rhs": _mv_json(rep.rhs), "slack": rep.slack, "verdict": rep.verdict,
                     "statement": checker_statement(cid), "context": _json_safe(rep.context)})
    return rows


def check_sweeps(config: SuiteConfig) -> None:
    """Raise ``ConfigError`` for a sweep entry that is not an object or whose
    scales are not a list or params not an object, with an unknown target, an
    unknown body, a lattice scale that is not a positive integer, or a
    ``B_limit`` entry whose n or p is not a positive integer or whose scale is
    not a positive real."""
    names = {b.name for b in config.bodies}
    for sw in config.sweeps:
        if not (isinstance(sw, dict) and isinstance(sw.get("scales", []), (list, tuple))
                and isinstance(sw.get("params", {}), dict)):
            raise ConfigError(f"a sweep entry needs list scales and object params: {sw!r}")
        target = sw.get("target")
        if target not in SWEEP_TARGETS:
            raise ConfigError(f"unknown sweep target {target!r}")
        if target == "B_limit":
            check_B_limit(sw.get("scales", _SWEEP_SCALES), sw.get("params", {}))
            continue
        name = sw.get("body")
        if name not in names:
            raise ConfigError(f"sweep references unknown body {name!r}")
        check_lattice_scales(sw.get("scales", _SWEEP_SCALES))


def run_sweeps(config: SuiteConfig) -> list[dict]:
    """Every sweep of ``config``, in order, after one check of every entry.

    Each swept body is built once, and its one workspace serves every target
    that sweeps it.
    """
    check_sweeps(config)
    specs = {b.name: b for b in config.bodies}
    workspaces: dict[str, BodyWorkspace] = {}
    out = []
    for sw in config.sweeps:
        target = sw["target"]
        scales = sw.get("scales", _SWEEP_SCALES)
        params = dict(sw.get("params", {}))
        if target == "B_limit":
            rows = limit_sweep(None, target, scales, params)  # type: ignore[arg-type]
            out.append({"target": target, "body": None, "params": params, "rows": rows})
            continue
        name = sw["body"]
        if name not in workspaces:
            workspaces[name] = BodyWorkspace(make_body(specs[name]))
        rows = limit_sweep(workspaces[name], target, scales, params)
        out.append({"target": target, "body": name, "params": params, "rows": rows})
    return out


def run_suite(config: SuiteConfig, out_dir: str | None = None, jobs: int = 1) -> dict:
    """Execute every applicable (body, checker) pair plus the limit sweeps.

    Returns the full report document; also writes JSON/CSV when paths are set.
    """
    names = [b.name for b in config.bodies]
    if len(set(names)) != len(names):
        raise ConfigError("body names must be unique")
    check_checkers(config.checkers, config.checker_params)
    check_sweeps(config)
    tasks = [(b.to_json(), list(config.checkers), config.checker_params, config.seed)
             for b in config.bodies]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_body = list(pool.map(_run_body_task, tasks))
    else:
        per_body = [_run_body_task(t) for t in tasks]
    rows = [row for body_rows in per_body for row in body_rows]
    sweeps = run_sweeps(config)
    summary = {
        "total": len(rows),
        "holds": sum(r["verdict"] == "holds" for r in rows),
        "fails": sum(r["verdict"] == "fails" for r in rows),
        "inconclusive": sum(r["verdict"] == "inconclusive" for r in rows),
    }
    doc = {
        "schema": SCHEMA,
        "config": config.to_json(),
        "reports": rows,
        "sweeps": sweeps,
        "summary": summary,
    }
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        jpath = os.path.join(out_dir, config.output_json)
        cpath = os.path.join(out_dir, config.output_csv)
        with open(jpath, "w") as fh:
            fh.write(report_json(doc))
        with open(cpath, "w") as fh:
            fh.write(report_csv(rows))
    return doc


def report_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


def report_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "body", "lhs", "rhs", "slack", "verdict"])
    for r in rows:
        w.writerow([r["id"], r["body"], r["lhs"]["value"], r["rhs"]["value"], r["slack"], r["verdict"]])
    return buf.getvalue()


def exit_code(summary: dict) -> int:
    if summary["fails"]:
        return 1
    if summary["inconclusive"]:
        return 2
    return 0


# ---------------------------------------------------------------------------
# single-body operations (CLI `body` verb)
# ---------------------------------------------------------------------------

def body_operation(spec: BodySpec, op: str) -> dict:
    P = make_body(spec)
    if op == "volume":
        mv = volume(P)
        return {"op": op, "value": _mv_json(mv), "polytope": polytope_to_json(P)}
    if op == "lattice":
        pts = lattice_points(P)
        return {"op": op, "count": len(pts), "points": [list(p) for p in pts]}
    if op == "steiner":
        S = steiner_symmetrize(P)
        return {"op": op, "polytope": polytope_to_json(S)}
    if op == "mu":
        mv = mu_measure(P)
        return {"op": op, "value": _mv_json(mv), "G_n": count_lattice(P)}
    raise ConfigError(f"unknown body operation {op!r}")
