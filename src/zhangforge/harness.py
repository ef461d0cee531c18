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
import math
import os
import zlib
from fractions import Fraction

from .errors import ConfigError, DegenerateSpec, FrozenRecord, Record, SingularMap
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
from .pcg import _PCG64
from .polytope import (
    Polytope,
    axis_direction,
    max_section_anchor,
    polytope_to_json,
    transform,
    volume,
)
from .steiner import steiner_symmetrize
from .verdict import MeasureValue

SCHEMA = "zhang-forge/1"
_SWEEP_SCALES = [4, 16, 64]  # a sweep entry's scales when it names none


def _is_integer(v) -> bool:
    """Whether ``v`` is an integer value: not a bool, and kept by ``int()``."""
    try:
        return not isinstance(v, bool) and int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


def parse_rational(v) -> Fraction:
    """A config value as a rational: a ``Fraction``, an int, a finite float
    (to denominators up to 10^12), a string such as "3/4", or a pair
    [num, den] of integer values.  ``ConfigError`` names a bool, a float
    that is not finite and a pair entry that is not an integer."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise ConfigError("boolean is not a rational")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ConfigError(f"{v!r} is not a rational")
        return Fraction(v).limit_denominator(10**12)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        for x in v:
            if not _is_integer(x):
                raise ConfigError(f"a rational [num, den] takes integers, got {x!r} in {v!r}")
        return Fraction(int(v[0]), int(v[1]))
    raise ConfigError(f"cannot parse rational from {v!r}")


_BODY_KEYS = frozenset({"family", "dim", "params", "affine", "anchor", "name"})
# the params each body family reads
_FAMILY_PARAMS = {"simplex": {"scale"}, "cube": {"edge"}, "cross": {"scale"},
                  "random_hull": {"count", "radius", "seed", "denominator"},
                  "custom": {"points"}}


def _check_params(spec: "BodySpec") -> None:
    """Raise ``ConfigError`` naming a param that the body's family does not
    read (a misspelt key would otherwise fall back to its default)."""
    known = _FAMILY_PARAMS.get(spec.family) if isinstance(spec.family, str) else None
    for key in spec.params if known is not None else ():
        if key not in known:
            raise ConfigError(f"body {spec.name!r}: unknown {spec.family} param {key!r}"
                              f" (known: {', '.join(sorted(known))})")


_set = object.__setattr__


class BodySpec(FrozenRecord):
    __slots__ = _fields = ("family", "dim", "params", "affine", "anchor", "name")

    def __init__(self, family: str, dim: int, params: dict | None = None,
                 affine: tuple | None = None, anchor: bool = False, name: str = ""):
        _set(self, "family", family)
        _set(self, "dim", dim)
        _set(self, "params", {} if params is None else params)
        _set(self, "affine", affine)  # (matrix, vector) of rationals
        _set(self, "anchor", anchor)
        _set(self, "name", name)

    @staticmethod
    def from_json(obj: dict) -> "BodySpec":
        """The body an object describes; ``ConfigError`` for an unknown key, a
        field of the wrong type or an unknown param of its family."""
        for key in obj if isinstance(obj, dict) else ():
            if key not in _BODY_KEYS:
                raise ConfigError(f"unknown body key {key!r}"
                                  f" (known: {', '.join(sorted(_BODY_KEYS))})")
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
        if not isinstance(spec.dim, int) or isinstance(spec.dim, bool) or spec.dim < 1:
            raise ConfigError(f"a body dim is a positive integer, got {spec.dim!r}")
        if not isinstance(spec.anchor, bool):
            raise ConfigError(f"a body anchor is true or false, got {spec.anchor!r}")
        _check_params(spec)
        return spec

    def to_json(self) -> dict:
        out = {"family": self.family, "dim": self.dim, "params": self.params,
               "anchor": self.anchor, "name": self.name}
        if self.affine:
            out["affine"] = list(self.affine)
        return out


def make_body(spec: BodySpec) -> Polytope:
    """Deterministic polytope from a body specification; params that do not
    parse (a missing key or vector, text where a number belongs, no point, a
    point or an affine map whose shape does not match ``dim``) or that the
    family does not read raise ``ConfigError``."""
    n = spec.dim
    fam = spec.family
    _check_params(spec)
    try:
        if fam == "simplex":
            scale = parse_rational(spec.params.get("scale", 1))
            pts = [tuple(Fraction(0) for _ in range(n))]
            pts += [tuple(scale * c for c in axis_direction(n, i).raw) for i in range(n)]
        elif fam == "cube":
            edge = spec.params.get("edge", [0, 1])
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise ConfigError(f"a cube edge is a list [lo, hi], got {edge!r}")
            lo, hi = (parse_rational(c) for c in edge)
            pts = [tuple(hi if (mask >> i) & 1 else lo for i in range(n)) for mask in range(2**n)]
        elif fam == "cross":
            scale = parse_rational(spec.params.get("scale", 1))
            pts = [tuple(s * scale * c for c in axis_direction(n, i).raw)
                   for i in range(n) for s in (1, -1)]
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
    vectors = [*pts, *A, b] if spec.affine else pts
    if not pts or any(len(v) != n for v in vectors) or spec.affine and len(A) != n:
        raise ConfigError(f"body {spec.name!r}: needs at least one point, and its points"
                          f" and affine map in dim {n}")
    P = Polytope.from_points(pts, n)
    if fam == "random_hull" and not P.is_full_dimensional:
        raise DegenerateSpec("random hull did not reach full dimension")
    if spec.affine:
        if det(A) == 0:
            raise SingularMap("corpus bodies need an invertible affine map")
        P = transform(P, A, b)
    if spec.anchor:
        _check_body_takes(spec, P, "anchor")
        y = max_section_anchor(P)
        P = P.translated(tuple(-c for c in y) + (Fraction(0),))
    return P


def _int_param(params: dict, key: str, default: int, least: int) -> int:
    """``params[key]`` (or ``default``) as an integer of at least ``least``;
    ``ValueError`` naming the key for a bool, a value that ``int()`` would
    change or one below ``least``."""
    v = params.get(key, default)
    if not (_is_integer(v) and v >= least):
        raise ValueError(f"random_hull {key} is an integer >= {least}, got {v!r}")
    return int(v)


def _random_hull_points(spec: BodySpec):
    """``count`` points with coordinates in {-t, ..., t}/denominator,
    t = floor(radius * denominator), redrawn until they span dimension n.
    Each round draws as ``numpy.random.default_rng(seed).integers(-t, t + 1,
    size=(count, n))`` does, from the package's own copy of that stream
    (``_PCG64``), so the bodies do not depend on the installed numpy."""
    n = spec.dim
    count = _int_param(spec.params, "count", 8, 0)
    seed = _int_param(spec.params, "seed", 0, 0)
    den = _int_param(spec.params, "denominator", 4, 1)
    radius = parse_rational(spec.params.get("radius", 1))
    if radius < 0:
        raise ValueError(f"random_hull radius is non-negative, got {radius}")
    top = int(radius * den)
    rng = _PCG64(seed)
    for _round in range(100):
        raw = rng.integers(-top, top + 1, count * n)
        ints = [tuple(raw[i:i + n]) for i in range(0, count * n, n)]
        if len(affine_basis(ints)) == n + 1:
            return [tuple(Fraction(v, den) for v in p) for p in ints]
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


class SuiteConfig(Record):
    __slots__ = _fields = ("bodies", "checkers", "checker_params", "sweeps", "seed",
                           "output_json", "output_csv")

    def __init__(self, bodies: list[BodySpec], checkers: list[str] | None = None,
                 checker_params: dict | None = None, sweeps: list[dict] | None = None,
                 seed: int = 20240, output_json: str = "report.json",
                 output_csv: str = "report.csv"):
        self.bodies = bodies
        self.checkers = checker_ids() if checkers is None else checkers
        self.checker_params = {} if checker_params is None else checker_params
        self.sweeps = [] if sweeps is None else sweeps
        self.seed = seed
        self.output_json = output_json
        self.output_csv = output_csv

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
    not a positive real, a body of too low a dimension for its target, and for
    two bodies of one name, which a sweep could not tell apart."""
    specs = {b.name: b for b in config.bodies}
    if len(specs) != len(config.bodies):
        raise ConfigError("body names must be unique")
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
        if name not in specs:
            raise ConfigError(f"sweep references unknown body {name!r}")
        check_lattice_scales(sw.get("scales", _SWEEP_SCALES))
        _check_body_dim(name, specs[name].dim, target)


# the least dimension of the body, and whether it must be full-dimensional,
# for each body operation, sweep target and anchor that cannot take every body
_BODY_NEEDS = {"mu": (2, False), "steiner": (1, True), "anchor": (1, True),
               "mu_volume": (2, False), "discrete_to_continuous_zhang": (2, True),
               "purely_discrete_to_continuous": (2, True)}


def _check_body_dim(name: str, dim: int, what: str) -> None:
    """Raise ``ConfigError`` naming the body when the operation or sweep
    target ``what`` needs a higher dimension (the kernel would raise
    ``DimensionMismatch``); the spec's dim is the body's, so no body is built."""
    least = _BODY_NEEDS.get(what, (1, False))[0]
    if dim < least:
        raise ConfigError(f"body {name!r}: {what} needs dim >= {least}, got {dim}")


def _check_body_takes(spec: BodySpec, P: Polytope, what: str) -> None:
    """``_check_body_dim``, and ``ConfigError`` for a flat body when ``what``
    needs a full-dimensional one (the kernel would raise ``DegenerateBody``)."""
    _check_body_dim(spec.name, P.dim, what)
    if _BODY_NEEDS.get(what, (1, False))[1] and not P.is_full_dimensional:
        raise ConfigError(f"body {spec.name!r}: {what} needs a full-dimensional body,"
                          f" got affine dimension {P.affine_dim} in dim {P.dim}")


def run_sweeps(config: SuiteConfig) -> list[dict]:
    """Every sweep of ``config``, in order, after one check of every entry.

    Each swept body is built once, and its one workspace serves every target
    that sweeps it.  A body a target cannot take raises ``ConfigError``.
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
        _check_body_takes(specs[name], workspaces[name].body, target)
        rows = limit_sweep(workspaces[name], target, scales, params)
        out.append({"target": target, "body": name, "params": params, "rows": rows})
    return out


def run_suite(config: SuiteConfig, out_dir: str | None = None, jobs: int = 1) -> dict:
    """Execute every applicable (body, checker) pair plus the limit sweeps.

    Returns the full report document; also writes JSON/CSV when paths are
    set.  A bad config, ``jobs`` below 1 or an ``out_dir`` at or under a
    file raise ``ConfigError`` before any body runs.
    """
    check_checkers(config.checkers, config.checker_params)
    check_sweeps(config)
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    head = None if out_dir is None else os.path.abspath(out_dir)
    while head is not None and not os.path.exists(head):
        head = os.path.dirname(head)
    if head is not None and not os.path.isdir(head):
        raise ConfigError(f"cannot write reports to {out_dir}: {head} is not a directory")
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
    """The JSON result of ``op`` on the body; ``ConfigError`` for an unknown
    op or a body the op cannot take."""
    P = make_body(spec)
    _check_body_takes(spec, P, op)
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
