"""Outside-in tracer: spans and counters around zhangforge's public functions.

The tracer rebinds each traced function in every ``zhangforge.*`` module that
holds it (``lp_solve`` is imported by name into four modules, for instance),
and replaces the traced class attributes (``Polytope.from_points``,
``RayMomentEngine.moment``, ...).  Nothing inside the package changes;
``restore`` puts every original binding back.

Spans are kept in memory as flat records (name, parent, start, end, self
time); self time is a span's duration minus the durations of its direct
children.  Counters are incremented by small hooks that look at a call's
arguments and result.
"""

from __future__ import annotations

import gzip
import importlib
import pkgutil
import statistics
from array import array
from collections import Counter
from time import perf_counter

# (module, function, per-layer prefix) for plain functions.  The prefix is
# the metric namespace; a label hook may refine the span name per call.
FUNCTIONS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "det", "linalg.det"),
    ("hull", "convex_hull", "hull.convex_hull"),
    ("lp", "lp_solve", "lp.lp_solve"),
    ("polytope", "intersect", "polytope.intersect"),
    ("polytope", "minkowski_sum", "polytope.minkowski_sum"),
    ("polytope", "vertical_section", "polytope.vertical_section"),
    ("polytope", "max_section_anchor", "polytope.max_section_anchor"),
    ("polytope", "projection_volume", "polytope.projection_volume"),
    ("lattice", "lattice_points", "lattice.lattice_points"),
    ("lattice", "mu_measure", "lattice.mu_measure"),
    ("lattice", "ray_decomposition", "lattice.ray_decomposition"),
    ("steiner", "steiner_symmetrize", "steiner.steiner_symmetrize"),
    ("moments", "covariogram_on_ray", "moments.covariogram_on_ray"),
    ("moments", "ray_support", "moments.ray_support"),
    ("moments", "ray_breakpoints", "moments.ray_breakpoints"),
    ("moments", "radial_batch", "moments.radial_batch"),
    ("moments", "discrete_moment_batch", "moments.discrete_moment_batch"),
    ("moments", "star_volume", "moments.star_volume"),
    ("moments", "section_power_integral", "moments.section_power_integral"),
    ("moments", "slab_moment", "moments.slab_moment"),
    ("moments", "projection_power_moment", "moments.projection_power_moment"),
    ("moments", "mc_section_samples", "moments.mc_section_samples"),
    ("inequalities", "verify", "inequalities.verify"),
    ("inequalities", "diamond_extension", "inequalities.diamond_extension"),
    ("inequalities", "section_profiles", "inequalities.section_profiles"),
    ("inequalities", "limit_sweep", "inequalities.limit_sweep"),
    ("harness", "make_body", "harness.make_body"),
    ("harness", "run_sweeps", "harness.run_sweeps"),
    ("harness", "report_json", "harness.report_json"),
)

# (module, class, attribute, span name) for class attributes.
METHODS = (
    ("polytope", "Polytope", "from_points", "polytope.from_points"),
    ("polytope", "Polytope", "from_halfspaces", "polytope.from_halfspaces"),
    ("moments", "RayMomentEngine", "__init__", "moments.ray_engine.init"),
    ("moments", "RayMomentEngine", "moment", "moments.ray_engine.moment"),
    ("inequalities", "BodyWorkspace", "__init__", "inequalities.workspace.init"),
)

# Bindings the self-test insists on, besides the defining modules.
REQUIRED_BINDINGS = (
    ("lattice", "lp_solve"),
    ("moments", "lp_solve"),
    ("inequalities", "lp_solve"),
    ("polytope", "lp_solve"),
    ("polytope", "convex_hull"),
    ("harness", "verify"),
)

_BUILD = "moments.ray_engine.build"
PACKAGE = "zhangforge"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one record per finished span: name id, parent id, own id, nested
        # flag (an ancestor has the same name), start, end, self time
        self._ids = array("q")
        self._times = array("d")
        self._stack: list[list] = []  # [span id, child seconds] of open spans
        self._open_names: Counter = Counter()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, object] = {}
        self.bindings: dict[str, list[tuple[str, str]]] = {}

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _call(self, name: str, fn, args, kwargs):
        nid = self._name_id(name)
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        nested = self._open_names[nid] > 0
        self._open_names[nid] += 1
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._open_names[nid] -= 1
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self._ids.extend((nid, parent, sid, nested))
            self._times.extend((t0, t1, dur - frame[1]))

    def in_span(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and self._open_names[nid] > 0

    # -- wrappers ----------------------------------------------------------

    def _function_wrapper(self, fn, prefix: str):
        label = _LABELS.get(prefix)
        hook = _HOOKS.get(prefix)
        tracer = self

        def traced(*args, **kwargs):
            name = prefix if label is None else f"{prefix}.{label(args, kwargs)}"
            if hook is None:
                return tracer._call(name, fn, args, kwargs)
            return hook(tracer, name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", prefix)
        return traced

    def _method_wrapper(self, fn, name: str):
        tracer = self
        if name == "moments.ray_engine.moment":

            def traced(engine, *args, **kwargs):
                if engine._panels is not None:
                    return tracer._call(name, fn, (engine,) + args, kwargs)
                tracer.counts[_BUILD + ".builds"] += 1
                try:
                    return tracer._call(_BUILD, fn, (engine,) + args, kwargs)
                finally:
                    if not engine.certified:
                        tracer.counts["moments.ray_engine.uncertified"] += 1

        elif name == "polytope.from_halfspaces":

            def traced(*args, **kwargs):
                out = tracer._call(name, fn, args, kwargs)
                if out is None:
                    tracer.counts["polytope.from_halfspaces.empty"] += 1
                return out

        else:

            def traced(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name.startswith("__"):  # __main__ would run the CLI
                continue
            mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
        return mods

    def install(self) -> "Tracer":
        mods = self._modules()
        for modname, attr, prefix in FUNCTIONS:
            home = importlib.import_module(f"{PACKAGE}.{modname}")
            original = getattr(home, attr)
            wrapper = self._function_wrapper(original, prefix)
            self.wrappers[prefix] = wrapper
            found = []
            for mod in mods:
                if mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found.append((mod.__name__, attr))
            self.bindings[prefix] = found
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._method_wrapper(raw.__func__, name))
            else:
                wrapper = self._method_wrapper(raw, name)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapper)
            self.wrappers[name] = wrapper
            self.bindings[name] = [(f"{cls.__module__}.{clsname}", attr)]
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def binding_problems(self) -> list[str]:
        """Listed bindings that do not hold the wrapper (empty when installed)."""
        bad = []
        mods = {m.__name__: m for m in self._modules()}
        for modname, attr, prefix in FUNCTIONS:
            wanted = [(f"{PACKAGE}.{modname}", attr)]
            wanted += [(f"{PACKAGE}.{m}", a) for m, a in REQUIRED_BINDINGS if a == attr]
            for mname, a in wanted + self.bindings.get(prefix, []):
                if mods[mname].__dict__.get(a) is not self.wrappers.get(prefix):
                    bad.append(f"{mname}.{a}")
        for modname, clsname, attr, name in METHODS:
            cls = getattr(mods[f"{PACKAGE}.{modname}"], clsname)
            if cls.__dict__.get(attr) is not self.wrappers.get(name):
                bad.append(f"{cls.__module__}.{clsname}.{attr}")
        return sorted(set(bad))

    def leftover_wrappers(self) -> list[str]:
        """Bindings that still hold a wrapper (empty after ``restore``)."""
        wrappers = {id(w) for w in self.wrappers.values()}
        bad = []
        for mod in self._modules():
            for attr, val in vars(mod).items():
                if id(val) in wrappers:
                    bad.append(f"{mod.__name__}.{attr}")
                if isinstance(val, type):
                    bad += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(val).items()
                            if id(v) in wrappers]
        return bad

    # -- results -----------------------------------------------------------

    def spans(self):
        """Finished spans as (name, span id, parent id, nested, start, end, self_s)."""
        ids, times, names = self._ids, self._times, self._names
        for i in range(len(ids) // 4):
            nid, parent, sid, nested = ids[4 * i: 4 * i + 4]
            t0, t1, self_s = times[3 * i: 3 * i + 3]
            yield names[nid], sid, parent, bool(nested), t0, t1, self_s

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds (outermost)."""
        out: dict[str, dict[str, float]] = {}
        for name, _sid, _parent, nested, t0, t1, self_s in self.spans():
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            if not nested:
                row["s"] += t1 - t0
        return out

    def self_times(self) -> list[float]:
        return [self._times[3 * i + 2] for i in range(len(self._times) // 3)]

    def starts(self, name: str) -> list[float]:
        return [t0 for n, _s, _p, _n, t0, _t1, _self in self.spans() if n == name]

    def write(self, path: str) -> None:
        """Write every span, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tid\tparent\tstart\tend\tself_s\n")
            for name, sid, parent, _nested, t0, t1, self_s in self.spans():
                fh.write(f"{name}\t{sid}\t{parent}\t{t0:.9f}\t{t1:.9f}\t{self_s:.9f}\n")


def traced_call(call):
    """Run ``call()`` with a tracer installed; return (tracer, result, wall, problems).

    ``problems`` lists failed self-test checks: a listed binding that did not
    hold its wrapper, a wrapper left behind after ``restore``, a negative self
    time, or self times summing above the traced wall time.
    """
    t = Tracer().install()
    try:
        problems = [f"binding not traced: {b}" for b in t.binding_problems()]
        t0 = perf_counter()
        result = call()
        wall = perf_counter() - t0
    finally:
        t.restore()
    problems += [f"binding not restored: {b}" for b in t.leftover_wrappers()]
    selfs = t.self_times()
    if min(selfs, default=0.0) < -1e-9:
        problems.append("negative self time")
    if sum(selfs) > wall:
        problems.append("self times sum above the traced wall time")
    return t, result, wall, problems


# -- per-call labels and counter hooks ----------------------------------------

def _lattice_label(args, kwargs):
    return "open" if _arg(args, kwargs, 1, "open_cube_k", 0) else "closed"


_LABELS = {
    "lattice.lattice_points": _lattice_label,
    "moments.radial_batch": lambda a, k: _arg(a, k, 0, "source"),
    "inequalities.verify": lambda a, k: _arg(a, k, 0, "cid"),
    "inequalities.limit_sweep": lambda a, k: _arg(a, k, 1, "target"),
}


def _hull_hook(tracer, name, fn, args, kwargs):
    points = _arg(args, kwargs, 0, "points")
    tracer.counts["hull.convex_hull.points"] += len(points)
    if points and len(points[0]) == 3:
        tracer.counts["hull.convex_hull.d3.calls"] += 1
    return tracer._call(name, fn, args, kwargs)


def _lp_hook(tracer, name, fn, args, kwargs):
    from zhangforge.errors import Infeasible, Unbounded

    c = _arg(args, kwargs, 0, "c")
    A = _arg(args, kwargs, 1, "A")
    tracer.counts["lp.lp_solve.cells"] += len(A) * len(c)
    try:
        return tracer._call(name, fn, args, kwargs)
    except (Infeasible, Unbounded):
        tracer.counts["lp.lp_solve.raised"] += 1
        raise


def _lattice_hook(tracer, name, fn, args, kwargs):
    out = tracer._call(name, fn, args, kwargs)
    tracer.counts[name + ".kept"] += len(out)
    return out


def _covariogram_hook(tracer, name, fn, args, kwargs):
    if tracer.in_span(_BUILD):
        tracer.counts["moments.covariogram_on_ray.in_build"] += 1
    return tracer._call(name, fn, args, kwargs)


def _verify_hook(tracer, name, fn, args, kwargs):
    rep = tracer._call(name, fn, args, kwargs)
    if rep.context.get("retried"):
        tracer.counts["inequalities.verify.retried"] += 1
    return rep


_HOOKS = {
    "hull.convex_hull": _hull_hook,
    "lp.lp_solve": _lp_hook,
    "lattice.lattice_points": _lattice_hook,
    "moments.covariogram_on_ray": _covariogram_hook,
    "inequalities.verify": _verify_hook,
}


# -- per-layer metric names ---------------------------------------------------

def layer_metric_names(checker_ids, sources, targets) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out: list[tuple[str, str]] = []

    def calls_self(name):
        out.extend([(f"{name}.calls", "count"), (f"{name}.self_s", "s")])

    calls_self("linalg.rref")
    calls_self("linalg.det")
    out.append(("hull.convex_hull.calls", "count"))
    out.append(("hull.convex_hull.d3.calls", "count"))
    out.append(("hull.convex_hull.points", "count"))
    out.append(("hull.convex_hull.self_s", "s"))
    calls_self("lp.lp_solve")
    out.append(("lp.lp_solve.cells", "count"))
    out.append(("lp.lp_solve.raised", "count"))
    calls_self("polytope.from_points")
    calls_self("polytope.from_halfspaces")
    out.append(("polytope.from_halfspaces.empty", "count"))
    for name in ("intersect", "minkowski_sum", "vertical_section"):
        calls_self(f"polytope.{name}")
    out.append(("polytope.max_section_anchor.self_s", "s"))
    out.append(("polytope.projection_volume.self_s", "s"))
    for kind in ("closed", "open"):
        calls_self(f"lattice.lattice_points.{kind}")
        out.append((f"lattice.lattice_points.{kind}.kept", "count"))
    out.append(("lattice.mu_measure.self_s", "s"))
    out.append(("lattice.ray_decomposition.self_s", "s"))
    calls_self("steiner.steiner_symmetrize")
    out.append(("moments.ray_engine.builds", "count"))
    out.append(("moments.ray_engine.build_s", "s"))
    out.append(("moments.ray_engine.uncertified", "count"))
    calls_self("moments.covariogram_on_ray")
    out.append(("moments.covariogram_on_ray.per_engine", "count"))
    out.append(("moments.ray_support.self_s", "s"))
    out.append(("moments.ray_breakpoints.self_s", "s"))
    out.extend((f"moments.radial_batch.{s}.s", "s") for s in sources)
    for name in ("discrete_moment_batch", "star_volume", "section_power_integral",
                 "slab_moment", "projection_power_moment", "mc_section_samples"):
        out.append((f"moments.{name}.self_s", "s"))
    out.extend((f"inequalities.verify.{c}.s", "s") for c in checker_ids)
    out.append(("inequalities.verify.retried", "count"))
    out.append(("inequalities.workspace.builds", "count"))
    calls_self("inequalities.diamond_extension")
    out.append(("inequalities.section_profiles.self_s", "s"))
    out.extend((f"inequalities.limit_sweep.{t}.s", "s") for t in targets)
    out.append(("harness.make_body.self_s", "s"))
    out.append(("harness.body_s.p50", "s"))
    out.append(("harness.body_s.max", "s"))
    out.append(("harness.run_sweeps.s", "s"))
    out.append(("harness.report_json.s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


def layer_values(tracer: Tracer, metrics: list[tuple[str, str]], speed_factor: float,
                 overhead_s: float) -> dict[str, float]:
    """Values of the (name, unit) per-layer metrics; zero where a layer was idle.

    Times (unit ``s``) are multiplied by the traced call's ``speed_factor``,
    as the end-to-end times are; ``overhead_s`` is already at reference speed.
    """
    summ = tracer.summary()
    vals: dict[str, float] = {}
    for name, row in summ.items():
        vals[f"{name}.calls"] = row["calls"]
        vals[f"{name}.self_s"] = row["self_s"]
        vals[f"{name}.s"] = row["s"]
    vals.update(tracer.counts)
    builds = tracer.counts[_BUILD + ".builds"]
    vals["moments.ray_engine.builds"] = builds
    vals["moments.ray_engine.build_s"] = summ.get(_BUILD, {}).get("s", 0.0)
    in_build = tracer.counts["moments.covariogram_on_ray.in_build"]
    vals["moments.covariogram_on_ray.per_engine"] = in_build / builds if builds else 0.0
    vals["inequalities.workspace.builds"] = summ.get("inequalities.workspace.init", {}).get(
        "calls", 0)
    bodies = body_times(tracer)
    vals["harness.body_s.p50"] = statistics.median(bodies) if bodies else 0.0
    vals["harness.body_s.max"] = max(bodies) if bodies else 0.0
    out = {n: float(vals.get(n, 0)) * (speed_factor if u == "s" else 1.0) for n, u in metrics}
    out["trace.overhead_s"] = overhead_s
    return out


def body_times(tracer: Tracer) -> list[float]:
    """Per-body seconds: from one suite-level make_body call to the next.

    Only make_body calls outside run_sweeps count; the last body ends where
    run_sweeps starts.
    """
    sweeps = tracer.starts("harness.run_sweeps")
    end = min(sweeps) if sweeps else None
    starts = sorted(t for t in tracer.starts("harness.make_body") if end is None or t < end)
    if not starts or end is None:
        return []
    bounds = starts + [end]
    return [b - a for a, b in zip(bounds, bounds[1:])]
