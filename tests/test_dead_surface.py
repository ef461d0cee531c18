"""Dead-surface guard: every public top-level name of every module of
``zhangforge`` is used outside the tests.

A name counts as used when it appears as a name, an attribute, an imported
name or a string constant (``perfbench/tracer.py`` wraps functions by their
string names) in any file under ``src/``, ``demos/`` or ``perfbench/``.  A
use inside the name's own definition does not count.  The files are only
parsed, never imported.  The same rule holds for the public members of
``BodyWorkspace``, the checkers' per-body cache, of ``Polytope``, and of the
value types ``Interval``, ``RayDecomposition``, ``HullResult``,
``SectionDistribution`` and ``SectionProfiles``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zhangforge"


def _identifiers(node: ast.AST, skip=()) -> set[str]:
    """The names in ``node``, not descending into the nodes in ``skip``."""
    out = set()
    todo = [node]
    while todo:
        sub = todo.pop()
        if any(sub is s for s in skip):
            continue
        todo.extend(ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _public_names(tree: ast.Module) -> set[str]:
    return {name for stmt in tree.body for name in _defined(stmt) if not name.startswith("_")}


def _uses_in_other_files(module: Path) -> set[str]:
    used = set()
    for path in (p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
                 if p != module):
        used |= _identifiers(ast.parse(path.read_text(), str(path)))
    return used


def _uses_outside_tests(module: Path) -> set[str]:
    used = _uses_in_other_files(module)
    tree = ast.parse(module.read_text(), str(module))
    for stmt in tree.body:
        used |= _identifiers(stmt) - _defined(stmt)
    return used


def _dead_names(name: str) -> list[str]:
    module = PACKAGE / f"{name}.py"
    tree = ast.parse(module.read_text(), str(module))
    return sorted(_public_names(tree) - _uses_outside_tests(module))


def _class_members(cls: ast.ClassDef) -> dict[str, list[ast.AST]]:
    """Public member -> its definitions: a def or an assignment in the class
    body, or a ``self.<name> = ...`` target in one of its methods."""
    members: dict[str, list[ast.AST]] = {}
    for stmt in cls.body:
        for name in _defined(stmt):
            members.setdefault(name, []).append(stmt)
        for sub in ast.walk(stmt):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                members.setdefault(sub.attr, []).append(sub)
    return {name: defs for name, defs in members.items() if not name.startswith("_")}


def _dead_members(tree: ast.Module, class_name: str, others: set[str]) -> list[str]:
    """Public members of ``class_name`` used neither in ``others`` nor in its
    module outside their own definitions."""
    (cls,) = [s for s in tree.body if isinstance(s, ast.ClassDef) and s.name == class_name]
    return sorted(name for name, defs in _class_members(cls).items()
                  if name not in others and name not in _identifiers(tree, defs))


def test_every_public_workspace_member_is_used_outside_the_tests():
    module = PACKAGE / "inequalities.py"
    dead = _dead_members(ast.parse(module.read_text(), str(module)), "BodyWorkspace",
                         _uses_in_other_files(module))
    assert not dead, f"public BodyWorkspace members used only by tests: {dead}"


@pytest.mark.parametrize("name, class_name", [("polytope", "Interval"),
                                              ("polytope", "Polytope"),
                                              ("lattice", "RayDecomposition"),
                                              ("hull", "HullResult"),
                                              ("moments", "SectionDistribution"),
                                              ("inequalities", "SectionProfiles")])
def test_every_public_value_type_member_is_used_outside_the_tests(name, class_name):
    module = PACKAGE / f"{name}.py"
    dead = _dead_members(ast.parse(module.read_text(), str(module)), class_name,
                         _uses_in_other_files(module))
    assert not dead, f"public {class_name} members used only by tests: {dead}"


def test_the_guard_sees_a_member_used_only_by_tests():
    # a property read only by itself and an attribute only assigned are
    # reported; a member read elsewhere in the module is not
    tree = ast.parse("class W:\n"
                     "    def __init__(self):\n        self.kept = 1\n        self.stored = 2\n"
                     "    @property\n    def orphan(self):\n        return self.orphan\n"
                     "\n\ndef user(w):\n    return w.kept\n")
    assert _dead_members(tree, "W", set()) == ["orphan", "stored"]


def test_every_public_moments_name_is_used_outside_the_tests():
    dead = _dead_names("moments")
    assert not dead, f"public names of zhangforge.moments used only by tests: {dead}"


def test_every_public_inequalities_name_is_used_outside_the_tests():
    dead = _dead_names("inequalities")
    assert not dead, f"public names of zhangforge.inequalities used only by tests: {dead}"


# moments and inequalities keep the named tests above
@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem not in ("moments", "inequalities")))
def test_every_public_name_is_used_outside_the_tests(name):
    dead = _dead_names(name)
    assert not dead, f"public names of zhangforge.{name} used only by tests: {dead}"


# the section-length and profile layers take the one object each reads
_NO_DEFAULTS = {"lattice": {"column_length_sum"},
                "moments": {"section_distribution", "section_power_integral",
                            "projection_power_moment", "slab_moment"},
                "inequalities": {"section_profiles", "_solve_m0", "crossing_point"}}


def test_section_length_and_profile_routes_have_no_optional_parameters():
    found = {}
    for name, wanted in _NO_DEFAULTS.items():
        module = PACKAGE / f"{name}.py"
        for stmt in ast.parse(module.read_text(), str(module)).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in wanted:
                args = stmt.args
                found[stmt.name] = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert found == {f: 0 for names in _NO_DEFAULTS.values() for f in names}


def test_the_guard_sees_a_name_used_only_by_tests():
    # a public def referenced nowhere in the program is reported, and a use
    # inside its own body does not keep it alive
    tree = ast.parse("def orphan(x):\n    return orphan(x - 1)\n\nLIVE = 1\n")
    used = set()
    for stmt in tree.body:
        used |= _identifiers(stmt) - _defined(stmt)
    assert _public_names(tree) - used == {"orphan", "LIVE"}
