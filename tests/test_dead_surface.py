"""Dead-surface guard: every public top-level name of every module of
``zhangforge`` is used outside the tests.

A name counts as used when it appears as a name, an attribute, an imported
name or a string constant (``perfbench/tracer.py`` wraps functions by their
string names) in any file under ``src/``, ``demos/`` or ``perfbench/``.  A
use inside the name's own definition does not count.  The files are only
parsed, never imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zhangforge"


def _identifiers(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
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


def _uses_outside_tests(module: Path) -> set[str]:
    used = set()
    tree = ast.parse(module.read_text(), str(module))
    for stmt in tree.body:
        used |= _identifiers(stmt) - _defined(stmt)
    others = [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
              if p != module]
    for path in others:
        used |= _identifiers(ast.parse(path.read_text(), str(path)))
    return used


def _dead_names(name: str) -> list[str]:
    module = PACKAGE / f"{name}.py"
    tree = ast.parse(module.read_text(), str(module))
    return sorted(_public_names(tree) - _uses_outside_tests(module))


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


def test_the_guard_sees_a_name_used_only_by_tests():
    # a public def referenced nowhere in the program is reported, and a use
    # inside its own body does not keep it alive
    tree = ast.parse("def orphan(x):\n    return orphan(x - 1)\n\nLIVE = 1\n")
    used = set()
    for stmt in tree.body:
        used |= _identifiers(stmt) - _defined(stmt)
    assert _public_names(tree) - used == {"orphan", "LIVE"}
