"""Unused-import guard: every name an import binds in ``src/``, ``tests/``,
``demos/`` or ``perfbench/`` is read somewhere in its file.

A name counts as read when it appears as a ``Name`` node (annotations
included, since ``from __future__ import annotations`` only defers them) or
as a string in the module's ``__all__``.  An import whose line carries
``# noqa: F401`` is kept on purpose and skipped.  ``from __future__``
imports and star imports bind no checked name.  The files are only parsed,
never imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("src", "tests", "demos", "perfbench")


def _files() -> list[Path]:
    return sorted(p for d in DIRS for p in (ROOT / d).rglob("*.py"))


def _unused_imports(source: str, filename: str = "<string>") -> list[str]:
    """``line: name`` for each imported name that the module never reads."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if any("noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno}):
                    continue
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", _files(), ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(), str(path)) == []


def test_the_guard_sees_what_it_should():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "from m import (\n"
        "    kept,  # noqa: F401\n"
        "    exported,\n"
        "    hinted,\n"
        "    dropped,\n"
        ")\n"
        "from n import x as y  # noqa: F401\n"
        "__all__ = ['exported']\n"
        "def f(v: hinted) -> None:\n"
        "    return sys.argv, a.b\n"
    )
    assert _unused_imports(src) == ["2: os", "8: dropped"]
