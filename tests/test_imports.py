"""Every module reads each name it imports, and the package reads each of
its private names.

No linter runs on this code base, so these tests stand in for the
unused-import and unused-name rules.  The first parses each module of the
package and each test module, and lists the imported names that the module
never reads.  A ``*`` import binds no name of its own and is skipped;
``__init__.py`` re-exports its modules that way.  The second lists each
private name (``_name``) that a package module binds at its top level, by
``def``, ``class`` or assignment, and that no module of the package reads.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rafpref").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = (
        "import json\nfrom math import inf, pi\nfrom .raf import Raf as R\nfrom .raf import *\n\n"
        "R = pi\n"
    )
    assert unread_imports(source) == ["line 1: json", "line 2: inf", "line 3: R"]


def unread_private_names(sources: Mapping[str, str]) -> list[str]:
    """Top-level ``_name`` bindings of the modules in ``sources`` (name ->
    source) that no module reads, as a name or as an attribute."""
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            bound += [(module, node.lineno, name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module} line {line}: {name}"
        for module, line, name in bound
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": (
            "__all__ = []\n_LEVELS = {}\n_SEEN: int = 1\n_A = _B = 2\n\n"
            "def _helper():\n    return _SEEN\n\nclass _Kind:\n    pass\n\nPUBLIC = 3\n"
        ),
        "b.py": "from .a import _A\nimport a\n\nprint(_A, a._Kind)\n",
    }
    assert unread_private_names(sources) == [
        "a.py line 2: _LEVELS", "a.py line 4: _B", "a.py line 6: _helper"
    ]
