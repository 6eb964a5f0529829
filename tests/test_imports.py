"""Every module reads each name it imports.

No linter runs on this code base, so this test stands in for the
unused-import rule: it parses each module of the package and each test
module, and lists the imported names that the module never reads.  A ``*``
import binds no name of its own and is skipped; ``__init__.py`` re-exports
its modules that way.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "rafpref").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
