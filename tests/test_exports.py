"""Each public name is listed once, in the ``__all__`` of the module that
defines it; the package re-exports the union of those lists."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import rafpref
from rafpref import cli

#: Every module of the package except the CLI, which stays out of its namespace.
LIBRARY = [
    importlib.import_module(f"rafpref.{info.name}")
    for info in pkgutil.iter_modules(rafpref.__path__)
    if info.name != "cli"
]


def defined_public_names(source: str) -> set[str]:
    """Top-level public functions, classes and upper-case constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("module", [rafpref, cli], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", [*LIBRARY, cli], ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_definitions(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) == defined_public_names(inspect.getsource(module))


def test_package_exports_the_union_of_the_module_lists():
    by_name = {name: module for module in LIBRARY for name in module.__all__}
    assert rafpref.__all__ == sorted(by_name)
    assert all(getattr(rafpref, name) is getattr(by_name[name], name) for name in by_name)


def test_public_definitions_are_found():
    source = "X = 1\n_Y = 2\nz = 3\nW: int = 4\ndef f(): pass\nclass _C: pass\nclass D: pass\n"
    assert defined_public_names(source) == {"X", "W", "f", "D"}
