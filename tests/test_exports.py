"""Export lists: every `__all__` entry exists once, and the package re-exports
exactly what its `__init__` imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import convlab

MODULES = ["convlab"] + [
    f"convlab.{info.name}" for info in pkgutil.iter_modules(convlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_and_are_unique(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []


def test_package_all_matches_its_imports():
    tree = ast.parse(Path(convlab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported == set(convlab.__all__)
