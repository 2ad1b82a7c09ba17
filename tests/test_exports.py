"""Export lists and imports: every `__all__` entry exists once, the package
re-exports exactly what its `__init__` imports, and every module reads each
name it imports."""

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


def annotation_names(node):
    """Names inside the string annotations under `node`."""
    return {
        inner.id
        for constant in ast.walk(node)
        if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
        for inner in ast.walk(ast.parse(constant.value, mode="eval"))
        if isinstance(inner, ast.Name)
    }


def unused_imports(path):
    """Names an import binds in `path` that the module never reads.

    A name counts as read when it appears as a name (attribute bases
    included), inside a string annotation, or in the module's `__all__`.
    `from __future__` imports and lines marked `# noqa: F401` are exempt.
    """
    lines = path.read_text().splitlines()
    tree = ast.parse("\n".join(lines))
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            read |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read |= set(ast.literal_eval(node.value))
    return bound - read


@pytest.mark.parametrize("path", sorted(Path(convlab.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == set()
