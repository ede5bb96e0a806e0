"""Every name a module lists in ``__all__`` exists, and every name a module
imports is used or exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hardylab

MODULES = [name for name in ["hardylab"] + [
    f"hardylab.{m.name}" for m in pkgutil.iter_modules(hardylab.__path__)
    if m.name != "__main__"  # importing it runs the command line
] if hasattr(importlib.import_module(name), "__all__")]
SOURCES = sorted(Path(hardylab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _unused_imports(source):
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from os import path, sep\nimport numpy.linalg\nfrom x import kept\n"
              "__all__ = ['kept']\nprint(sep)\n")
    assert _unused_imports(source) == ["numpy", "path"]
