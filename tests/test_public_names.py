"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import hardylab

MODULES = [name for name in ["hardylab"] + [
    f"hardylab.{m.name}" for m in pkgutil.iter_modules(hardylab.__path__)
    if m.name != "__main__"  # importing it runs the command line
] if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
