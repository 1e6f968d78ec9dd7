"""Every public name the package declares resolves.

Profiling tools find the functions to time through each module's
``__all__``, so a name moved or renamed without its entry would vanish
from their spans silently."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vibsim

MODULES = sorted(f"vibsim.{m.name}" for m in pkgutil.iter_modules(vibsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def test_package_reexports_resolve():
    tree = ast.parse(Path(vibsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"vibsim.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(vibsim, name) is getattr(source, alias.name)
