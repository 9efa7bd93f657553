"""Every name a module of the package exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import jetcocycles

MODULES = sorted(m.name for m in pkgutil.iter_modules(jetcocycles.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"jetcocycles.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"jetcocycles.{module}.__all__ names missing: {missing}"
