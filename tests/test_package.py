import importlib
import pkgutil

import pytest

import simplexi

MODULES = sorted(
    f"simplexi.{info.name}" for info in pkgutil.iter_modules(simplexi.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # ``import simplexi`` never reads a module's ``__all__``, so a stale entry
    # would otherwise only fail a star import
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
