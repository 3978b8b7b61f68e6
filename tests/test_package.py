import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_does_not_load_scipy_optimize():
    # only vertex matching and spectral_norm need them, and they are slow to load
    code = ("import sys, simplexi, simplexi.cli;"
            " print(any(m in sys.modules for m in ('scipy.optimize', 'scipy.sparse.linalg')))")
    root = os.path.dirname(os.path.dirname(simplexi.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
