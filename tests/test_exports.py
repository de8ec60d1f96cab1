"""Every name a zetalab module exports through __all__ exists, and
importing zetalab pulls in nothing beyond its declared dependencies."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zetalab

MODULES = ["zetalab"] + [f"zetalab.{m.name}" for m in pkgutil.iter_modules(zetalab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_import_does_not_load_numpy():
    # a fresh interpreter, so modules the test run imported do not count
    src = str(Path(zetalab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, zetalab, zetalab.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
