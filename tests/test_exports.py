"""Every name a zetalab module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import zetalab

MODULES = ["zetalab"] + [f"zetalab.{m.name}" for m in pkgutil.iter_modules(zetalab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
