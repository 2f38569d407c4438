"""Every name a homgrow module exports in __all__ must exist."""

import importlib
import pkgutil

import pytest

import homgrow

MODULES = ["homgrow"] + sorted(
    m.name for m in pkgutil.iter_modules(homgrow.__path__, "homgrow."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
