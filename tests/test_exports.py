import importlib
import pkgutil

import pytest

import airykpz

MODULES = ["airykpz"] + [f"airykpz.{m.name}" for m in pkgutil.iter_modules(airykpz.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
