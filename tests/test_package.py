import importlib
import pkgutil

import pytest

import temporal_range

MODULES = sorted(m.name for m in pkgutil.iter_modules(temporal_range.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A deletion that leaves its name in __all__ fails here, not at a
    # user's `from temporal_range.<module> import *`.
    module = importlib.import_module(f"temporal_range.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
