import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(Path(temporal_range.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library_and_numpy(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert {m for m in imported if m.split(".")[0] not in allowed} == set()
