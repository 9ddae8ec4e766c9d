import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import temporal_range
from temporal_range.linalg import Rng
from temporal_range.tasks import CopyTaskSpec, ImitationSpec, gen_copyk, gen_imitation

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


def _bench_tracer():
    """``bench/tracer.py``, loaded by path: the names the benchmark wraps."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_traces_resolves():
    # The benchmark is pinned: it patches these names in place, so deleting
    # or renaming one breaks its runs.
    tracer = _bench_tracer()
    missing = [f"{module}.{name}" for module, name, _ in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"temporal_range.{module}"),
                                       name, None))]
    cells = importlib.import_module("temporal_range.cells")
    missing += [f"cells.{tracer.CELL_CLASSES[kind]}.{method}"
                for kind, method in tracer.CELL_METHODS
                if method not in vars(getattr(cells, tracer.CELL_CLASSES[kind], object))]
    assert missing == []


def _package_lookups(tree) -> set[tuple[str, str]]:
    """Every ``(module, name)`` read as ``tr.<module>.<name>`` or
    ``self.tr.<module>.<name>`` in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            root = node.value.value
            if (isinstance(root, ast.Name) and root.id == "tr"
                    or isinstance(root, ast.Attribute) and root.attr == "tr"
                    and isinstance(root.value, ast.Name) and root.value.id == "self"):
                found.add((node.value.attr, node.attr))
    return found


def test_every_name_the_benchmark_workloads_read_resolves():
    # The workloads reach the package through ``tr``, so a deleted or renamed
    # name surfaces only when a benchmark run reaches it.
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    lookups = _package_lookups(ast.parse(path.read_text(encoding="utf-8")))
    assert ("training", "train") in lookups and ("oracles", "RecurrenceSpec") in lookups
    missing = sorted(f"{module}.{name}" for module, name in lookups
                     if not hasattr(importlib.import_module(f"temporal_range.{module}"), name))
    assert missing == []


@pytest.mark.parametrize("data", [
    gen_copyk(CopyTaskSpec(k=1, T=4), 2, Rng(0)),
    gen_imitation(ImitationSpec("full", 0.1, 4), 2, Rng(0))], ids=["gen_copyk", "gen_imitation"])
def test_generated_sequences_expose_the_fields_the_benchmark_reads(data):
    # The benchmark iterates generated data and reads these fields.
    for seq in data:
        assert all(isinstance(getattr(seq, field), np.ndarray)
                   for field in ("x", "targets", "mask"))


def test_the_readme_python_example_prints_its_stated_range():
    # The README's example is the first code a user runs; a deleted or
    # renamed name it imports fails here.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "5.0\n"
