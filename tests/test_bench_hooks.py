"""The names the benchmark looks up in maxcsp still exist.

`bench/tracer.py` wraps functions by name and reads `cache_info()` of the
memoized ones, and `bench/workloads.py` imports from maxcsp inside its
functions, so a renamed or dropped name fails only when the benchmark
runs. These tests read both files without changing them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function_imports():
    """(module, name) of each `from maxcsp... import name` inside a
    function of bench/workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return sorted({(node.module, alias.name)
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("maxcsp")
                   for alias in node.names})


def test_traced_spans_exist():
    for layer, names in _tracer().SPANS.items():
        module = importlib.import_module(f"maxcsp.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"maxcsp.{layer}.{name}"


def test_traced_caches_exist():
    for name in _tracer().CACHED:
        layer, fname = name.split(".")
        fn = getattr(importlib.import_module(f"maxcsp.{layer}"), fname, None)
        assert hasattr(fn, "cache_info"), f"maxcsp.{name}"


@pytest.mark.parametrize("module,name", _function_imports())
def test_workload_imports_resolve(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
