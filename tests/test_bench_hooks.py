"""The names the benchmark looks up in maxcsp still exist.

`bench/tracer.py` wraps functions by name and reads `cache_info()` of the
memoized ones, and `bench/workloads.py` imports from maxcsp inside its
functions, so a renamed or dropped name fails only when the benchmark
runs. The last test runs the benchmark's golden slices against
bench/goldens.json, so a drift in an output byte fails here too. These
tests read the bench files without changing them.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from maxcsp import cli
from maxcsp.formulas import random_formula
from maxcsp.io_formats import emit_instance, resolve_language_spec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    """bench/workloads.py, registered before it runs: its dataclass looks
    its module up in sys.modules."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
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


def test_tracer_sees_every_stage_the_transform_ops_run(tmp_path):
    # The ops run their lemmas through the module globals the tracer wraps;
    # a stage that held a function object would report 0 s here.
    runs = (("chain-n", "2sat", "2sat", ["--target-language", "nae3"]),
            ("unsign-neg", "neg:xor", "xor", []))
    argvs = []
    for op, spec, language, extra in runs:
        inst = tmp_path / f"{op}.maxcsp"
        inst.write_text(emit_instance(random_formula(
            resolve_language_spec(spec), 5, 6, "Z", max_weight=4, seed=op)))
        argvs.append(["transform", "--op", op, "--language", language, *extra,
                      "--instance", str(inst), "-o", str(inst) + ".out"])
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        for argv in argvs:
            tracer.begin_request()
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in ("chain", "apply_poly", "implement_tf", "unsigned_lit",
                 "implement_lit", "signed_to_unsigned_neg"):
        assert summary[f"transforms.{name}.s"] > 0, name


def test_golden_slices_match_the_benchmarks_recorded_digests(tmp_path):
    # The benchmark's warm-up: every workload's short slice of the golden
    # seed, through cli.main in this process, against bench/goldens.json.
    wl = _workloads()
    for workload in wl.WORKLOADS:
        reqs = wl.short_slice(workload, wl.GOLDEN_SEED, tmp_path / workload)
        digests, failures = wl.run_slice(cli, reqs)
        assert failures == [], workload
        assert wl.golden_mismatches(workload, digests) == [], workload
