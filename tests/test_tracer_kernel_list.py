"""Every function the benchmark counts or times exists in ``fbblat``, so
renaming or deleting one fails here instead of silently zeroing its
per-layer metrics; and every name ``fbblat`` exports resolves.

The tracer is loaded from its file, and the metric keys are read from
``run.py``'s source, so neither the benchmark's conftest nor ``perfbench``
on the import path is needed.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import fbblat
from fbblat import _kernel

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Fused into ``reducibility``; the tracer's list still names it.
_RETIRED = {"is_lattice"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric_keys():
    """The ``COUNTED`` and ``SELF_TIMED`` keys of ``run.py``, by tuple name.
    Each tuple is evaluated from its source, with only the tracer's kernel
    list in scope."""
    scope = {"KERNEL_DISPATCHERS": _tracer().KERNEL_DISPATCHERS}
    keys = {}
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in ("COUNTED", "SELF_TIMED"):
                code = compile(ast.Expression(node.value), "run.py", "eval")
                keys[target.id] = eval(code, {"__builtins__": {}}, scope)
    return keys


def test_traced_kernels_exist():
    names = set(_tracer().KERNEL_DISPATCHERS) - _RETIRED
    missing = sorted(name for name in names
                     if not inspect.isfunction(getattr(_kernel, name, None)))
    assert not missing, f"tracer counts kernels that fbblat._kernel lacks: {missing}"


def test_benchmark_metric_keys_name_fbblat_attributes():
    keys = _metric_keys()
    assert sorted(keys) == ["COUNTED", "SELF_TIMED"]
    retired = {f"kernel.{name}" for name in _RETIRED}
    missing = []
    for key in sorted((set(keys["COUNTED"]) | set(keys["SELF_TIMED"])) - retired):
        module, _, attr = key.partition(".")
        if module == "kernel":
            module = "_kernel"
        if not hasattr(importlib.import_module(f"fbblat.{module}"), attr):
            missing.append(key)
    assert not missing, f"benchmark metrics name missing fbblat attributes: {missing}"


def test_public_names_resolve_once():
    repeated = sorted(name for name, count in Counter(fbblat.__all__).items()
                      if count > 1)
    assert not repeated, f"names listed twice in fbblat.__all__: {repeated}"
    missing = sorted(name for name in fbblat.__all__ if not hasattr(fbblat, name))
    assert not missing, f"fbblat.__all__ names missing attributes: {missing}"
