"""Every kernel the benchmark tracer counts is a function of
``fbblat._kernel``, so renaming a kernel fails here instead of silently
zeroing its per-layer metrics.

The tracer is loaded from its file, which needs neither the benchmark's
conftest nor ``perfbench`` on the import path.
"""

import importlib.util
import inspect
from pathlib import Path

from fbblat import _kernel

# Fused into ``reducibility``; the tracer's list still names it.
_RETIRED = {"is_lattice"}


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_kernels_exist():
    names = set(_tracer().KERNEL_DISPATCHERS) - _RETIRED
    missing = sorted(name for name in names
                     if not inspect.isfunction(getattr(_kernel, name, None)))
    assert not missing, f"tracer counts kernels that fbblat._kernel lacks: {missing}"
