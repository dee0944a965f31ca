"""Per-function call counts, total and self time for the fbblat package,
installed from outside without editing its source.

``Tracer.install()`` rebinds every public function of every ``fbblat``
module to a timing wrapper, in every module that holds a binding to it:
``from .labeling import rank`` copies ``rank`` into ``fbb``, ``graphs``,
``correspondence`` and the package namespace, and a module-level dispatch
table such as ``counting._COUNTERS`` holds references of its own.  It also
wraps ``Poset.__init__`` on the class, the ``_kernel`` dispatchers on
``fbblat._kernel``, and ``fbblat.counting.comb`` with a counter that only
counts, so binomial time stays in its caller's self time.  ``uninstall()``
puts every original back.  Aggregates stay in memory; ``snapshot()`` hands
them out as plain JSON-ready data.

Self time is a call's duration minus the durations of the wrapped calls
made inside it, so the self times of one call tree add up to its root's
total.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# The _kernel entry points; the argument that picks pure or compiled is the
# poset size, except for unisolated_masks, which dispatches on C(nv, 2).
KERNEL_DISPATCHERS = (
    "closure", "covers_within", "induced_nullity_parts", "is_lattice",
    "reducibility", "basic_block_universal", "dismantling_order",
    "unisolated_masks",
)

# Layer of each module; render is the CLI's output half.
_LAYER = {"render": "cli"}


def function_key(module_name, name):
    """Stats key of a function: ``fbblat._kernel.closure`` -> ``kernel.closure``."""
    short = module_name.split(".", 1)[1] if "." in module_name else module_name
    return f"{short.lstrip('_')}.{name}"


def layer_of(key):
    """Layer of a stats key: ``render.poset_to_json`` -> ``cli``."""
    module = key.split(".", 1)[0]
    return _LAYER.get(module, module)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fbblat" or name.startswith("fbblat."))
            and not name.startswith("fbblat._kernel.")]


class Tracer:
    """Call statistics keyed by ``<module>.<function>``: [calls, total_s, self_s]."""

    def __init__(self):
        self.stats = {}
        self.counters = {"graphs.subsets_swept": 0, "kernel.dispatch_calls": 0,
                         "kernel.compiled_calls": 0}
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """Timing wrapper for ``fn``; ``after(args)`` runs on each call,
        outside the timed interval."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - inner
                if after is not None:
                    after(args)

        return timed

    def count_only(self, name, fn):
        """Wrapper that counts calls and adds no timing of its own."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])

        def counted(*args):
            entry[0] += 1
            return fn(*args)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package as described in the module docstring."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        from fbblat import _kernel, counting, poset

        modules = _package_modules()
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("fbblat")
                        or id(value) in wrappers):
                    continue
                after = None
                if value.__module__ == "fbblat._kernel" and attr in KERNEL_DISPATCHERS:
                    after = self._dispatch_counter(attr, _kernel.active_implementation)
                name = function_key(value.__module__, value.__name__)
                wrappers[id(value)] = (value, self.wrap(name, value, after))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    self._rebind_table(value, wrappers)
        self._set(poset.Poset, "__init__",
                  self.wrap("poset.Poset", poset.Poset.__init__))
        self._set(counting, "comb", self.count_only("counting.comb", counting.comb))

    def _rebind_table(self, table, wrappers):
        for key, value in list(table.items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                self._undo.append((table, key, value))
                table[key] = wrappers[id(value)][1]

    def _dispatch_counter(self, attr, active_implementation):
        counters = self.counters

        def after(args):
            size = args[0]
            if attr == "unisolated_masks":
                nv, q = args
                size = nv * (nv - 1) // 2
                counters["graphs.subsets_swept"] += math.comb(size, q)
            counters["kernel.dispatch_calls"] += 1
            if active_implementation(size) == "compiled":
                counters["kernel.compiled_calls"] += 1

        return after

    def uninstall(self):
        """Restore every binding ``install`` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters)}


def peak_rss_kb():
    """Peak resident set of this process since its exec (``VmHWM``).
    ``ru_maxrss`` would also count the parent's pages that a spawned child
    shared before its exec."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def merge(into, other):
    """Add one ``snapshot()`` into another, in place."""
    for name, (calls, total, self_s) in other["stats"].items():
        entry = into["stats"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s
    for name, value in other["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    return into


def empty_snapshot():
    return Tracer().snapshot()
