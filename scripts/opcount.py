"""Count the bytecode instructions that the equivalence loop executes.

    python scripts/opcount.py [--max-n 5]

The slice is ``verify_equivalence(n, l)`` for every cell with
2 <= n <= max-n, the per-block round trip of ``fbblat verify``.  It runs
once as a warm-up, so that lazily filled tables are in place, and then once
under the counter.  The script prints one JSON line:

    {"slice": "equivalence n<=5", "python": "3.11", "instructions": 6276306}

Unlike a wall-clock time, the count repeats exactly from run to run and
under any hash seed, so it separates two versions of the per-block glue
that timing noise cannot.  Counts compare only within one interpreter
version (major.minor).  Python 3.12 and later count ``sys.monitoring``
INSTRUCTION events (PEP 669); 3.10 and 3.11 count the opcode events of
``sys.settrace`` with ``frame.f_trace_opcodes`` set.

Limit: the count sees bytecode only.  A call into C code -- big-int
arithmetic, building a dict or a set, ``sorted`` -- is one instruction
however long it runs, so the count measures the per-block glue, not
``table f``, whose cost is big-int arithmetic.

Standard library only; the package is imported from ``src/`` next to this
script.
"""

import argparse
import json
import sys
from math import comb
from pathlib import Path


def _count_with_monitoring(fn):
    mon = sys.monitoring
    tool = next(i for i in range(6) if mon.get_tool(i) is None)
    mon.use_tool_id(tool, "opcount")
    count = 0

    def on_instruction(code, offset):
        nonlocal count
        count += 1

    try:
        mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
        mon.set_events(tool, mon.events.INSTRUCTION)
        fn()
    finally:
        mon.set_events(tool, 0)
        mon.register_callback(tool, mon.events.INSTRUCTION, None)
        mon.free_tool_id(tool)
    return count


def _count_with_settrace(fn):
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def count_instructions(fn):
    """Bytecode instructions executed by ``fn()``."""
    if hasattr(sys, "monitoring"):
        return _count_with_monitoring(fn)
    return _count_with_settrace(fn)


def python_version():
    """The key counts are recorded under: ``major.minor``."""
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def count_equivalence(max_n):
    """Instructions of ``verify_equivalence`` over every cell with
    n <= max_n, after one uncounted warm-up run."""
    from fbblat.correspondence import verify_equivalence

    def run():
        for n in range(2, max_n + 1):
            for l in range(comb(n, 2) + 1):
                verify_equivalence(n, l)

    run()
    return count_instructions(run)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args(argv)
    print(json.dumps({"slice": f"equivalence n<={args.max_n}",
                      "python": python_version(),
                      "instructions": count_equivalence(args.max_n)}))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
