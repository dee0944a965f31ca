"""One benchmark run of one workload, in a fresh interpreter.

    PYTHONPATH=src python perfbench/worker.py --workload roundtrip --seed 1 \
        --seconds 20 --trace 0 [--setup-only]

Imports fbblat, builds the workload's inputs from the seed and prints
``ready`` once that set-up is done.  It then runs whole passes over the
inputs, timing each op and checking its output outside the timed interval,
and prints one JSON report as the last line of standard output.  With
``--trace 1`` the passes alternate untraced and traced, so the report
carries the per-function trace and the tracing overhead from one process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback

import fbblat
import tracer
import workloads


def plan(workload, seconds, trace):
    """Traced flag per pass.  The pass count follows from ``seconds`` and
    the workload's nominal pass time, so that a fixed seed and run length
    always do the same work."""
    passes = max(2, round(seconds / workload.pass_seconds))
    return [bool(trace) and i % 2 == 1 for i in range(passes)]


def kernel_meta(workload, inputs):
    sizes = workload.kernel_sizes(inputs)
    meta = {"compiled_available": fbblat.compiled_available(),
            "FBBLAT_KERNEL": os.environ.get("FBBLAT_KERNEL", ""),
            "dispatch": {}}
    if sizes:
        for size in (min(sizes), max(sizes)):
            meta["dispatch"][str(size)] = fbblat.active_implementation(size)
    return meta


def run(workload, inputs, schedule):
    trace = tracer.Tracer()
    snapshot = tracer.empty_snapshot()
    report = {"attempted": 0, "failed": 0, "first_failure": None,
              "op_s": [], "traced_pass_s": [], "traced_ops": 0,
              "members": 0}
    clock = time.perf_counter
    child_peak_kb = 0
    for traced in schedule:
        if traced and workload.in_process:
            trace.install()
        op_s = []
        for x in inputs:
            report["attempted"] += 1
            start = clock()
            try:
                out = (workload.op(x) if workload.in_process
                       else workload.op(x, traced))
            except Exception:  # an op that raises is a failed op, never dropped
                elapsed = clock() - start
                out, error = None, traceback.format_exc(limit=3).strip()
            else:
                elapsed = clock() - start
                error = workload.check(x, out)
            op_s.append(elapsed)
            if error is not None:
                report["failed"] += 1
                if report["first_failure"] is None:
                    report["first_failure"] = f"{workload.label(x)}: {error}"
            child = (None if workload.in_process or out is None
                     else workload.child_report(out))
            if child is not None:
                child_peak_kb = max(child_peak_kb, child["peak_rss_kb"])
            if traced:
                report["traced_ops"] += 1
                if out is not None:
                    report["members"] += workload.members(out)
                if child is not None:
                    tracer.merge(snapshot, child["trace"])
        if traced and workload.in_process:
            trace.uninstall()
        if traced:
            report["traced_pass_s"].append(sum(op_s))
        else:
            report["op_s"].append(op_s)
    if any(schedule):
        report["trace"] = tracer.merge(snapshot, trace.snapshot())
    # Peak of the process that ran fbblat: this one, or for triangle the
    # largest of its children.
    report["peak_rss_kb"] = (tracer.peak_rss_kb() if workload.in_process
                             else child_peak_kb)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.abspath(fbblat.__file__).startswith(src + os.sep):
        print(f"error: fbblat imported from {fbblat.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.inputs(random.Random(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    schedule = plan(workload, args.seconds, args.trace)
    report = run(workload, inputs, schedule)
    report["kernel"] = kernel_meta(workload, inputs)
    report["ops_per_pass"] = len(inputs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
