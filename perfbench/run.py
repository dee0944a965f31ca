"""The fbblat benchmark: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run it from the root of an fbblat checkout: the package is imported from
``src`` (``PYTHONPATH=src``, as the tier-1 tests do), never from an
installed copy.  Workloads (see ``workloads.py`` for why each exists):

- ``roundtrip``: seeded blocks on 6 and 7 reducibles through
  orient -> phi_inverse -> block predicates -> phi;
- ``wide``: seeded blocks on 10-20 reducibles plus CF(10), CF(12), CF(14),
  with verify's cf-structure predicates (posets past the 64-element word);
- ``triangle``: ``fbblat table d --max-n 64`` and ``table f --max-n 40``,
  each in a fresh interpreter;
- ``enumerate``: ``enumerate_d(7, q)`` for every q.

Each run starts fresh interpreters, one at a time, so per-process caches
start empty and the peak resident set belongs to this workload alone.  The
run does a fixed number of whole passes over the seeded inputs, chosen from
``--seconds`` and the workload's nominal pass time on the pure kernel.
Timings are taken per pass and reported per pass.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: interpreter start to the first timed op (import plus input
  generation), the median of several fresh set-ups;
- ``wall_s``: the timed region, the sum of every op's time, per pass;
- ``op_ms_p50``, ``op_ms_p99``: per-op latency percentiles within a pass,
  the median over the passes;
- ``peak_rss_mb``: peak resident set (``VmHWM``) of the process that ran
  the ops; for ``triangle``, of the largest ``fbblat`` process;
- ``ops``: ops attempted, the sample count of the percentiles.

Ops that fail their exact check or raise are the result's ``failed``
count; the run then exits 1 and names the first failing op on standard
error.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, per traced pass: calls, calls per op and self time of
the functions and layers ``tracer.py`` wraps, the share of kernel calls
that took the compiled path, the subsets an enumeration swept (computed,
not counted: the sum of C(N, q) over ``unisolated_masks`` calls), the
members it yielded per subset swept, and the tracing overhead, the traced
minus the untraced median pass time.  Calls and swept subsets are exact
counts: they repeat for a fixed seed and run length.

Every run also appends its metadata, metrics and full trace table to
``.bench_out/BENCH_<workload>.jsonl``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from tracer import KERNEL_DISPATCHERS, layer_of

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4          # extra set-ups whose times join the run's own
RUN_LIMIT_S = 170         # a worker still running after this is killed

LAYERS = ("labeling", "fbb", "poset", "kernel", "graphs", "correspondence",
          "counting", "cli")
COUNTED = ("labeling.rank", "labeling.unrank", "poset.Poset",
           *(f"kernel.{f}" for f in KERNEL_DISPATCHERS), "counting.comb")
SELF_TIMED = ("fbb.build_fbb", "fbb.extract_adjunct_representation",
              "fbb.build_cf", "poset.Poset", "poset.classify",
              *(f"kernel.{f}" for f in KERNEL_DISPATCHERS),
              "graphs.enumerate_d", "correspondence.phi",
              "correspondence.phi_inverse", "counting.count_d",
              "counting.count_f", "cli.main")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"),
              ("op_ms_p99", "ms"), ("peak_rss_mb", "MB"), ("ops", "count"))


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order.
    Calls, self times and swept subsets are per traced pass."""
    spec = []
    for name in COUNTED:
        spec += [(f"{name}.calls", "count/pass", "lower"),
                 (f"{name}.calls_per_op", "count/op", "lower")]
    spec += [(f"{name}.self_s", "s/pass", "lower") for name in SELF_TIMED]
    spec += [(f"{layer}.self_s", "s/pass", "lower") for layer in LAYERS]
    spec += [("kernel.compiled_share", "share", "higher"),
             ("graphs.subsets_swept", "binom-sum/pass", "lower"),
             ("graphs.unisolated_yield", "members/subset", "higher"),
             ("trace.overhead_s", "s/pass", "lower"),
             ("trace.overhead_share", "share", "lower")]
    return spec


# -- processes -------------------------------------------------------------------


def _start(args, env, procs):
    """Spawn a worker; return it and the seconds until it reported ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError("worker failed during set-up")
    return proc, time.perf_counter() - start


def run_workers(args, env):
    """Set-up times of several fresh workers, and the JSON report of the
    last one, which runs the workload."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    procs = []
    watchdog = threading.Timer(RUN_LIMIT_S, lambda: [p.kill() for p in procs])
    watchdog.start()
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, seconds = _start([*common, "--setup-only"], env, procs)
            setups.append(seconds)
            proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up worker exited {proc.returncode}")
        proc, seconds = _start([*common, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, procs)
        setups.append(seconds)
        out, _ = proc.communicate()
        if proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited {proc.returncode}")
        return setups, json.loads(out.splitlines()[-1])
    finally:
        watchdog.cancel()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


# -- metrics ---------------------------------------------------------------------


def end_to_end(setups, report):
    per_pass = report["op_s"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(sum(op_s) for op_s in per_pass),
        "op_ms_p50": statistics.median(
            statistics.median(op_s) for op_s in per_pass) * 1e3,
        "op_ms_p99": statistics.median(
            statistics.quantiles(op_s, n=100, method="inclusive")[98]
            for op_s in per_pass) * 1e3,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "ops": report["attempted"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(report):
    stats = report["trace"]["stats"]
    counters = report["trace"]["counters"]
    passes = len(report["traced_pass_s"])
    values = {}
    for name in COUNTED:
        calls = stats.get(name, [0, 0.0, 0.0])[0]
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.calls_per_op"] = calls / report["traced_ops"]
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = stats.get(name, [0, 0.0, 0.0])[2] / passes
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            entry[2] for key, entry in stats.items()
            if layer_of(key) == layer) / passes
    dispatched = counters["kernel.dispatch_calls"]
    swept = counters["graphs.subsets_swept"]
    untraced = statistics.median(sum(op_s) for op_s in report["op_s"])
    overhead = statistics.median(report["traced_pass_s"]) - untraced
    values.update({
        "kernel.compiled_share": counters["kernel.compiled_calls"] / dispatched
        if dispatched else 0.0,
        "graphs.subsets_swept": swept / passes,
        "graphs.unisolated_yield": report["members"] / swept if swept else 0.0,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced,
    })
    return {name: (values[name], unit) for name, unit, _ in per_layer_spec()}


# -- run metadata ----------------------------------------------------------------


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    try:
        with open(".git/HEAD", encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="ascii") as handle:
                return handle.read().strip()
        with open(".git/packed-refs", encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta(args, report):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": git_commit(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "kernel": report["kernel"],
            "passes": len(report["op_s"]) + len(report["traced_pass_s"]),
            "ops_per_pass": report["ops_per_pass"],
            "traced_ops": report["traced_ops"]}


# -- entry point -----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fbblat", "__init__.py")):
        print("error: run from the root of an fbblat checkout "
              "(src/fbblat not found)", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        setups, report = run_workers(args, env)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(report) if args.trace else end_to_end(setups, report)
    meta = run_meta(args, report)
    print(f"# {json.dumps(meta)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"BENCH_{args.workload}.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": meta, "metrics": metrics,
                                 "failed": report["failed"],
                                 "first_failure": report["first_failure"],
                                 "pass_s": [sum(op_s) for op_s in report["op_s"]],
                                 "traced_pass_s": report["traced_pass_s"],
                                 "trace": report.get("trace")}) + "\n")
    if report["failed"]:
        print(f"{report['failed']} of {report['attempted']} ops failed; first: "
              f"{report['first_failure']}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
