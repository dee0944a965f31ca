#!/usr/bin/env python3
"""Compare the pure and compiled kernels on the two hot workloads.

Workload "predicates" runs the full predicate suite (closure, lattice check,
reducibility, basic-block check, dismantling order) over every fundamental
basic block on `--blocks-n` reducibles; workload "enumeration" lists the
unisolated edge subsets of K_`--enum-n`, every edge count q.

    python benchmarks/bench_kernel.py [--repeat 3] [--blocks-n 5] [--enum-n 7]
"""

import argparse
import time
from math import comb

from fbblat._kernel import pure

try:
    from fbblat._kernel import fastcore
except ImportError:
    fastcore = None

from fbblat.fbb import build_fbb
from fbblat.graphs import enumerate_d


def block_inputs(n):
    """(element count, index cover list) for every block on n reducibles."""
    out = []
    for l in range((n + 1) // 2, comb(n, 2) + 1):
        for g in enumerate_d(n, l):
            p = build_fbb(n, frozenset(g.ranks)).poset
            covers = tuple(sorted((p.index_of(a), p.index_of(b))
                                  for a, b in p.covers))
            out.append((len(p), covers))
    return out


def run_predicates(impl, inputs):
    for n, covers in inputs:
        up, down = impl.closure(n, covers)
        impl.is_lattice(n, up, down)
        impl.reducibility(n, up, down)
        impl.basic_block_universal(n, up, down)
        impl.dismantling_order(n, up, down)


def run_enumeration(impl, nv):
    total = 0
    for q in range(comb(nv, 2) + 1):
        total += len(impl.unisolated_masks(nv, q))
    return total


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--blocks-n", type=int, default=5)
    parser.add_argument("--enum-n", type=int, default=7)
    args = parser.parse_args()

    inputs = block_inputs(args.blocks_n)
    workloads = [
        (f"predicates over {len(inputs)} blocks (n={args.blocks_n})",
         lambda impl: run_predicates(impl, inputs)),
        (f"unisolated subsets of K_{args.enum_n}, every q",
         lambda impl: run_enumeration(impl, args.enum_n)),
    ]
    print(f"{'workload':<46} {'pure':>9} {'compiled':>9} {'speedup':>8}")
    for name, work in workloads:
        pure_s = best_of(lambda: work(pure), args.repeat)
        if fastcore is None:
            print(f"{name:<46} {pure_s:>8.3f}s {'absent':>9} {'-':>8}")
            continue
        fast_s = best_of(lambda: work(fastcore), args.repeat)
        print(f"{name:<46} {pure_s:>8.3f}s {fast_s:>8.3f}s "
              f"{pure_s / fast_s:>7.1f}x")


if __name__ == "__main__":
    main()
