"""Command-line surface.

Subcommands: rank, unrank, cf, fbb, graph-of, count, table, verify,
diff-bfile.  Exit codes are a stable contract: 0 success, 1 verification
mismatch, 2 usage or domain error.  Exit 1 also covers a fault raised
inside a verify check: the check fails with the fault's message and is
named on stderr.  Exit 2 is for a bad argument or file only.
"""

import argparse
import sys
from math import comb

from . import correspondence, counting, fbb, labeling, poset, render

ENUM_CAP = 6  # largest n that verify checks by exhaustive enumeration


def _parse_ranks(text, n):
    """Comma-separated labels; an `i-j` token names the pair directly."""
    ranks = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            parts = [int(part) for part in token.split("-")]
        except ValueError:
            parts = ()
        if not 1 <= len(parts) <= 2:
            raise ValueError(
                f"rank token {token!r} is neither a label nor an i-j pair")
        ranks.append(labeling.rank(n, *parts) if parts[1:] else parts[0])
    return frozenset(ranks)


# -- command handlers (return process exit codes) -------------------------------


def _cmd_rank(args):
    print(labeling.rank(args.n, args.i, args.j))
    return 0


def _cmd_unrank(args):
    i, j = labeling.unrank(args.n, args.k)
    print(i, j)
    return 0


def _cmd_cf(args):
    p = fbb.build_cf(args.n).poset
    render.write(render.POSET_RENDERERS[args.format](p), args.output)
    return 0


def _cmd_fbb(args):
    block = fbb.build_fbb(args.n, _parse_ranks(args.ranks, args.n))
    render.write(render.POSET_RENDERERS[args.format](block.poset), args.output)
    return 0


def _cmd_graph_of(args):
    block = fbb.build_fbb(args.n, _parse_ranks(args.ranks, args.n))
    g = correspondence.phi(block)
    render.write(render.GRAPH_RENDERERS[args.format](g), args.output)
    return 0


def _cmd_count(args):
    print(counting._counter(args.kind)(args.n, args.q))
    return 0


def _cmd_table(args):
    render.write(counting.triangle_chunks(args.kind, args.max_n, args.format),
                 args.output)
    return 0


def _cmd_diff_bfile(args):
    diff = counting.diff_bfile(args.path, args.kind)
    for warning in diff.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if diff.ok:
        print(f"{diff.compared} values compared, no mismatches")
        return 0
    for m in diff.mismatches:
        print(f"mismatch at (n={m.n}, q={m.q}): triangle {m.triangle_value}, "
              f"file {m.file_value} (line {m.line_no})")
    return 1


# -- verify ---------------------------------------------------------------------


def _check_rank_round_trip(n):
    """unrank(rank(p)) = p for every pair p.  That makes rank injective,
    and unrank rejects a label outside 1..N (failing the check), so the N
    ranks fill J_N and each label k is the rank of the pair unrank(k)."""
    top = labeling.pair_count(n)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if labeling.unrank(n, labeling.rank(n, i, j)) != (i, j):
                return False, f"unrank(rank({i},{j})) != ({i},{j})"
    return True, f"all {top} pairs round-trip"


def _check_cf_structure(n):
    block = fbb.build_cf(n)
    p = block.poset
    top = comb(n, 2)
    problems = []
    if len(p) != 2 * n - 1 + top:
        problems.append(f"|elements| = {len(p)}")
    if len(p.covers) != 2 * n - 2 + 2 * top:
        problems.append(f"|covers| = {len(p.covers)}")
    if poset.nullity(p) != top:
        problems.append(f"nullity = {poset.nullity(p)}")
    if not poset.is_lattice(p):  # RC and dismantlability need a lattice
        problems.append("not lattice")
    else:
        for name, pred in (("rc", poset.is_rc_lattice),
                           ("dismantlable", poset.is_dismantlable)):
            if not pred(p):
                problems.append(f"not {name}")
    if not fbb.is_basic_block_universal(p):
        problems.append("not a basic block")
    if not fbb.is_fundamental_basic_block(block):
        problems.append("not a fundamental basic block")
    if problems:
        return False, "; ".join(problems)
    return True, f"{len(p)} elements, {len(p.covers)} covers, nullity {top}"


def _check_triangle(n):
    top = comb(n, 2)
    for q in range(top + 2):
        d = counting.count_d(n, q)
        if d != counting.count_d_oracle(n, q):
            return False, f"d({n},{q}) disagrees with inclusion-exclusion"
        if d != counting.count_f(n, q):
            return False, f"f({n},{q}) != d({n},{q})"
    return True, f"d = oracle = f for q = 0..{top + 1}"


def _check_equivalence(n, l, enum_cap):
    report = correspondence.verify_equivalence(n, l, cap=enum_cap)
    return report.ok, report.summary().replace("\n", " ")


def run_verification(max_n, enum_cap=ENUM_CAP):
    """The full invariant suite; returns (all_ok, checks) with one
    (name, ok, detail) triple per check.  Arguments are checked before any
    check runs; after that, a RuntimeError (an internal cross-check) or a
    ValueError (a value the package rejects) raised inside a check fails
    that check, with the exception's message as its detail."""
    labeling._check_int("max_n", max_n, 2)
    labeling._check_int("enum_cap", enum_cap, 2)
    checks = []

    def run(name, check, *args):
        try:
            ok, detail = check(*args)
        except (RuntimeError, ValueError) as exc:
            ok, detail = False, str(exc)
        checks.append((name, ok, detail))

    for n in range(2, max_n + 1):
        run(f"rank-round-trip n={n}", _check_rank_round_trip, n)
        run(f"cf-structure n={n}", _check_cf_structure, n)
        run(f"count-agreement n={n}", _check_triangle, n)
        if n <= enum_cap:
            for l in range(comb(n, 2) + 1):
                run(f"equivalence n={n} l={l}", _check_equivalence, n, l,
                    enum_cap)
    return all(ok for _, ok, _ in checks), checks


def _cmd_verify(args):
    all_ok, checks = run_verification(args.max_n, args.enum_cap)
    render.write(render.REPORT_RENDERERS[args.format](checks), args.output)
    if not all_ok:
        first = next(name for name, ok, _ in checks if not ok)
        print(f"verification failed, first failing check: {first}",
              file=sys.stderr)
        return 1
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbblat",
        description="Fundamental basic blocks, edge-labeled graphs, and "
                    "their counting equivalence.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, formats, default):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("-o", "--output", default=None,
                       help="write to this file instead of standard output")

    p = sub.add_parser("rank", help="label of the pair (i, j)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("unrank", help="pair with label k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_unrank)

    p = sub.add_parser("cf", help="the complete fundamental basic block CF(n)")
    p.add_argument("--n", type=int, required=True)
    add_output(p, render.POSET_RENDERERS, "text")
    p.set_defaults(handler=_cmd_cf)

    p = sub.add_parser("fbb", help="fundamental basic block from a rank set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ranks", required=True,
                   help="comma-separated labels; `i-j` tokens name pairs")
    add_output(p, render.POSET_RENDERERS, "text")
    p.set_defaults(handler=_cmd_fbb)

    p = sub.add_parser("graph-of", help="the digraph of a fundamental basic block")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ranks", required=True)
    add_output(p, render.GRAPH_RENDERERS, "text")
    p.set_defaults(handler=_cmd_graph_of)

    p = sub.add_parser("count", help="one exact count")
    p.add_argument("kind", choices=("d", "f"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("table", help="the whole triangle up to max-n")
    p.add_argument("kind", choices=("d", "f"))
    p.add_argument("--max-n", type=int, required=True)
    add_output(p, counting._TRIANGLE_FORMATS, "csv")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--enum-cap", type=int, default=ENUM_CAP,
                   help="largest n verified by exhaustive enumeration")
    add_output(p, render.REPORT_RENDERERS, "text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("diff-bfile", help="compare a b-file against a triangle")
    p.add_argument("kind", choices=("d", "f"))
    p.add_argument("path")
    p.set_defaults(handler=_cmd_diff_bfile)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
