"""The four benchmark workloads: seeded inputs, one timed op each, and an
exact check of every op's output.

Ops call fbblat through the package namespace at call time, so a traced
pass sees the tracer's wrappers.  Every op returns plain values, and
``check`` compares them with references the benchmark computes itself, so
no check calls into fbblat while the tracer may be installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from array import array
from math import comb

import fbblat

HERE = os.path.dirname(os.path.abspath(__file__))


# -- the benchmark's own view of K_n -------------------------------------------


def pairs(n):
    """Vertex pairs of K_n in dictionary order; pair k-1 has label k."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def vertex_masks(n):
    """Per vertex, the mask of the edge labels that touch it."""
    out = [0] * n
    for k, (i, j) in enumerate(pairs(n)):
        out[i - 1] |= 1 << k
        out[j - 1] |= 1 << k
    return out


def has_isolated(mask, vmasks):
    return any(not mask & v for v in vmasks)


def cover_tables(n, width=7):
    """Per ``width``-bit chunk of an edge mask, a table from the chunk's
    value to the set of vertices its edges touch, as a vertex bitmask."""
    ends = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in pairs(n)]
    ends += [0] * (-len(ends) % width)
    tables = []
    for shift in range(0, len(ends), width):
        table = [0] * (1 << width)
        for c in range(1, 1 << width):
            low = (c & -c).bit_length() - 1
            table[c] = table[c & (c - 1)] | ends[shift + low]
        tables.append(table)
    return tables


def unisolated_counts(max_n):
    """d(n, q) for every in-band cell with n <= max_n, by inclusion-exclusion
    over forced isolated-vertex sets: the sum over k of (-1)^k C(n, k)
    C(C(n-k, 2), q), one whole row of binomials at a time."""
    rows = {}
    out = {}
    for n in range(max_n + 1):
        vals = [0] * (comb(n, 2) + 1)
        for k in range(n + 1):
            m = comb(n - k, 2)
            if m not in rows:
                row = [1]
                for q in range(m):
                    row.append(row[-1] * (m - q) // (q + 1))
                rows[m] = row
            coef = (-1) ** k * comb(n, k)
            for q, b in enumerate(rows[m]):
                vals[q] += coef * b
        for q in range((n + 1) // 2, comb(n, 2) + 1):
            out[(n, q)] = vals[q]
    return out


def mask_ranks(mask):
    return frozenset(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def chain_elements(n, mask):
    """Elements x_i of a block's base chain: one per realized pair (i, i+1)."""
    labels = {p: k for k, p in enumerate(pairs(n))}
    return sum(mask >> labels[(i, i + 1)] & 1 for i in range(1, n))


def uniform_unisolated(rng, n):
    """Uniform edge mask of K_n, redrawn while any vertex is isolated."""
    vmasks = vertex_masks(n)
    while True:
        mask = rng.getrandbits(comb(n, 2))
        if not has_isolated(mask, vmasks):
            return mask


def unisolated_with(rng, n, q, chain):
    """Uniform q-edge mask of K_n with ``chain`` of the pairs (i, i+1),
    redrawn while any vertex is isolated."""
    vmasks = vertex_masks(n)
    while True:
        mask = sum(1 << k for k in rng.sample(range(comb(n, 2)), q))
        if chain_elements(n, mask) == chain and not has_isolated(mask, vmasks):
            return mask


# -- workloads ------------------------------------------------------------------


class Workload:
    """Defaults: ops run in this process, sweep no subsets, and dispatch
    no kernel call whose size is known up front."""

    in_process = True

    def kernel_sizes(self, inputs):
        return []

    def members(self, out):
        return 0


class Roundtrip(Workload):
    """Blocks on 6 and 7 reducibles, uniform within each n; each op runs
    the per-member checks of ``verify_equivalence``."""

    name = "roundtrip"
    pass_seconds = 1.4   # one pass over the inputs, pure kernel
    PER_N = 500

    def inputs(self, rng):
        return [fbblat.LabeledGraph.from_mask(n, uniform_unisolated(rng, n))
                for _ in range(self.PER_N) for n in (6, 7)]

    def kernel_sizes(self, inputs):
        return [len(g) + g.n + chain_elements(g.n, g.mask) for g in inputs]

    def op(self, g):
        dg = fbblat.orient(g)
        f = fbblat.phi_inverse(dg)
        back = fbblat.phi(f)
        return (back == dg, back.mask, f.n, f.ranks,
                fbblat.is_fundamental_basic_block(f), fbblat.nullity(f.poset),
                len(fbblat.classify(f.poset).reducible))

    def check(self, g, out):
        same, back_mask, n, ranks, is_fbb, null, reducible = out
        want = (True, g.mask, g.n, mask_ranks(g.mask), True, len(g), g.n)
        got = (same, back_mask, n, ranks, is_fbb, null, reducible)
        if got != want:
            return f"got {got}, want {want}"
        return None

    def label(self, g):
        return f"block n={g.n} ranks={sorted(mask_ranks(g.mask))}"


class Wide(Workload):
    """Large blocks on 10-20 reducibles across the existence band, plus
    CF(n); each op builds one block and runs verify's cf-structure checks.

    A block's cost grows with its element count n + x + q, where x counts
    the realized pairs (i, i+1), so each seeded block has x fixed at its
    slot's expected value.  The slot counts put six cheaper and six dearer
    ops around four mid-size blocks, so that the median op is the middle of
    those four and barely depends on the seed."""

    name = "wide"
    pass_seconds = 2.8
    # (n, q, blocks): q spreads over the band ceil(n/2)..C(n,2).
    SLOTS = ((10, 36, 2), (12, 45, 1), (16, 20, 1), (20, 30, 1),
             (14, 60, 2), (16, 50, 2), (18, 80, 2), (20, 110, 2))
    COMPLETE = (10, 12, 14)

    def inputs(self, rng):
        out = []
        for n, q, blocks in self.SLOTS:
            chain = round((n - 1) * q / comb(n, 2))
            out += [(n, q, unisolated_with(rng, n, q, chain), False)
                    for _ in range(blocks)]
        out += [(n, comb(n, 2), (1 << comb(n, 2)) - 1, True) for n in self.COMPLETE]
        return out

    def kernel_sizes(self, inputs):
        return [n + q + chain_elements(n, mask) for n, q, mask, _ in inputs]

    def op(self, x):
        n, _, mask, complete = x
        f = fbblat.build_cf(n) if complete else fbblat.build_fbb(n, mask_ranks(mask))
        p = f.poset
        return (len(p), fbblat.is_lattice(p), fbblat.is_rc_lattice(p),
                fbblat.is_dismantlable(p), fbblat.is_basic_block_universal(p),
                fbblat.is_fundamental_basic_block(f), fbblat.nullity(p))

    def check(self, x, out):
        n, q, mask, _ = x
        want = (n + q + chain_elements(n, mask), True, True, True, True, True, q)
        if out != want:
            return f"got {out}, want {want}"
        return None

    def label(self, x):
        n, q, mask, complete = x
        if complete:
            return f"CF({n})"
        return f"block n={n} ranks={sorted(mask_ranks(mask))}"


class Triangle(Workload):
    """``fbblat table d`` and ``table f`` through ``fbblat.cli.main``, each
    in a fresh interpreter so that every op starts from empty tables.  Both
    tables are checked cell by cell against one inclusion-exclusion
    reference, which also checks f = d.  The seed does not change the ops."""

    name = "triangle"
    in_process = False
    pass_seconds = 3.0
    OPS = (("d", 64), ("f", 40))

    def __init__(self):
        self._expected = None

    def inputs(self, rng):
        return list(self.OPS)

    def op(self, x, traced=False):
        kind, max_n = x
        cmd = [sys.executable, os.path.join(HERE, "cli_op.py")]
        if traced:
            cmd.append("--trace")
        cmd += ["table", kind, "--max-n", str(max_n)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, x, out):
        _, max_n = x
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        lines = stdout.splitlines()
        if not lines or lines[0] != "n,q,value":
            return f"unexpected header {lines[:1]}"
        if self._expected is None:
            self._expected = unisolated_counts(max(n for _, n in self.OPS))
        cells = [(n, q) for n, q in self._expected if n <= max_n]
        if len(lines) - 1 != len(cells):
            return f"{len(lines) - 1} cells, want {len(cells)}"
        for (n, q), line in zip(cells, lines[1:]):
            want = f"{n},{q},{self._expected[(n, q)]}"
            if line != want:
                return f"cell ({n}, {q}): got {line!r}, want {want!r}"
        return None

    def label(self, x):
        return f"table {x[0]} --max-n {x[1]}"

    def child_report(self, out):
        """Peak RSS and trace the op's process printed last on standard
        error, or None when it failed."""
        code, _, stderr = out
        return json.loads(stderr.splitlines()[-1]) if code == 0 else None


class Enumerate(Workload):
    """``enumerate_d(7, q)`` for every q in order: the 2^21-subset sweep of
    K_7.  The seed does not change the ops."""

    name = "enumerate"
    pass_seconds = 5.0
    N = 7

    def __init__(self):
        self._counts = None
        self._passed = {}   # q -> digest of a member array that passed check

    def inputs(self, rng):
        # The reference counts are computed here, before any tracing starts.
        self._counts = {q: fbblat.count_d_oracle(self.N, q)
                        for q in range(comb(self.N, 2) + 1)}
        return list(self._counts)

    def kernel_sizes(self, inputs):
        return [comb(self.N, 2)]

    def op(self, q):
        return array("Q", (g.mask for g in fbblat.enumerate_d(self.N, q)))

    def check(self, q, masks):
        if len(masks) != self._counts[q]:
            return f"{len(masks)} members, want {self._counts[q]}"
        digest = hashlib.sha256(masks).digest()
        if self._passed.get(q) == digest:
            return None   # byte-identical to an array that passed below
        t0, t1, t2 = cover_tables(self.N)
        everyone = (1 << self.N) - 1
        seen = bytearray(1 << (comb(self.N, 2) - 3))
        for m in masks:
            byte, bit = m >> 3, 1 << (m & 7)
            if seen[byte] & bit:
                return f"member {m:#x} repeated"
            seen[byte] |= bit
            if (m.bit_count() != q
                    or t0[m & 127] | t1[m >> 7 & 127] | t2[m >> 14] != everyone):
                return f"member {m:#x} is not a {q}-edge graph without isolated vertices"
        self._passed[q] = digest
        return None

    def label(self, q):
        return f"cell n={self.N} q={q}"

    def members(self, out):
        return len(out)


WORKLOADS = {w.name: w for w in (Roundtrip, Wide, Triangle, Enumerate)}

