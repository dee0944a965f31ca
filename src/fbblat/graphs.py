"""Labeled graphs on vertices 1..n, stored as edge-label bitmasks.

Bit k-1 of a graph's mask is the pair with label k, so equality of labeled
graphs, subset enumeration, and the rank set Q that identifies a block on
the lattice side (``fbb.Fbb.mask``) are all literally the same machine word.
Every edge is stored as its pair i < j, so a graph is also its own
low-to-high orientation: ``arcs`` is ``edges``, and ``orient`` is the
identity.
"""

import warnings
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from math import comb
from operator import index

from . import _kernel
from .errors import EnumerationCapError
from .labeling import _check_int, rank

DEFAULT_ENUM_CAP = 7


def _mask_ranks(mask):
    """Labels of the edges of ``mask``, ascending, as a list, so that
    ``tuple`` copies it at its final size instead of resizing as it goes."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _built(cls, n, parts):
    """A ``cls`` graph on n vertices for each edge mask ``low | h`` of the
    ``(low, highs)`` parts, lazily.  n and the width C(n, 2) are checked and
    computed once, and each graph is two slot writes on a bare instance, so
    iteration makes no call per element."""
    _check_int("n", n, 1)
    width = comb(n, 2)
    new = object.__new__
    for low, highs in parts:
        for high in highs:
            mask = low | high
            if mask < 0 or mask >> width:
                raise ValueError(f"edge mask {mask:#x} has bits outside J_N for n = {n}")
            g = new(cls)
            g.n = n
            g.mask = mask
            yield g


class LabeledGraph:
    """Labeled graph; edges are 2-subsets of {1..n}, each stored as its
    pair (i, j) with i < j, which is also its low-to-high arc."""

    __slots__ = ("n", "mask")

    def __init__(self, n, edges=()):
        _check_int("n", n, 1)
        mask = 0
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop on vertex {a}")
            i, j = (a, b) if a < b else (b, a)
            mask |= 1 << (rank(n, i, j) - 1)
        self.n = n
        self.mask = mask

    @classmethod
    def from_mask(cls, n, mask):
        return next(_built(cls, n, ((0, (mask,)),)))

    @classmethod
    def from_ranks(cls, n, ranks):
        """The graph whose edge labels are ``ranks``."""
        _check_int("n", n, 1)
        top = comb(n, 2)
        mask = 0
        for k in ranks:
            try:
                index(k)
            except TypeError:
                raise ValueError(f"edge label {k!r} is not an integer") from None
            if not 1 <= k <= top:
                raise ValueError(f"edge label {k} outside J_N for n = {n}")
            mask |= 1 << (k - 1)
        return cls.from_mask(n, mask)

    @property
    def edges(self):
        """Edges (i, j), i < j, in label order, read off the mask row by row:
        block S_i is the next n - i bits, the pairs (i, i+1)..(i, n), and the
        walk stops once no edge is left."""
        n, mask, i = self.n, self.mask, 0
        out = []
        while mask:
            i += 1
            row = mask & ((1 << (n - i)) - 1)
            mask >>= n - i
            while row:
                low = row & -row
                row ^= low
                out.append((i, i + low.bit_length()))
        return tuple(out)

    arcs = edges

    @property
    def ranks(self):
        """Edge labels, ascending."""
        return tuple(_mask_ranks(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.mask))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, edges={list(self.edges)})"


class GraphSequence(Sequence):
    """Read-only sequence of labeled graphs on n vertices, backed by parts:
    ``(low, highs)`` pairs whose edge masks are ``low | h`` for each ``h`` in
    ``highs``, part by part.  A plain mask list is the one part
    ``(0, masks)``.  Each element is built from its mask, with the checks of
    ``LabeledGraph.from_mask``, when it is indexed or iterated over, so only
    the parts and their start offsets are held; an index finds its part by
    bisection, and a slice is a one-part sequence of its masks."""

    __slots__ = ("n", "_parts", "_starts")

    def __init__(self, n, parts):
        self.n = n
        self._parts = parts
        self._starts = [0, *accumulate(len(highs) for _, highs in parts)]

    def __len__(self):
        return self._starts[-1]

    def _mask(self, i):
        """Edge mask of element i, for 0 <= i < len(self)."""
        part = bisect_right(self._starts, i) - 1
        low, highs = self._parts[part]
        return low | highs[i - self._starts[part]]

    def __getitem__(self, i):
        if isinstance(i, slice):
            masks = [self._mask(j) for j in range(len(self))[i]]
            return GraphSequence(self.n, [(0, masks)])
        i = index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("GraphSequence index out of range")
        return LabeledGraph.from_mask(self.n, self._mask(i))

    def __iter__(self):
        return _built(LabeledGraph, self.n, self._parts)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, len={len(self)})"


def orient(g):
    """The unique low-to-high orientation of a labeled graph: the graph
    itself, since its edges are stored low-to-high."""
    return g


def isolated_vertices(g):
    """Vertices of 1..n incident to no edge, ascending.

    Read off the mask block by block: block S_i is the next n - i bits,
    the pairs (i, i+1)..(i, n), so its bits shifted up by i + 1 are the
    vertices above i that its edges reach."""
    n, mask = g.n, g.mask
    touched = 0
    for i in range(1, n):
        width = n - i
        block = mask & ((1 << width) - 1)
        if block:
            touched |= (1 << i) | (block << (i + 1))
        mask >>= width
    return tuple(v for v in range(1, n + 1) if not touched >> v & 1)


def has_isolated_vertex(g):
    return bool(isolated_vertices(g))


def check_bounds(n, q):
    """True iff floor((n+1)/2) <= q <= C(n,2), the band where graphs on n
    unisolated vertices with q edges exist."""
    _check_int("n", n, 2)
    _check_int("q", q, 0)
    return (n + 1) // 2 <= q <= comb(n, 2)


def enumerate_d(n, q, cap=DEFAULT_ENUM_CAP):
    """All labeled graphs on n unisolated vertices with q edges, in
    lexicographic order of their edge-label sets, as a read-only
    ``GraphSequence`` over the kernel's meet-in-the-middle parts, which
    builds each graph from its mask on access.  The edge masks are never
    listed: the largest n = 7 cell, (7, 11), holds 343,161 graphs in 1,985
    parts that share 138 lists of 17,374 high masks in all.

    Refuses n above ``cap`` (default 7, where the 22 cells hold 1,887,284
    graphs); pass a larger cap explicitly to override.  Exact counts at any size come from the
    counting module instead.
    """
    _check_int("n", n, 2)
    _check_int("q", q, 0)
    if cap is not None and n > cap:
        raise EnumerationCapError(
            f"enumerate_d(n={n}) is above the cap {cap}; raise `cap` "
            "explicitly, or use counting.count_d for counts at this size")
    if n > 8:
        warnings.warn(
            f"enumerating subsets of the {comb(n, 2)} edges of K_{n}; "
            "this grows as 2^C(n,2) and may take very long", stacklevel=2)
    return GraphSequence(n, _kernel.unisolated_masks(n, q))
