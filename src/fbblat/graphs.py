"""Labeled graphs on vertices 1..n, stored as edge-label bitmasks.

Bit k-1 of a graph's mask is the pair with label k, so equality of labeled
graphs, subset enumeration, and the rank-set identity used on the lattice
side are all literally the same machine word.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from functools import partial
from math import comb

from . import _kernel
from .errors import EnumerationCapError, OrientationError
from .labeling import rank, unrank

DEFAULT_ENUM_CAP = 7


def _mask_ranks(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


class LabeledGraph:
    """Undirected labeled graph; edges are 2-subsets of {1..n}."""

    __slots__ = ("n", "mask")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
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
        if mask < 0 or mask >> comb(n, 2):
            raise ValueError(f"edge mask {mask:#x} has bits outside J_N for n = {n}")
        obj = cls.__new__(cls)
        obj.n = n
        obj.mask = mask
        return obj

    @classmethod
    def from_ranks(cls, n, ranks):
        """The graph whose edge labels are ``ranks``."""
        mask = 0
        for k in ranks:
            if k < 1:
                raise ValueError(f"edge label {k} outside J_N for n = {n}")
            mask |= 1 << (k - 1)
        return cls.from_mask(n, mask)

    @property
    def edges(self):
        return tuple(unrank(self.n, k) for k in _mask_ranks(self.mask))

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


class DirectedLabeledGraph(LabeledGraph):
    """Subgraph of K_n with every edge oriented low-to-high."""

    __slots__ = ()

    def __init__(self, n, arcs=()):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        mask = 0
        for i, j in arcs:
            if not i < j:
                raise OrientationError(
                    f"arc ({i}, {j}) is not oriented low-to-high")
            mask |= 1 << (rank(n, i, j) - 1)
        self.n = n
        self.mask = mask

    @property
    def arcs(self):
        return self.edges


class GraphSequence(Sequence):
    """Read-only sequence of labeled graphs on n vertices, backed by a list
    of edge masks.  Each element is built by ``LabeledGraph.from_mask`` when
    it is indexed or iterated over, so only the masks are held."""

    __slots__ = ("n", "_masks")

    def __init__(self, n, masks):
        self.n = n
        self._masks = masks

    def __len__(self):
        return len(self._masks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GraphSequence(self.n, self._masks[index])
        return LabeledGraph.from_mask(self.n, self._masks[index])

    def __iter__(self):
        return map(partial(LabeledGraph.from_mask, self.n), self._masks)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, len={len(self)})"


def orient(g):
    """The unique low-to-high orientation of a labeled graph."""
    return DirectedLabeledGraph.from_mask(g.n, g.mask)


def forget_orientation(dg):
    """Drop arc directions; inverse of ``orient``."""
    return LabeledGraph.from_mask(dg.n, dg.mask)


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
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n + 1) // 2 <= q <= comb(n, 2)


def enumerate_d(n, q, cap=DEFAULT_ENUM_CAP):
    """All labeled graphs on n unisolated vertices with q edges, in
    lexicographic order of their edge-label sets, as a read-only
    ``GraphSequence`` that builds each graph from its edge mask on access.

    Refuses n above ``cap`` (default 7, where the 22 cells hold 1,887,284
    graphs); pass a larger cap explicitly to override.  Exact counts at any size come from the
    counting module instead.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if cap is not None and n > cap:
        raise EnumerationCapError(
            f"enumerate_d(n={n}) is above the cap {cap}; raise `cap` "
            "explicitly, or use counting.count_d for counts at this size")
    if n > 8:
        warnings.warn(
            f"enumerating subsets of the {comb(n, 2)} edges of K_{n}; "
            "this grows as 2^C(n,2) and may take very long", stacklevel=2)
    return GraphSequence(n, _kernel.unisolated_masks(n, q))
