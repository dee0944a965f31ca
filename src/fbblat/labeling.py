"""Dictionary-order edge labels for vertex-labeled graphs.

The pairs (i, j) with 1 <= i < j <= n, ordered lexicographically, form a
chain; ``rank`` realizes its order isomorphism onto J_N = {1..C(n,2)} via

    rank(i, j) = (i-1)*n - C(i,2) + j - i

and ``unrank`` inverts it.  The chain splits into blocks S_1..S_{n-1} (block
r holds the pairs with first coordinate r) and block r ends at the label
r*n - C(r+1,2).  Counted from the top, the last s blocks hold C(s+1, 2)
labels, so ``unrank`` finds a label's block with one integer square root.

Labels are plain ints; indexing is 1-based throughout, and callers that host
0-based conventions convert at this module's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .errors import OrientationError

# C(n,2) stays comfortably inside 32 bits under this limit; exact counting at
# larger n lives in the counting module.
MAX_N = 1 << 15


def _check_n(n):
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the supported limit {MAX_N}")


def pair_count(n):
    """N = C(n,2), the number of vertex pairs and the top of J_N."""
    _check_n(n)
    return comb(n, 2)


def rank(n, i, j):
    """Label in J_N of the pair (i, j)."""
    _check_n(n)
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    return (i - 1) * n - comb(i, 2) + j - i


def block_end(n, r):
    """Label of (r, n), the last pair of block S_r."""
    _check_n(n)
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < {n}, got r = {r}")
    return r * n - comb(r + 1, 2)


def unrank(n, k):
    """The unique pair (i, j) with rank(n, i, j) = k."""
    _check_n(n)
    top = n * (n - 1) // 2
    if not 1 <= k <= top:
        raise ValueError(f"label {k} outside J_N = 1..{top}")
    after = top - k  # labels above k
    s = (isqrt(8 * after + 1) + 1) // 2  # k lies in block S_{n-s}, s pairs
    return n - s, n - after + s * (s - 1) // 2


@dataclass(frozen=True)
class PairChain:
    """The chain S of pairs in dictionary order with its block structure."""

    n: int
    pairs: tuple

    @classmethod
    def of(cls, n):
        _check_n(n)
        return cls(n, tuple((i, j) for i in range(1, n)
                            for j in range(i + 1, n + 1)))

    def blocks(self):
        """S_1, ..., S_{n-1}; block r has n - r pairs."""
        out = []
        start = 0
        for r in range(1, self.n):
            out.append(self.pairs[start:start + self.n - r])
            start += self.n - r
        return out


def label_edges(g):
    """Label map for a low-to-high oriented subgraph of K_n.

    ``g`` needs vertex count ``g.n`` and arcs ``g.arcs``; each arc (i, j) maps
    to rank(n, i, j), and the map is injective with inverse ``unrank``.
    """
    out = {}
    for i, j in g.arcs:
        if not (1 <= i < j <= g.n):
            raise OrientationError(
                f"arc ({i}, {j}) is not oriented low-to-high within 1..{g.n}")
        out[(i, j)] = rank(g.n, i, j)
    return out
