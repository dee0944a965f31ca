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

Every size and cell index of the package -- the n of a graph, a block or a
pair chain, a count's q or l, a triangle's max_n -- is checked by
``_check_int`` here: an integer, at least the least value of its domain.
Python ints are unbounded, so n has no upper limit here; the sizes that cost
time or memory are bounded where that cost is paid.
"""

import operator
from math import comb, isqrt


def _check_int(name, value, least):
    """Raise ValueError unless ``value`` is an integer >= ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} = {value!r} is not an integer") from None
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")


def pair_count(n):
    """N = C(n,2), the number of vertex pairs and the top of J_N, for any
    integer n >= 2."""
    _check_int("n", n, 2)
    return comb(n, 2)


def rank(n, i, j):
    """Label in J_N of the pair (i, j)."""
    pair_count(n)  # checks n
    try:
        i, j = operator.index(i), operator.index(j)
    except TypeError:
        raise ValueError(f"pair ({i!r}, {j!r}) is not a pair of integers") from None
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    return (i - 1) * n - comb(i, 2) + j - i


def unrank(n, k):
    """The unique pair (i, j) with rank(n, i, j) = k."""
    top = pair_count(n)
    try:
        operator.index(k)
    except TypeError:
        raise ValueError(f"label {k!r} is not an integer") from None
    if not 1 <= k <= top:
        raise ValueError(f"label {k} outside J_N = 1..{top}")
    after = top - k  # labels above k
    s = (isqrt(8 * after + 1) + 1) // 2  # k lies in block S_{n-s}, s pairs
    return n - s, n - after + s * (s - 1) // 2


def label_edges(g):
    """Label map for a subgraph of K_n: each pair (i, j), i < j, of
    ``g.edges`` maps to rank(g.n, i, j); the map is injective with inverse
    ``unrank``.  ``rank`` rejects an edge not written i < j with ValueError."""
    return {(i, j): rank(g.n, i, j) for i, j in g.edges}
