"""Bitset poset kernels.

Elements are indices 0..n-1 and element subsets are Python ints used as
bitmasks, so the same code handles posets of any size.
"""


def compiled_available():
    """Whether a compiled kernel is available; the kernels are pure Python."""
    return False


def active_implementation(nbits=0):
    """Name of the implementation a call with ``nbits`` working bits uses."""
    return "pure"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure(n, covers):
    """Strict reachability masks (up, down) of an acyclic cover list.

    ``down`` is pushed along each cover as Kahn's topological sort reaches
    its lower end, and ``up`` is pulled back in reverse topological order.
    Raises ValueError if the cover relation has a cycle.
    """
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in covers:
        succ[lo].append(hi)
        indeg[hi] += 1
    down = [0] * n
    topo = [v for v in range(n) if indeg[v] == 0]
    for v in topo:  # grows while iterating
        below = down[v] | (1 << v)
        for w in succ[v]:
            down[w] |= below
            indeg[w] -= 1
            if indeg[w] == 0:
                topo.append(w)
    if len(topo) != n:
        raise ValueError("cover relation contains a cycle")
    up = [0] * n
    for v in reversed(topo):
        acc = 0
        for w in succ[v]:
            acc |= up[w] | (1 << w)
        up[v] = acc
    return up, down


def covers_within(n, up, down, mask):
    """Cover pairs of the subposet induced on ``mask``."""
    out = []
    for x in range(n):
        if not (mask >> x) & 1:
            continue
        for y in _bits(up[x] & mask):
            if not up[x] & down[y] & mask:
                out.append((x, y))
    return out


def induced_nullity_parts(n, lower, upper):
    """(cover-edge count, component count) of the cover graph whose
    per-element lower and upper cover masks are ``lower`` and ``upper``.

    With exactly one minimal element (one empty lower cover mask) the graph
    is connected without a flood: every element lies above that minimal
    element, and a maximal chain between the two is a path of cover edges.
    """
    edges = sum(map(int.bit_count, upper))
    if lower.count(0) == 1:
        return edges, 1
    comps = 0
    rest = (1 << n) - 1
    while rest:  # flood one component from the lowest element left
        frontier = seen = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            new = (lower[v] | upper[v]) & ~seen
            seen |= new
            frontier |= new
        rest &= ~seen
        comps += 1
    return edges, comps


def _least_of(subset, up, down):
    """Index of the least element of ``subset``, or -1 if it has none (the
    empty subset included).  ``_least_of(subset, down, up)`` reads the same
    masks upside down and gives the greatest element."""
    rest = subset
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if not down[u] & subset:  # minimal element (lowest-index one)
            # least iff every element of the subset sits above u
            return -1 if subset & ~(up[u] | low) else u
        rest ^= low
    return -1


def _two_bounded_by(covers, masks, target):
    """Whether two distinct members a, b of ``covers`` have
    ``masks[a] & masks[b] == target``."""
    while covers:
        low = covers & -covers
        covers ^= low
        mine = masks[low.bit_length() - 1]
        rest = covers
        while rest:
            other = rest & -rest
            if mine & masks[other.bit_length() - 1] == target:
                return True
            rest ^= other
    return False


def _joins_of_covers(covers, up, down, resolved):
    """Whether every two distinct members of ``covers``, the upper covers
    of one element, have a join; ``resolved`` collects the upper-bound sets
    already found to have a least element."""
    while covers:
        low = covers & -covers
        covers ^= low
        mine = up[low.bit_length() - 1]
        rest = covers
        while rest:
            other = rest & -rest
            rest ^= other
            bounds = mine & up[other.bit_length() - 1]
            if bounds not in resolved:
                if _least_of(bounds, up, down) < 0:
                    return False
                resolved.add(bounds)
    return True


def reducibility(n, up, down, lower, upper):
    """(is_lattice, join_reducible, meet_reducible) masks, read from the
    order masks ``up``/``down`` at the cover masks ``lower``/``upper``.

    Two distinct upper covers a, b of one element are incomparable, so their
    common upper bounds are ``up[a] & up[b]``; dually for lower covers.

    *Lattice test.*  The poset is a lattice iff it has exactly one minimal
    element and every two distinct upper covers of a common element have a
    join.  Necessity is clear.  Conversely, the minimal element is then the
    bottom, so any x, y have a common lower bound; take one, w, of greatest
    height.  If w is x or y, the other is the join.  Otherwise pick covers
    w < x' <= x and w < y' <= y.  They are distinct by the choice of w, so
    j = x' v y' exists.  The pairs (x, j) and then (x v j, y) have common
    lower bounds x' and y' above w's height, so by induction on that height,
    from the greatest down, their joins exist, and the second join is x v y
    (every upper bound of x and y lies above x' and y', so above j).  A
    finite poset with a bottom and all joins is a lattice: the meet of a
    pair is the join of its lower bounds, which include the bottom.

    *Reducibility.*  x is join-reducible (x = y v z with y, z both distinct
    from x) iff two distinct lower covers a, b of x have
    ``up[a] & up[b] == up[x] | 1 << x``.  If x = y v z, replace y and then z
    by lower covers of x above them.  The common upper bounds stay x and
    the elements above it, and the two covers differ, since a cover's join
    with itself is not x.  The converse is the definition.
    Meet-reducibility is the dual over upper covers and ``down``.  Both
    hold in every finite poset, so the masks are exact on non-lattices too;
    the lattice test alone stops at its first missing join.  On a lattice
    every two distinct lower covers of x join to x, so the first pair
    decides.
    """
    lattice = down.count(0) <= 1
    resolved = set()
    jr = mr = 0
    for x in range(n):
        bit = 1 << x
        below, above = lower[x], upper[x]
        if below & (below - 1) and _two_bounded_by(below, up, up[x] | bit):
            jr |= bit
        if above & (above - 1):
            if _two_bounded_by(above, down, down[x] | bit):
                mr |= bit
            if lattice:
                lattice = _joins_of_covers(above, up, down, resolved)
    return lattice, jr, mr


def basic_block_universal(n, up, down, lower, upper):
    """One element, or no doubly irreducible element, or every doubly
    irreducible element's removal drops the nullity by exactly one;
    ``lower`` and ``upper`` are the per-element cover masks.

    Each removal is decided locally.  Removing z deletes its one or two
    cover edges and can create only the cover (a, b), where a is z's lower
    and b its upper cover; the component count stays unless z is isolated.
    So the nullity drops by exactly one iff z has both covers and something
    other than z lies strictly between a and b.
    """
    if n == 1:
        return True
    for z in range(n):
        lo, hi = lower[z], upper[z]
        if lo & (lo - 1) or hi & (hi - 1):
            continue
        if not lo or not hi:
            return False
        a = lo.bit_length() - 1
        b = hi.bit_length() - 1
        if up[a] & down[b] == 1 << z:
            return False
    return True


def dismantling_order(n, up, down, lower, upper):
    """Greedy removal order of doubly irreducible elements down to a
    singleton, lowest index first, or None when the process gets stuck;
    ``lower`` and ``upper`` are the per-element cover masks.

    Copies of the cover masks are updated per removal: removing z from
    between its covers a and b deletes (a, z) and (z, b) and adds (a, b) when
    nothing else remaining lies between them.  No element's cover count
    grows, so a doubly irreducible element stays one until it is removed.
    """
    mask = (1 << n) - 1
    lower = list(lower)
    upper = list(upper)
    irr = 0
    for v, (lo, hi) in enumerate(zip(lower, upper)):
        if not (lo & (lo - 1) or hi & (hi - 1)):
            irr |= 1 << v
    order = []
    for _ in range(n - 1):
        if not irr:
            return None
        bit = irr & -irr
        z = bit.bit_length() - 1
        order.append(z)
        mask ^= bit
        irr ^= bit
        lo, hi = lower[z], upper[z]
        a = lo.bit_length() - 1
        b = hi.bit_length() - 1
        if lo:
            upper[a] ^= bit
        if hi:
            lower[b] ^= bit
        if lo and hi and not up[a] & down[b] & mask:
            upper[a] |= hi
            lower[b] |= lo
        for v in (a, b):
            if v >= 0:
                below, above = lower[v], upper[v]
                if not (below & (below - 1) or above & (above - 1)):
                    irr |= 1 << v
    return order


def _subsets_with_covers(labels, pair_cover):
    """(mask, vertex cover) of every subset of ``labels``.

    Subsets holding the lowest label come first, each part ordered the same
    way on the remaining labels, so subsets of one size are in itertools
    combinations order.
    """
    subsets = [(0, 0)]
    for k in reversed(labels):
        bit, cover = 1 << k, pair_cover[k]
        subsets = [(m | bit, c | cover) for m, c in subsets] + subsets
    return subsets


def unisolated_masks(nv, q):
    """Bitmasks over pair labels of the q-edge subgraphs of K_nv with no
    isolated vertex, in lexicographic order of their label sets, as parts:
    a list of ``(low, highs)`` pairs whose members are ``low | h`` for each
    ``h`` in ``highs``, part by part.

    A meet-in-the-middle join over a low and a high half of the labels.
    Label sets of one size sort by the lowest label of their symmetric
    difference, the set holding it first, so the members are each low-half
    subset ``low`` in that order, joined with the high-half subsets of the
    complementary size that cover every vertex ``low`` leaves uncovered,
    those in combinations order.  High-half subsets are grouped by (size,
    vertices required) on first use, and parts with the same key share one
    ``highs`` list, so the join is never flattened.  No part is empty.
    """
    npairs = nv * (nv - 1) // 2
    if q < 0 or q > npairs:
        return []
    pair_cover = [(1 << i) | (1 << j)
                  for i in range(nv - 1) for j in range(i + 1, nv)]
    full = (1 << nv) - 1
    half = (npairs + 1) // 2
    high_by_size = [[] for _ in range(npairs - half + 1)]
    for m, c in _subsets_with_covers(range(half, npairs), pair_cover):
        high_by_size[m.bit_count()].append((m, c))
    groups = {}
    parts = []
    for low, cover in _subsets_with_covers(range(half), pair_cover):
        size = q - low.bit_count()
        if not 0 <= size < len(high_by_size):
            continue
        need = full & ~cover
        group = groups.get((size, need))
        if group is None:
            group = groups[size, need] = [
                m for m, c in high_by_size[size] if c & need == need]
        if group:
            parts.append((low, group))
    return parts
