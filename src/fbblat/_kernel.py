"""Bitset poset kernels.

Elements are indices 0..n-1 and element subsets are Python ints used as
bitmasks, so the same code handles posets of any size.
"""

from __future__ import annotations


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

    Raises ValueError if the cover relation has a cycle.
    """
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in covers:
        succ[lo].append(hi)
        pred[hi].append(lo)
        indeg[hi] += 1
    topo = [v for v in range(n) if indeg[v] == 0]
    for v in topo:  # grows while iterating
        for w in succ[v]:
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
    down = [0] * n
    for v in topo:
        acc = 0
        for w in pred[v]:
            acc |= down[w] | (1 << w)
        down[v] = acc
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


def induced_nullity_parts(n, covers, mask):
    """(cover-edge count, component count) of the subposet induced on mask,
    given its cover pairs ``covers`` (for the whole poset, ``Poset._covers``;
    for a proper subset, ``covers_within``)."""
    adj = [0] * n
    for x, y in covers:
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    comps = 0
    rest = mask
    while rest:  # flood one component from the lowest element left
        frontier = seen = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        rest &= ~seen
        comps += 1
    return len(covers), comps


def _least_of(subset, up, down):
    """Index of the least element of nonempty ``subset``, or -1 if none."""
    rest = subset
    u = -1
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if not down[u] & subset:  # minimal element (lowest-index one)
            break
        rest ^= low
    # least iff every element of the subset sits above u
    if subset & ~(up[u] | (1 << u)):
        return -1
    return u


def _greatest_of(subset, up, down):
    """Index of the greatest element of nonempty ``subset``, or -1 if none."""
    rest = subset
    u = -1
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if not up[u] & subset:
            break
        rest ^= low
    if subset & ~(down[u] | (1 << u)):
        return -1
    return u


def is_lattice(n, up, down):
    """True iff every element pair has a unique join and a unique meet.

    A finite poset with a single minimal element (its bottom) is a lattice
    iff every pair has a join (Davey & Priestley): the meet of a pair is then
    the join of its nonempty set of lower bounds.  Comparable pairs always
    have a join, so only incomparable pairs are scanned, and no meet is;
    each distinct set of common upper bounds is checked once.
    """
    if sum(1 for d in down if not d) > 1:
        return False
    full = (1 << n) - 1
    joined = set()
    for i in range(n):
        inc = (full ^ ((2 << i) - 1)) & ~(up[i] | down[i])  # j > i only
        while inc:
            low = inc & -inc
            m = up[i] & up[low.bit_length() - 1]
            if m not in joined:
                if not m or _least_of(m, up, down) < 0:
                    return False
                joined.add(m)
            inc ^= low
    return True


def reducibility(n, up, down):
    """(join_reducible, meet_reducible) masks, computed definitionally:
    x is join-reducible iff x = y v z for some y, z both distinct from x.

    Only incomparable pairs can produce such an x, so those are scanned,
    and each distinct set of common upper (lower) bounds is resolved to its
    least (greatest) element once.
    """
    jr = 0
    mr = 0
    upr = [up[i] | (1 << i) for i in range(n)]
    downr = [down[i] | (1 << i) for i in range(n)]
    uppers = set()
    lowers = set()
    full = (1 << n) - 1
    for i in range(n):
        inc = (full ^ ((2 << i) - 1)) & ~(up[i] | down[i])  # j > i only
        while inc:
            low = inc & -inc
            j = low.bit_length() - 1
            inc ^= low
            m = upr[i] & upr[j]
            if m and m not in uppers:
                uppers.add(m)
                u = _least_of(m, up, down)
                if u >= 0:
                    jr |= 1 << u
            m = downr[i] & downr[j]
            if m and m not in lowers:
                lowers.add(m)
                u = _greatest_of(m, up, down)
                if u >= 0:
                    mr |= 1 << u
    return jr, mr


def _cover_masks(n, covers):
    """Per-element (lower, upper) cover masks from the cover pairs."""
    lower = [0] * n
    upper = [0] * n
    for x, y in covers:
        upper[x] |= 1 << y
        lower[y] |= 1 << x
    return lower, upper


def _at_most_one(mask):
    return not mask & (mask - 1)


def basic_block_universal(n, up, down, covers):
    """One element, or no doubly irreducible element, or every doubly
    irreducible element's removal drops the nullity by exactly one;
    ``covers`` is the poset's cover relation as index pairs.

    Each removal is decided locally.  Removing z deletes its one or two
    cover edges and can create only the cover (a, b), where a is z's lower
    and b its upper cover; the component count stays unless z is isolated.
    So the nullity drops by exactly one iff z has both covers and something
    other than z lies strictly between a and b.
    """
    if n == 1:
        return True
    lower, upper = _cover_masks(n, covers)
    for z in range(n):
        lo, hi = lower[z], upper[z]
        if not (_at_most_one(lo) and _at_most_one(hi)):
            continue
        if not lo or not hi:
            return False
        a = lo.bit_length() - 1
        b = hi.bit_length() - 1
        if up[a] & down[b] == 1 << z:
            return False
    return True


def dismantling_order(n, up, down, covers):
    """Greedy removal order of doubly irreducible elements down to a
    singleton, lowest index first, or None when the process gets stuck;
    ``covers`` is the poset's cover relation as index pairs.

    Cover masks are built once and updated per removal: removing z from
    between its covers a and b deletes (a, z) and (z, b) and adds (a, b) when
    nothing else remaining lies between them.  No element's cover count
    grows, so a doubly irreducible element stays one until it is removed.
    """
    mask = (1 << n) - 1
    lower, upper = _cover_masks(n, covers)
    irr = 0
    for v in range(n):
        if _at_most_one(lower[v]) and _at_most_one(upper[v]):
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
            if v >= 0 and _at_most_one(lower[v]) and _at_most_one(upper[v]):
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
    isolated vertex, in lexicographic order of their label sets.

    A meet-in-the-middle join over a low and a high half of the labels.
    Label sets of one size sort by the lowest label of their symmetric
    difference, the set holding it first, so the output is each low-half
    subset in that order, joined with the high-half subsets of the
    complementary size that cover every vertex the low subset leaves
    uncovered, those in combinations order.  High-half subsets are grouped
    by (size, vertices required) on first use, and each group is appended
    at C speed.
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
    out = []
    for low, cover in _subsets_with_covers(range(half), pair_cover):
        size = q - low.bit_count()
        if not 0 <= size < len(high_by_size):
            continue
        need = full & ~cover
        group = groups.get((size, need))
        if group is None:
            group = groups[size, need] = [
                m for m, c in high_by_size[size] if c & need == need]
        out.extend(map(low.__or__, group))
    return out
