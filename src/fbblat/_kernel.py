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
    per-element lower and upper cover masks are ``lower`` and ``upper``."""
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
    return sum(m.bit_count() for m in upper), comps


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


def _bound_scan(up, down):
    """(mask of least elements, whether every set has one) over the distinct
    sets ``up[i] & up[j]`` of incomparable i, j.  Read with ``down`` and
    ``up`` swapped, it gives the greatest elements of the lower-bound sets.

    The scan visits classes of elements with equal up-set, not element
    pairs.  Two members of one class are incomparable (i < j would put j in
    up[i] but not in up[j]), so a class A of two or more members meets the
    bound set U_A they share.  For i in A and j in another class B, i < j
    iff j is in U_A and j < i iff i is in U_B, so j is incomparable to some
    member of A iff j lies outside U_A and outside D_A, the down-set common
    to A's members, and every such pair has the bound set U_A & U_B.  So A
    visits once each later class that meets the complement of U_A | D_A,
    and clears that class's members from the candidates.
    """
    classes = {}
    owner = []  # owner[j]: [members, D, U] of j's class
    for i, u in enumerate(up):
        c = classes.get(u)
        if c is None:
            c = classes[u] = [1 << i, down[i], u]
        else:
            c[0] |= 1 << i
            c[1] &= down[i]
        owner.append(c)
    bounds = set()
    rest = (1 << len(up)) - 1  # members of the classes not yet visited from
    for members, below, shared in classes.values():
        rest ^= members
        if members & (members - 1):
            bounds.add(shared)
        cand = rest & ~(shared | below)
        while cand:
            theirs, _, other = owner[(cand & -cand).bit_length() - 1]
            cand &= ~theirs
            bounds.add(shared & other)
    least = 0
    resolved = True
    for m in bounds:
        u = _least_of(m, up, down)
        if u < 0:
            resolved = False
        else:
            least |= 1 << u
    return least, resolved


def reducibility(n, up, down):
    """(is_lattice, join_reducible, meet_reducible) from one scan of the
    distinct bound sets of incomparable pairs on each side.

    x is join-reducible iff x = y v z for some y, z both distinct from x.
    Comparable pairs have one of themselves as join and meet, so only
    incomparable pairs can produce such an x, and for those the common upper
    bounds are ``up[i] & up[j]`` (neither i nor j is among them).  That set
    depends on i and j only through their up-sets, so ``_bound_scan``
    groups the elements into classes of equal up-set and visits class pairs
    instead of element pairs: a class pair yields the bound set U_A & U_B
    whichever of its incomparable element pairs is taken, and it is visited
    iff it holds one.  So the scan meets exactly the bound sets the
    element-pair scan meets, and the masks are the same bit for bit.  The
    lower-bound sets are scanned the same way over classes of equal
    down-set.  Each distinct set of common upper (lower) bounds is resolved
    to its least (greatest) element once.

    A finite poset with a single minimal element (its bottom) is a lattice
    iff every pair has a join (Davey & Priestley): the meet of a pair is then
    the join of its nonempty set of lower bounds.  So the poset is a lattice
    iff it has one minimal element and every upper-bound set the scan meets
    has a least element.  The scan runs to the end on non-lattices too, so
    the masks hold for every poset.
    """
    jr, joins = _bound_scan(up, down)
    mr, _ = _bound_scan(down, up)
    lattice = joins and down.count(0) <= 1
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
