"""Slow independent reference implementations, used only to cross-check.

Nothing here touches the package's kernels: order closure and component
counts come from networkx, subset enumeration from itertools, and lattice
checks from brute-force bound scans.
"""

import itertools

import networkx as nx


def order_pairs(names, covers):
    """Strict order closure of a cover list, as a frozenset of name pairs."""
    dag = nx.DiGraph()
    dag.add_nodes_from(names)
    dag.add_edges_from(covers)
    return frozenset(nx.transitive_closure_dag(dag).edges())


def component_count(names, covers):
    g = nx.Graph()
    g.add_nodes_from(names)
    g.add_edges_from(covers)
    return nx.number_connected_components(g)


def nullity(names, covers):
    return len(set(map(tuple, covers))) - len(names) + component_count(names, covers)


def covers_of_order(names, pairs):
    """Minimal pairs of a strict order relation."""
    pairs = set(pairs)
    return {(a, b) for a, b in pairs
            if not any((a, c) in pairs and (c, b) in pairs for c in names)}


def induced_covers(names, covers, keep):
    """Cover relation of the subposet induced on ``keep``."""
    keep = set(keep)
    pairs = {(a, b) for a, b in order_pairs(names, covers)
             if a in keep and b in keep}
    return covers_of_order(keep, pairs)


def is_lattice(names, covers):
    """Brute-force unique-meet/unique-join check."""
    names = list(names)
    le = set(order_pairs(names, covers)) | {(x, x) for x in names}
    for x, y in itertools.combinations(names, 2):
        uppers = [u for u in names if (x, u) in le and (y, u) in le]
        least = [u for u in uppers if all((u, v) in le for v in uppers)]
        if len(least) != 1:
            return False
        lowers = [u for u in names if (u, x) in le and (u, y) in le]
        greatest = [u for u in lowers if all((v, u) in le for v in lowers)]
        if len(greatest) != 1:
            return False
    return True


def doubly_irreducible(names, covers):
    """Elements with at most one upper and at most one lower cover."""
    uppers = {x: 0 for x in names}
    lowers = {x: 0 for x in names}
    for a, b in covers:
        uppers[a] += 1
        lowers[b] += 1
    return {x for x in names if uppers[x] <= 1 and lowers[x] <= 1}


def basic_block_by_removal(names, covers):
    """Basic-block predicate by literal removal: one element, or no doubly
    irreducible element, or removing each doubly irreducible element and
    recounting the nullity of what is left gives one less."""
    names = list(names)
    irr = doubly_irreducible(names, covers)
    if len(names) == 1 or not irr:
        return True
    eta = nullity(names, covers)
    for z in irr:
        keep = [x for x in names if x != z]
        if nullity(keep, induced_covers(names, covers, keep)) != eta - 1:
            return False
    return True


def dismantling_order_by_recount(names, covers):
    """Greedy removal of doubly irreducible elements down to a singleton,
    earliest in ``names`` first, with the induced covers recomputed from
    scratch after every removal; None when no element can be removed."""
    names = list(names)
    left = list(names)
    order = []
    while len(left) > 1:
        irr = doubly_irreducible(left, induced_covers(names, covers, left))
        z = next((x for x in left if x in irr), None)
        if z is None:
            return None
        order.append(z)
        left.remove(z)
    return tuple(order)


def dict_pairs(n):
    """All pairs (i, j), i < j, in dictionary order via Python's tuple sort."""
    return sorted((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def unisolated_edge_sets(n, q):
    """Edge q-subsets of K_n covering every vertex, by full subset scan."""
    out = []
    for combo in itertools.combinations(dict_pairs(n), q):
        touched = {v for e in combo for v in e}
        if len(touched) == n:
            out.append(frozenset(combo))
    return out


def unisolated_masks_by_scan(nv, q):
    """Pair-label bitmasks of the q-edge subgraphs of K_nv with no isolated
    vertex, by scanning every q-subset of labels in itertools order."""
    npairs = nv * (nv - 1) // 2
    if q < 0 or q > npairs:
        return []
    vmask = [0] * nv
    k = 0
    for i in range(nv - 1):
        for j in range(i + 1, nv):
            vmask[i] |= 1 << k
            vmask[j] |= 1 << k
            k += 1
    out = []
    for combo in itertools.combinations(range(npairs), q):
        m = 0
        for c in combo:
            m |= 1 << c
        for v in range(nv):
            if not vmask[v] & m:
                break
        else:
            out.append(m)
    return out
