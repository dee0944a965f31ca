"""Slow independent reference implementations, used only to cross-check.

Order closure and component counts come from networkx, subset enumeration
from itertools, and lattice and reducibility checks from brute-force bound
scans; none of these touches the package's kernels.  The name-based block
assembly and extraction are the package's earlier routines, kept as the
reference for the index-based ones: they build and read posets through the
public constructor and name lookups.
"""

import itertools

import networkx as nx

from fbblat.errors import ExtractionUnsupportedError
from fbblat.fbb import AdjunctRepresentation, AdjunctTerm
from fbblat.labeling import rank, unrank
from fbblat.poset import Poset


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


def _least(candidates, le):
    least = [u for u in candidates if all((u, v) in le for v in candidates)]
    return least[0] if len(least) == 1 else None


def reducibility(names, covers):
    """(join-reducible, meet-reducible) element sets by definition: x is
    join-reducible iff x is the least upper bound of two elements both
    distinct from x, dually for meets."""
    names = list(names)
    le = set(order_pairs(names, covers)) | {(x, x) for x in names}
    ge = {(b, a) for a, b in le}
    join_red, meet_red = set(), set()
    for y, z in itertools.combinations(names, 2):
        join = _least([u for u in names if (y, u) in le and (z, u) in le], le)
        if join is not None and join not in (y, z):
            join_red.add(join)
        meet = _least([u for u in names if (u, y) in le and (u, z) in le], ge)
        if meet is not None and meet not in (y, z):
            meet_red.add(meet)
    return join_red, meet_red


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


def valid_rank_sets(max_n):
    """(n, rank tuple) of every rank set on 2..max_n reducibles whose pairs
    touch every vertex, by scanning all label subsets."""
    for n in range(2, max_n + 1):
        labels = range(1, n * (n - 1) // 2 + 1)
        for size in range(1, len(labels) + 1):
            for ranks in itertools.combinations(labels, size):
                if len({v for k in ranks for v in unrank(n, k)}) == n:
                    yield n, ranks


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


def assemble_by_names(n, rankset):
    """Block of the rank set written as u<i>/x<i>/c<k> name covers and
    built through the public constructor, which resolves every name."""
    chain = []
    for i in range(1, n):
        chain.append(f"u{i}")
        if rank(n, i, i + 1) in rankset:
            chain.append(f"x{i}")
    chain.append(f"u{n}")
    ordered = sorted(rankset)
    names = chain + [f"c{k}" for k in ordered]
    covers = list(zip(chain, chain[1:]))
    for k in ordered:
        i, j = unrank(n, k)
        covers.append((f"u{i}", f"c{k}"))
        covers.append((f"c{k}", f"u{j}"))
    return Poset(names, covers)


def extract_by_names(f):
    """Adjunct representation of a canonically named block, by parsing the
    c<k> names back into labels and asking each c_k for its covers."""
    p = f.poset
    n = f.n
    expected_chain = []
    for i in range(1, n):
        expected_chain.append(f"u{i}")
        if f"x{i}" in p:
            expected_chain.append(f"x{i}")
    expected_chain.append(f"u{n}")
    cs = []
    for name in p.names:
        if name in expected_chain:
            continue
        if not name.startswith("c"):
            raise ExtractionUnsupportedError(
                f"element {name!r} is outside the canonical naming scheme")
        try:
            k = int(name[1:])
        except ValueError:
            raise ExtractionUnsupportedError(
                f"element {name!r} is outside the canonical naming scheme") from None
        cs.append(k)
    cs.sort()
    if frozenset(cs) != f.ranks:
        raise ExtractionUnsupportedError(
            f"poset members {sorted(cs)} disagree with the rank set "
            f"{sorted(f.ranks)}")
    covers = set(p.covers)
    for lo, hi in zip(expected_chain, expected_chain[1:]):
        if (lo, hi) not in covers:
            raise ExtractionUnsupportedError(
                f"base chain is broken between {lo!r} and {hi!r}")
    terms = []
    for k in cs:
        i, j = unrank(n, k)
        name = f"c{k}"
        if p.lower_covers(name) != (f"u{i}",) or p.upper_covers(name) != (f"u{j}",):
            raise ExtractionUnsupportedError(
                f"{name!r} is not glued between u{i} and u{j}")
        terms.append(AdjunctTerm(f"u{i}", f"u{j}", (name,)))
    return AdjunctRepresentation(tuple(expected_chain), tuple(terms))
