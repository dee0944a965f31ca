"""The kernels' lattice, reducibility, nullity, basic-block and dismantling
predicates and their unisolated-subgraph enumeration against the slow
references in ``oracles``; on lattices also ``classify`` and
``is_rc_lattice``, which decide on the kernel's reducibility masks.  The
kernels read the order and cover masks a ``Poset`` stores, so those are
checked against the oracle's order and the input covers on every poset
too.

Every block on at most four reducibles, each block's single-element
removals, random posets of up to nine elements, non-lattices included, a
complete block past one 64-bit word, and every edge count of K_1..K_7 plus a
few of K_8.

``reducibility`` decides from each element's covers alone, so it is also
held to the element-pair scan over every incomparable pair,
``oracles.reducibility_by_pair_scan``, mask for mask: on every poset above,
on every naturally labeled poset of at most six elements, non-lattices
included, on CF(2..14), on seeded blocks on 10-20 reducibles, on a chain
and an antichain, and on random layered posets of up to 16 elements whose
layers share covers, so that many elements have many covers; those are
checked against the brute-force lattice and reducibility oracles too.
"""

import random
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from fbblat import _kernel
from fbblat.fbb import build_cf, build_fbb
from fbblat.labeling import unrank
from fbblat.poset import (Poset, classify, from_name_pairs, is_lattice,
                          is_rc_lattice, nullity)

import oracles


def _names_of(mask, names):
    return {x for i, x in enumerate(names) if mask >> i & 1}


def _assert_matches_oracles(label, names, covers):
    names = list(names)
    index = {x: i for i, x in enumerate(names)}
    n = len(names)
    pairs = sorted((index[a], index[b]) for a, b in covers)
    up, down = _kernel.closure(n, pairs)
    where = f"{label}: {n} elements, covers {sorted(covers)}"
    p = from_name_pairs(names, covers)
    assert p._index_covers() == tuple(sorted(set(pairs))), where
    for i, x in enumerate(names):  # cover sets, in element index order
        assert oracles.upper_covers(p, x) == tuple(
            names[b] for a, b in pairs if a == i), where
        assert oracles.lower_covers(p, x) == tuple(
            names[a] for a, b in pairs if b == i), where
    assert (p._up, p._down) == (tuple(up), tuple(down)), where
    strict = oracles.order_pairs(names, covers)
    for i, x in enumerate(names):  # the closure against the oracle's order
        assert _names_of(up[i], names) == {b for a, b in strict if a == x}, where
        assert _names_of(down[i], names) == {a for a, b in strict if b == x}, where
    lower, upper = p._lower, p._upper
    edges, comps = _kernel.induced_nullity_parts(n, lower, upper)
    assert comps == oracles.component_count(names, covers), where
    lattice, jr, mr = _kernel.reducibility(n, up, down, lower, upper)
    assert (lattice, jr, mr) == oracles.reducibility_by_pair_scan(n, up, down), where
    assert lattice == oracles.is_lattice(names, covers), where
    join_red, meet_red = oracles.reducibility(names, covers)
    assert (_names_of(jr, names), _names_of(mr, names)) == (join_red, meet_red), where
    if lattice:
        report = classify(p)
        assert ((report.reducible, report.join_irreducible,
                 report.meet_irreducible, report.doubly_irreducible)
                == (join_red | meet_red, set(names) - join_red,
                    set(names) - meet_red,
                    oracles.doubly_irreducible(names, covers))), where
        assert is_rc_lattice(p) == oracles.is_rc_lattice(names, covers), where
    assert edges - n + comps == oracles.nullity(names, covers), where
    assert (_kernel.basic_block_universal(n, up, down, lower, upper)
            == oracles.basic_block_by_removal(names, covers)), where
    order = _kernel.dismantling_order(n, up, down, lower, upper)
    if order is not None:
        order = tuple(names[i] for i in order)
    assert order == oracles.dismantling_order_by_recount(names, covers), where


def _blocks(max_n):
    for n, ranks in oracles.valid_rank_sets(max_n):
        yield n, ranks, build_fbb(n, ranks).poset


def test_every_small_block_and_its_removals():
    for n, ranks, p in _blocks(4):
        _assert_matches_oracles(f"block n={n} Q={list(ranks)}", p.names, p.covers)
        for z in p.names:
            keep = [x for x in p.names if x != z]
            _assert_matches_oracles(
                f"block n={n} Q={list(ranks)} without {z}",
                keep, oracles.induced_covers(p.names, p.covers, keep))


@st.composite
def _random_posets(draw):
    """Cover list of a random DAG's order on 1..9 elements, element indices
    shuffled so that index order need not be a linear extension; half of
    them get a bottom and a top, which makes lattices common."""
    n = draw(st.integers(1, 9))
    perm = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        chosen |= {(0, j) for j in range(1, n)} | {(i, n - 1) for i in range(n - 1)}
    names = [f"v{k}" for k in range(n)]
    edges = [(names[perm[i]], names[perm[j]]) for i, j in chosen]
    return names, oracles.covers_of_order(names, oracles.order_pairs(names, edges))


@settings(max_examples=300, deadline=None)
@given(_random_posets())
def test_random_posets(poset):
    names, covers = poset
    _assert_matches_oracles("random poset", names, covers)


def _assert_matches_pair_scan(label, p):
    n, up, down = len(p), p._up, p._down
    assert (_kernel.reducibility(n, up, down, p._lower, p._upper)
            == oracles.reducibility_by_pair_scan(n, up, down)), label


def test_reducibility_on_complete_blocks():
    for n in range(2, 15):
        _assert_matches_pair_scan(f"CF({n})", build_cf(n).poset)


# (n, q) of blocks on 10-20 reducibles, q across the existence band.
_WIDE_CELLS = ((10, 36), (12, 45), (16, 20), (20, 30), (14, 60), (16, 50),
               (18, 80), (20, 110))


def _block_touching_every_vertex(rng, n, q):
    while True:
        ranks = rng.sample(range(1, comb(n, 2) + 1), q)
        if len({v for k in ranks for v in unrank(n, k)}) == n:
            return build_fbb(n, ranks)


def test_reducibility_on_wide_blocks():
    rng = random.Random(12)
    for n, q in _WIDE_CELLS:
        for _ in range(3):
            f = _block_touching_every_vertex(rng, n, q)
            _assert_matches_pair_scan(f"block n={n} Q={sorted(f.ranks)}", f.poset)


def test_reducibility_on_a_chain_and_an_antichain():
    names = [f"v{k}" for k in range(12)]
    chain = Poset.chain(names)
    antichain = Poset(names, [])
    for label, p in (("chain", chain), ("antichain", antichain)):
        _assert_matches_pair_scan(label, p)
    assert _kernel.reducibility(12, chain._up, chain._down, chain._lower,
                                chain._upper) == (True, 0, 0)
    assert _kernel.reducibility(12, antichain._up, antichain._down,
                                antichain._lower, antichain._upper) == (False, 0, 0)


@st.composite
def _layered_posets(draw):
    """Cover list of a poset in 1..5 layers of 1..5 elements, at most 16 in
    all, each element covered by one of a few shared subsets of the next
    layer, so that many elements have equal up-sets (and down-sets); half
    of them get a bottom and a top.  Element indices are shuffled."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    while sum(sizes) > 16:
        sizes.pop()
    layers = []
    start = 0
    for size in sizes:
        layers.append(list(range(start, start + size)))
        start += size
    n = start
    edges = []
    for low, high in zip(layers, layers[1:]):
        shared = draw(st.lists(st.sets(st.sampled_from(high)), min_size=1, max_size=3))
        for x in low:
            edges += [(x, y) for y in draw(st.sampled_from(shared))]
    if draw(st.booleans()):
        bottom, top = n, n + 1
        n += 2
        covered = {b for _, b in edges}
        covering = {a for a, _ in edges}
        edges += [(bottom, x) for x in range(bottom) if x not in covered]
        edges += [(x, top) for x in range(bottom) if x not in covering]
    perm = draw(st.permutations(range(n)))
    names = [f"v{k}" for k in range(n)]
    return names, [(names[perm[a]], names[perm[b]]) for a, b in edges]


@settings(max_examples=200, deadline=None)
@given(_layered_posets())
def test_reducibility_on_layered_posets(poset):
    names, covers = poset
    p = from_name_pairs(names, covers)
    lattice, jr, mr = _kernel.reducibility(len(p), p._up, p._down, p._lower,
                                           p._upper)
    where = f"{len(names)} elements, covers {sorted(covers)}"
    assert ((lattice, jr, mr)
            == oracles.reducibility_by_pair_scan(len(p), p._up, p._down)), where
    assert lattice == oracles.is_lattice(names, covers), where
    join_red, meet_red = oracles.reducibility(names, covers)
    assert (_names_of(jr, names), _names_of(mr, names)) == (join_red, meet_red), where


def _naturally_labeled_posets(max_n):
    """(n, up, down, lower, upper) masks of every poset on 1..max_n elements
    whose index order is a linear extension, once each: the order closure of
    every set of pairs i < j, de-duplicated by up-masks."""
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for chosen in range(1 << len(pairs)):
            above = [0] * n
            for t, (i, j) in enumerate(pairs):
                if chosen >> t & 1:
                    above[i] |= 1 << j
            up = [0] * n
            for i in reversed(range(n)):  # every j above i is closed already
                for j in _kernel._bits(above[i]):
                    up[i] |= up[j] | 1 << j
            up = tuple(up)
            if up in seen:
                continue
            seen.add(up)
            down = tuple(sum(1 << i for i in range(n) if up[i] >> j & 1)
                         for j in range(n))
            upper = tuple(sum(1 << j for j in _kernel._bits(up[i])
                              if not up[i] & down[j]) for i in range(n))
            lower = tuple(sum(1 << i for i in range(n) if upper[i] >> j & 1)
                          for j in range(n))
            yield n, up, down, lower, upper


def test_reducibility_on_every_poset_of_up_to_six_elements():
    posets = lattices = 0
    for n, up, down, lower, upper in _naturally_labeled_posets(6):
        got = _kernel.reducibility(n, up, down, lower, upper)
        assert got == oracles.reducibility_by_pair_scan(n, up, down), up
        posets += 1
        lattices += got[0]
    # naturally labeled posets on 1..6 elements: 1 + 2 + 7 + 40 + 357 + 4824
    assert (posets, lattices) == (5231, 51)


def test_complete_block_past_one_word():
    big = build_cf(12).poset
    assert len(big) == 89
    assert is_lattice(big)
    assert nullity(big) == comb(12, 2)


# At nv = 8 the middle row q = 14 holds 39,186,780 masks, over a gigabyte
# per list, so q = 6 and 22 stand in for it.
_UNISOLATED_CELLS = [(nv, q) for nv in range(1, 8)
                     for q in range(-1, comb(nv, 2) + 2)]
_UNISOLATED_CELLS += [(8, q) for q in (3, 4, 6, 22, 25)]


def test_unisolated_masks_match_subset_scan():
    for nv, q in _UNISOLATED_CELLS:
        where = f"nv={nv} q={q}"
        parts = _kernel.unisolated_masks(nv, q)
        assert ([low | h for low, highs in parts for h in highs]
                == oracles.unisolated_masks_by_scan(nv, q)), where
        npairs = comb(nv, 2)
        low_half = (1 << (npairs + 1) // 2) - 1
        for low, highs in parts:  # low-half labels joined with high-half ones
            assert highs, where
            assert low & ~low_half == 0, where
            assert all(h & ~((1 << npairs) - 1 - low_half) == 0 for h in highs), where
