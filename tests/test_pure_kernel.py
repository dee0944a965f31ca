"""The kernels' lattice, reducibility, nullity, basic-block and dismantling
predicates and their unisolated-subgraph enumeration against the slow
references in ``oracles``.

Every block on at most four reducibles, each block's single-element
removals, random posets of up to nine elements, non-lattices included, a
complete block past one 64-bit word, and every edge count of K_1..K_7 plus a
few of K_8.
"""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from fbblat import _kernel
from fbblat.fbb import build_cf, build_fbb
from fbblat.poset import is_lattice, nullity

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
    assert _kernel.is_lattice(n, up, down) == oracles.is_lattice(names, covers), where
    jr, mr = _kernel.reducibility(n, up, down)
    assert ((_names_of(jr, names), _names_of(mr, names))
            == oracles.reducibility(names, covers)), where
    edges, comps = _kernel.induced_nullity_parts(n, pairs, (1 << n) - 1)
    assert edges - n + comps == oracles.nullity(names, covers), where
    assert (_kernel.basic_block_universal(n, up, down, pairs)
            == oracles.basic_block_by_removal(names, covers)), where
    order = _kernel.dismantling_order(n, up, down, pairs)
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
        assert (_kernel.unisolated_masks(nv, q)
                == oracles.unisolated_masks_by_scan(nv, q)), f"nv={nv} q={q}"
