"""Dictionary-order labeling: rank/unrank against the sorted-pair oracle,
block laws, range law, and the edge-label map."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbblat.errors import OrientationError
from fbblat.graphs import DirectedLabeledGraph
from fbblat.labeling import (MAX_N, PairChain, block_end, label_edges,
                             pair_count, rank, unrank)

from oracles import dict_pairs


@pytest.mark.parametrize("n,i,j,k", [
    (4, 1, 2, 1),
    (4, 3, 4, 6),
    (5, 2, 4, 6),
    (2, 1, 2, 1),
])
def test_rank_known_values(n, i, j, k):
    assert rank(n, i, j) == k


@pytest.mark.parametrize("n,k,pair", [
    (4, 1, (1, 2)),
    (4, 4, (2, 3)),
    (5, 10, (4, 5)),
])
def test_unrank_known_values(n, k, pair):
    assert unrank(n, k) == pair


def test_rank_is_position_in_dictionary_order():
    for n in range(2, 13):
        for pos, (i, j) in enumerate(dict_pairs(n), start=1):
            assert rank(n, i, j) == pos
            assert unrank(n, pos) == (i, j)


def test_rank_image_has_no_gaps():
    for n in range(2, 13):
        image = {rank(n, i, j) for i, j in dict_pairs(n)}
        assert image == set(range(1, comb(n, 2) + 1))


def test_rank_strictly_increasing_along_dictionary_order():
    for n in range(2, 16):
        pairs = dict_pairs(n)
        ranks = [rank(n, i, j) for i, j in pairs]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)


def test_block_end_law():
    for n in range(2, 26):
        for r in range(1, n):
            assert block_end(n, r) == rank(n, r, n) == r * n - comb(r + 1, 2)


@given(st.integers(2, 50), st.data())
def test_round_trip_property(n, data):
    k = data.draw(st.integers(1, comb(n, 2)))
    i, j = unrank(n, k)
    assert rank(n, i, j) == k
    i2 = data.draw(st.integers(1, n - 1))
    j2 = data.draw(st.integers(i2 + 1, n))
    assert unrank(n, rank(n, i2, j2)) == (i2, j2)


@pytest.mark.parametrize("n", [MAX_N - 1, MAX_N])
def test_round_trip_at_the_size_limit(n):
    top = comb(n, 2)
    labels = {1, top}
    for r in [*range(1, 51), *range(n - 50, n)]:
        labels.add(block_end(n, r))
        if r < n - 1:
            labels.add(block_end(n, r) + 1)
    for k in sorted(labels):
        assert rank(n, *unrank(n, k)) == k, f"n={n} k={k}"


def test_pair_chain_structure():
    for n in range(2, 10):
        chain = PairChain.of(n)
        assert len(chain.pairs) == comb(n, 2)
        assert list(chain.pairs) == dict_pairs(n)
        blocks = chain.blocks()
        assert [len(b) for b in blocks] == [n - r for r in range(1, n)]
        assert sum(blocks, ()) == chain.pairs
        for r, block in enumerate(blocks, start=1):
            assert all(i == r for i, _ in block)


@pytest.mark.parametrize("call", [
    lambda: rank(4, 3, 3),
    lambda: rank(4, 3, 2),
    lambda: rank(4, 0, 2),
    lambda: rank(4, 2, 5),
    lambda: rank(1, 1, 2),
    lambda: rank(MAX_N + 1, 1, 2),
    lambda: unrank(4, 0),
    lambda: unrank(4, 7),
    lambda: unrank(1, 1),
    lambda: block_end(4, 0),
    lambda: block_end(4, 4),
    lambda: pair_count(1),
])
def test_domain_errors(call):
    with pytest.raises(ValueError):
        call()


def test_label_edges_complete_graph():
    k4 = DirectedLabeledGraph(4, dict_pairs(4))
    labels = label_edges(k4)
    assert sorted(labels.values()) == [1, 2, 3, 4, 5, 6]
    assert labels[(1, 2)] == 1 and labels[(3, 4)] == 6


def test_label_edges_known_subgraph():
    g = DirectedLabeledGraph(4, [(1, 2), (1, 4), (2, 3), (2, 4)])
    assert sorted(label_edges(g).values()) == [1, 3, 4, 5]


def test_label_edges_empty():
    assert label_edges(DirectedLabeledGraph(4)) == {}


def test_label_edges_rejects_bad_orientation():
    class Arcs:
        n = 4
        arcs = ((2, 1),)

    with pytest.raises(OrientationError):
        label_edges(Arcs())


def test_label_edges_inverse_recovers_edge():
    g = DirectedLabeledGraph(5, [(1, 3), (2, 5), (4, 5)])
    for arc, k in label_edges(g).items():
        assert unrank(5, k) == arc
