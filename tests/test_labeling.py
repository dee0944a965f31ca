"""Dictionary-order labeling: rank/unrank against the sorted-pair oracle,
block laws, range law, and the edge-label map."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbblat.graphs import LabeledGraph
from fbblat.labeling import label_edges, pair_count, rank, unrank

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
            assert rank(n, r, n) == r * n - comb(r + 1, 2)


@given(st.integers(2, 50), st.data())
def test_round_trip_property(n, data):
    k = data.draw(st.integers(1, comb(n, 2)))
    i, j = unrank(n, k)
    assert rank(n, i, j) == k
    i2 = data.draw(st.integers(1, n - 1))
    j2 = data.draw(st.integers(i2 + 1, n))
    assert unrank(n, rank(n, i2, j2)) == (i2, j2)


# n has no upper limit: labels on either side of 2**15 and far past it.
@pytest.mark.parametrize("n", [32767, 32768, 10**6])
def test_round_trip_at_the_size_limit(n):
    top = comb(n, 2)
    labels = {1, top}
    for r in [*range(1, 51), *range(n - 50, n)]:
        labels.add(rank(n, r, n))
        if r < n - 1:
            labels.add(rank(n, r, n) + 1)
    for k in sorted(labels):
        assert rank(n, *unrank(n, k)) == k, f"n={n} k={k}"


@pytest.mark.parametrize("call", [
    lambda: rank(4, 3, 3),
    lambda: rank(4, 3, 2),
    lambda: rank(4, 0, 2),
    lambda: rank(4, 2, 5),
    lambda: rank(1, 1, 2),
    lambda: rank(4, -1, 2),
    lambda: unrank(4, 0),
    lambda: unrank(4, 7),
    lambda: unrank(1, 1),
    lambda: unrank(4, -1),
    lambda: pair_count(0),
    lambda: pair_count(1),
])
def test_domain_errors(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("i,j,shown", [
    (1, 2.5, r"\(1, 2\.5\)"),
    (1.0, 3, r"\(1\.0, 3\)"),
    ("1", 2, r"\('1', 2\)"),
])
def test_rank_rejects_non_integer_vertices(i, j, shown):
    with pytest.raises(ValueError, match=rf"^pair {shown} is not a pair of integers$"):
        rank(4, i, j)


@pytest.mark.parametrize("call,message", [
    (lambda: rank(2.5, 1, 2), r"^n = 2\.5 is not an integer$"),
    (lambda: pair_count(2.5), r"^n = 2\.5 is not an integer$"),
    (lambda: unrank(4.0, 1), r"^n = 4\.0 is not an integer$"),
    (lambda: unrank(4, 1.5), r"^label 1\.5 is not an integer$"),
    (lambda: unrank(4, 2.0), r"^label 2\.0 is not an integer$"),
    (lambda: rank(3.0, 1, 2), r"^n = 3\.0 is not an integer$"),
    (lambda: pair_count(3.0), r"^n = 3\.0 is not an integer$"),
    (lambda: unrank(2.5, 1), r"^n = 2\.5 is not an integer$"),
], ids=["rank-n", "pair_count-n", "unrank-n", "unrank-k", "unrank-whole-float",
        "rank-whole-float-n", "pair_count-whole-float-n", "unrank-half-n"])
def test_rejects_non_integral_sizes_and_labels(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_label_edges_complete_graph():
    k4 = LabeledGraph(4, dict_pairs(4))
    labels = label_edges(k4)
    assert sorted(labels.values()) == [1, 2, 3, 4, 5, 6]
    assert labels[(1, 2)] == 1 and labels[(3, 4)] == 6


def test_label_edges_known_subgraph():
    g = LabeledGraph(4, [(1, 2), (1, 4), (2, 3), (2, 4)])
    assert sorted(label_edges(g).values()) == [1, 3, 4, 5]


def test_label_edges_empty():
    assert label_edges(LabeledGraph(4)) == {}


def test_label_edges_rejects_bad_orientation():
    class Edges:
        n = 4
        edges = ((2, 1),)

    with pytest.raises(ValueError, match=r"^need 1 <= i < j <= 4, got \(2, 1\)$"):
        label_edges(Edges())


def test_label_edges_of_an_undirected_graph():
    assert label_edges(LabeledGraph(4, [(2, 1), (4, 2)])) == {(1, 2): 1, (2, 4): 5}


def test_label_edges_inverse_recovers_edge():
    g = LabeledGraph(5, [(1, 3), (2, 5), (4, 5)])
    for arc, k in label_edges(g).items():
        assert unrank(5, k) == arc
