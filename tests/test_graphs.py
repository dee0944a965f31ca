"""Labeled graphs: orientation round trips, isolated-vertex detection,
exhaustive enumeration against the itertools oracle, and the existence band."""

import warnings
from math import comb

import pytest

from fbblat import _kernel
from fbblat.errors import EnumerationCapError
from fbblat.graphs import (GraphSequence, LabeledGraph,
                           check_bounds, enumerate_d, has_isolated_vertex,
                           isolated_vertices, orient)
from fbblat.labeling import unrank

import oracles


def _kernel_masks(n, q):
    """The kernel's edge masks of D(n, q), flattened from its parts."""
    return [low | h for low, highs in _kernel.unisolated_masks(n, q) for h in highs]


def test_edges_normalize_and_roundtrip():
    g = LabeledGraph(4, [(2, 1), (4, 2)])
    assert g.edges == ((1, 2), (2, 4))
    assert g.ranks == (1, 5)
    assert LabeledGraph(4, g.edges) == g


def test_edges_are_the_unranked_labels():
    graphs = [LabeledGraph.from_mask(n, mask)
              for n in range(1, 6) for mask in range(1 << comb(n, 2))]
    # sparse: the first and last labels, and the end of row 1 and start of row 2
    graphs.append(LabeledGraph.from_ranks(200, [1, 199, 200, 5000, 19899, 19900]))
    for g in graphs:
        assert g.edges == tuple(unrank(g.n, k) for k in g.ranks), g.mask


def test_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        LabeledGraph(4, [(2, 2)])
    with pytest.raises(ValueError):
        LabeledGraph(4, [(1, 5)])
    with pytest.raises(ValueError):
        LabeledGraph.from_mask(3, 1 << 3)
    with pytest.raises(ValueError, match=r"^edge label 4 outside J_N for n = 3$"):
        LabeledGraph.from_ranks(3, [4])


@pytest.mark.parametrize("build,message", [
    (lambda: LabeledGraph.from_ranks(3, [1.5]), r"^edge label 1\.5 is not an integer$"),
    (lambda: LabeledGraph.from_ranks(3, [1, 2.0]), r"^edge label 2\.0 is not an integer$"),
    (lambda: LabeledGraph.from_ranks(3, ["2"]), r"^edge label '2' is not an integer$"),
    (lambda: LabeledGraph.from_ranks(3, [2.5]),
     r"^edge label 2\.5 is not an integer$"),
    # integrality is tested before range
    (lambda: LabeledGraph.from_ranks(3, [9.5]), r"^edge label 9\.5 is not an integer$"),
    (lambda: LabeledGraph.from_ranks(3, [0.5]), r"^edge label 0\.5 is not an integer$"),
    (lambda: LabeledGraph.from_ranks(3, [1, -0.5]), r"^edge label -0\.5 is not an integer$"),
    (lambda: LabeledGraph(3, [(1, 2.5)]), r"^pair \(1, 2\.5\) is not a pair of integers$"),
    (lambda: LabeledGraph(3, [(2.0, 1)]), r"^pair \(1, 2\.0\) is not a pair of integers$"),
])
def test_rejects_non_integer_labels_and_vertices(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", [
    lambda n: LabeledGraph.from_mask(n, 0),
    lambda n: LabeledGraph.from_ranks(n, []),
    lambda n: list(GraphSequence(n, [])),
    lambda n: LabeledGraph(n),
], ids=["from_mask", "from_ranks", "iter", "init"])
@pytest.mark.parametrize("n,message", [
    (0, r"^need n >= 1, got 0$"),
    (-2, r"^need n >= 1, got -2$"),
    (2.5, r"^n = 2\.5 is not an integer$"),
    (3.0, r"^n = 3\.0 is not an integer$"),
], ids=["0", "-2", "2.5", "3.0"])
def test_graphs_need_a_vertex(build, n, message):
    with pytest.raises(ValueError, match=message):
        build(n)


def test_orient_examples():
    assert orient(LabeledGraph(2, [(1, 2)])).arcs == ((1, 2),)
    g = LabeledGraph(4, [(2, 1), (4, 1), (3, 2), (4, 2)])
    assert orient(g).arcs == ((1, 2), (1, 4), (2, 3), (2, 4))
    assert orient(LabeledGraph(4)).arcs == ()


def test_orientation_round_trips():
    for n in range(2, 6):
        for q in range(comb(n, 2) + 1):
            for g in enumerate_d(n, q):
                dg = orient(g)
                assert type(dg) is LabeledGraph
                assert (dg.n, dg.mask, dg.arcs) == (g.n, g.mask, g.edges)
                assert orient(dg) == dg


def test_isolated_vertices_examples():
    assert isolated_vertices(LabeledGraph(4, [(1, 2)])) == (3, 4)
    assert isolated_vertices(LabeledGraph(4, [(1, 2), (1, 4), (2, 3), (2, 4)])) == ()
    assert isolated_vertices(LabeledGraph(2, [(1, 2)])) == ()
    assert has_isolated_vertex(LabeledGraph(3, [(1, 2)]))
    assert not has_isolated_vertex(LabeledGraph(2, [(1, 2)]))


def test_enumerate_d_smallest_cases():
    assert [g.edges for g in enumerate_d(2, 1)] == [((1, 2),)]
    three_paths = enumerate_d(3, 2)
    assert len(three_paths) == 3
    assert {g.edges for g in three_paths} == {
        ((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))}
    matchings = enumerate_d(4, 2)
    assert {g.edges for g in matchings} == {
        ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}


def test_enumerate_d_matches_subset_scan_oracle():
    for n in range(2, 6):
        for q in range(comb(n, 2) + 1):
            ours = [frozenset(g.edges) for g in enumerate_d(n, q)]
            expected = oracles.unisolated_edge_sets(n, q)
            assert sorted(map(sorted, ours)) == sorted(map(sorted, expected))
            assert len(set(ours)) == len(ours)


def test_enumerate_d_is_in_lexicographic_rank_order():
    for n in range(2, 6):
        for q in range(comb(n, 2) + 1):
            ranks = [g.ranks for g in enumerate_d(n, q)]
            assert ranks == sorted(ranks)


def test_enumerate_d_is_a_lazy_sequence_of_graphs():
    from collections.abc import Sequence

    masks = _kernel_masks(5, 6)
    seq = enumerate_d(5, 6)
    assert isinstance(seq, Sequence)
    assert len(seq) == len(masks) > 3
    for g, mask in zip(seq, masks, strict=True):
        assert type(g) is LabeledGraph and g.n == 5
        assert g == LabeledGraph.from_mask(5, mask)
    assert seq[0] == LabeledGraph.from_mask(5, masks[0])
    assert seq[-1] == seq[len(seq) - 1] == LabeledGraph.from_mask(5, masks[-1])
    assert seq[-2] == LabeledGraph.from_mask(5, masks[-2])
    for index in (len(seq), -len(seq) - 1):
        with pytest.raises(IndexError):
            seq[index]
    assert list(seq[1:4]) == [LabeledGraph.from_mask(5, m) for m in masks[1:4]]
    assert list(seq[::-2]) == [LabeledGraph.from_mask(5, m) for m in masks[::-2]]
    assert list(seq) == list(seq)
    assert list(reversed(seq)) == list(seq)[::-1]
    assert seq[2] in seq
    assert LabeledGraph(5, [(1, 2)]) not in seq
    assert LabeledGraph.from_mask(6, masks[0]) not in seq
    first = seq[0]
    assert orient(first) is first


def test_enumerate_d_iterates_as_from_mask_over_the_kernel_masks():
    for n in range(2, 7):
        for q in range(comb(n, 2) + 1):
            got = list(enumerate_d(n, q))
            assert got == [LabeledGraph.from_mask(n, m)
                           for m in _kernel_masks(n, q)], (n, q)
            assert all(type(g) is LabeledGraph and not hasattr(g, "__dict__")
                       for g in got)
            assert len(set(map(id, got))) == len(got)


@pytest.mark.parametrize("bad", [1 << 3, -1])
def test_graph_sequence_stops_at_a_bad_mask(bad):
    with pytest.raises(ValueError) as direct:
        LabeledGraph.from_mask(3, bad)
    # the bad bits come from a high mask, then from a part's low mask
    for parts in ([(0, [1, bad, 2])], [(0, [1]), (bad, [0, 2])]):
        it = iter(GraphSequence(3, parts))
        assert next(it) == LabeledGraph.from_mask(3, 1)
        with pytest.raises(ValueError) as lazy:
            next(it)
        assert str(lazy.value) == str(direct.value)


def test_graph_sequence_iterates_without_from_mask(monkeypatch):
    # Iteration builds graphs inline; a per-element classmethod call costs
    # about a third of an n = 7 enumeration pass.
    masks = _kernel_masks(5, 6)
    seq = enumerate_d(5, 6)

    def refuse(cls, n, mask):
        raise AssertionError("GraphSequence iteration called from_mask")

    monkeypatch.setattr(LabeledGraph, "from_mask", classmethod(refuse))
    assert [g.mask for g in seq] == masks


def test_graph_sequence_random_access_agrees_with_iteration():
    for n in range(2, 7):
        for q in range(comb(n, 2) + 1):
            seq = enumerate_d(n, q)
            walked = list(seq)
            size = len(walked)
            assert len(seq) == size, (n, q)
            assert [seq[i] for i in range(size)] == walked, (n, q)
            assert [seq[i] for i in range(-size, 0)] == walked, (n, q)
            assert list(reversed(seq)) == walked[::-1], (n, q)
            for cut in (slice(None, None, 3), slice(1, -1, 2), slice(None, None, -2),
                        slice(size // 2, None), slice(-5, None, -1)):
                part = seq[cut]
                assert type(part) is GraphSequence, (n, q)
                assert list(part) == walked[cut], (n, q, cut)
                assert [part[i] for i in range(len(part))] == walked[cut], (n, q, cut)


def test_enumerate_d_holds_shared_high_masks_not_members():
    # The largest n = 7 cell: parts of one (size, required vertices) key share
    # a list of high masks, so far fewer masks are held than members.
    seq = enumerate_d(7, 10)
    groups = {id(highs): highs for _, highs in seq._parts}
    held = sum(map(len, groups.values())) + len(seq._parts)
    assert held < len(seq) / 10


def test_enumerate_d_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_d(8, 4)
    # raising the cap explicitly works (one cheap cell only)
    got = enumerate_d(8, 4, cap=8)
    assert len(got) == 105  # perfect matchings of K_8: 7 * 5 * 3 * 1


def test_enumerate_d_warns_past_eight(monkeypatch):
    import fbblat._kernel as kernel

    monkeypatch.setattr(kernel, "unisolated_masks", lambda nv, q: [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enumerate_d(9, 5, cap=9)
    assert any("2^C(n,2)" in str(w.message) for w in caught)


def test_enumerate_d_rejects_tiny_n():
    with pytest.raises(ValueError):
        enumerate_d(1, 0)


@pytest.mark.parametrize("n,q,message", [
    (4, 2.5, r"^q = 2\.5 is not an integer$"),
    (4, 2.0, r"^q = 2\.0 is not an integer$"),
    (2.5, 1, r"^n = 2\.5 is not an integer$"),
    (3.0, 1, r"^n = 3\.0 is not an integer$"),
    (4, -1, r"^need q >= 0, got -1$"),
    (1, 0, r"^need n >= 2, got 1$"),
], ids=["q-half", "q-whole-float", "n-half", "n-whole-float", "q-negative",
        "n-tiny"])
def test_enumerate_d_rejects_non_integral_arguments(n, q, message):
    # enumerate_d and check_bounds share one domain for the cell (n, q)
    for call in (enumerate_d, check_bounds):
        with pytest.raises(ValueError, match=message):
            call(n, q)


@pytest.mark.parametrize("n,q,expected", [
    (4, 2, True),
    (4, 1, False),
    (5, 3, True),
    (5, 2, False),
    (4, 6, True),
    (4, 7, False),
])
def test_check_bounds_values(n, q, expected):
    assert check_bounds(n, q) is expected


def test_band_is_exactly_the_nonempty_region():
    for n in range(2, 8):
        for q in range(comb(n, 2) + 3):
            inside = check_bounds(n, q)
            count = len(enumerate_d(n, q))
            assert (count > 0) == inside, (n, q)


def test_enumerated_rank_sets_are_exactly_the_buildable_ones():
    # a label subset is enumerated iff it covers every vertex iff the block
    # assembler accepts it
    import itertools

    from fbblat.errors import UncoveredVertexError
    from fbblat.fbb import build_fbb

    for n in (3, 4):
        top = comb(n, 2)
        enumerated = {frozenset(g.ranks)
                      for q in range(top + 1) for g in enumerate_d(n, q)}
        for size in range(top + 1):
            for combo in itertools.combinations(range(1, top + 1), size):
                subset = frozenset(combo)
                if subset in enumerated:
                    assert build_fbb(n, subset).ranks == subset
                else:
                    with pytest.raises(UncoveredVertexError):
                        build_fbb(n, subset)


def test_graph_equality_is_mask_equality():
    a = LabeledGraph(4, [(1, 2), (3, 4)])
    b = LabeledGraph(4, [(3, 4), (1, 2)])
    c = LabeledGraph(5, [(1, 2), (3, 4)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert orient(a) is a
    assert LabeledGraph(2, [(1, 2)]) != 5


def test_reprs():
    assert (repr(LabeledGraph(4, [(3, 4), (1, 2)]))
            == "LabeledGraph(n=4, edges=[(1, 2), (3, 4)])")
    assert repr(enumerate_d(4, 3)) == "GraphSequence(n=4, len=16)"
