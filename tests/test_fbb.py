"""Block construction: the adjunct operation, CF(n), rank-set assembly,
basic-block predicates, and adjunct-representation extraction."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbblat import _kernel
from fbblat.errors import (DisjointnessError, ExtractionUnsupportedError,
                           InvalidAdjunctPairError, UncoveredVertexError)
from fbblat.fbb import (AdjunctTerm, CompleteFbb, Fbb,
                        adjunct, build_cf, build_fbb,
                        extract_adjunct_representation,
                        is_basic_block_universal, is_fundamental_basic_block,
                        nullity_bounds)
from fbblat.graphs import enumerate_d
from fbblat.labeling import rank, unrank
from fbblat.poset import (Poset, classify, is_dismantlable, is_lattice,
                          is_rc_lattice, nullity, remove_element)

import oracles


# -- adjunct operation -----------------------------------------------------------

def test_smallest_adjunct():
    base = Poset.chain(["u1", "x", "u2"])
    glued = adjunct(base, Poset(["c"], []), "u1", "u2")
    assert len(glued) == 4
    assert nullity(glued) == 1
    assert is_lattice(glued)
    assert set(glued.covers) == {("u1", "x"), ("x", "u2"),
                                 ("u1", "c"), ("c", "u2")}


def test_adjunct_rejects_covering_pair():
    with pytest.raises(InvalidAdjunctPairError):
        adjunct(Poset.chain(["a", "b"]), Poset.chain(["c", "d"]), "a", "b")


def test_adjunct_rejects_incomparable_pair():
    base = Poset.from_covers([("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    with pytest.raises(InvalidAdjunctPairError):
        adjunct(base, Poset(["c"], []), "a", "b")


def test_adjunct_rejects_shared_names():
    with pytest.raises(DisjointnessError):
        adjunct(Poset.chain("abc"), Poset(["a"], []), "a", "c")


def test_iterated_adjunct_reproduces_cf4(cf4_expected):
    base = Poset.chain(["u1", "x1", "u2", "x2", "u3", "x3", "u4"])
    result = base
    for k in range(1, 7):
        i, j = unrank(4, k)
        result = adjunct(result, Poset([f"c{k}"], []), f"u{i}", f"u{j}")
    assert len(result) == 13
    assert result == cf4_expected
    assert result == build_cf(4).poset


def test_adjunct_nullity_additivity_randomized():
    # chains have nullity 0; adjunct pairs need a gap of at least two
    rng = random.Random(20260810)
    for trial in range(1000):
        size = rng.randint(3, 9)
        names = [f"a{trial}_{i}" for i in range(size)]
        base = Poset.chain(names)
        lo = rng.randrange(size - 2)
        hi = rng.randrange(lo + 2, size)
        glue = Poset.chain([f"b{trial}_{i}" for i in range(rng.randint(1, 4))])
        glued = adjunct(base, glue, names[lo], names[hi])
        assert nullity(glued) == nullity(base) + nullity(glue) + 1


# -- CF(n) -------------------------------------------------------------------------

def test_cf2_is_smallest_block():
    p = build_cf(2).poset
    assert set(p.names) == {"u1", "x1", "u2", "c1"}
    assert len(p) == 4 == 2 * 2 - 1 + 1
    assert set(p.covers) == {("u1", "x1"), ("x1", "u2"),
                             ("u1", "c1"), ("c1", "u2")}
    assert nullity(p) == 1


def test_cf4_matches_reference(cf4_expected):
    block = build_cf(4)
    assert isinstance(block, CompleteFbb)
    assert block.poset == cf4_expected
    assert len(block.poset) == 13
    assert len(block.poset.covers) == 18


def test_cf5_counts():
    p = build_cf(5).poset
    assert len(p) == 19
    assert nullity(p) == 10


@pytest.mark.parametrize("n", range(2, 8))
def test_cf_structural_invariants(n):
    block = build_cf(n)
    p = block.poset
    top = comb(n, 2)
    assert len(p) == 2 * n - 1 + top
    assert len(p.covers) == 2 * n - 2 + 2 * top
    assert nullity(p) == top
    assert is_lattice(p)
    assert is_rc_lattice(p)
    assert is_dismantlable(p)
    assert is_basic_block_universal(p)
    assert is_fundamental_basic_block(block)
    assert classify(p).reducible == {f"u{i}" for i in range(1, n + 1)}


def test_cf_rejects_small_n():
    with pytest.raises(ValueError):
        build_cf(1)


# -- build_fbb ----------------------------------------------------------------------

def test_build_fbb_known_block(f4_1345_expected):
    block = build_fbb(4, {1, 3, 4, 5})
    assert block.poset == f4_1345_expected
    assert len(block.poset) == 10
    assert nullity(block.poset) == 4
    assert classify(block.poset).reducible == {"u1", "u2", "u3", "u4"}
    assert is_fundamental_basic_block(block)


def test_build_fbb_full_ranks_is_cf():
    assert build_fbb(4, range(1, 7)).poset == build_cf(4).poset


def test_build_fbb_uncovered_vertices():
    with pytest.raises(UncoveredVertexError) as err:
        build_fbb(4, {1})
    assert err.value.vertices == (3, 4)
    assert "u3" in str(err.value) and "u4" in str(err.value)


def test_build_fbb_rejects_labels_outside_range():
    with pytest.raises(ValueError):
        build_fbb(4, {0, 1, 2, 3, 4, 5, 6})
    with pytest.raises(ValueError):
        build_fbb(4, {7})


def test_build_fbb_ranks_are_a_set():
    # duplicate labels collapse; multiplicity above one is unrepresentable
    block = build_fbb(4, [1, 1, 3, 4, 5, 5])
    assert block.ranks == frozenset({1, 3, 4, 5})
    assert block == build_fbb(4, {1, 3, 4, 5})


def test_fbb_nullity_equals_rank_count():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 6)
        top = comb(n, 2)
        ranks = set()
        for v in range(1, n + 1):  # force coverage, then sprinkle
            other = rng.choice([w for w in range(1, n + 1) if w != v])
            ranks.add(rank(n, min(v, other), max(v, other)))
        ranks |= {rng.randint(1, top) for _ in range(rng.randint(0, top))}
        block = build_fbb(n, ranks)
        assert nullity(block.poset) == len(block.ranks)
        assert classify(block.poset).reducible == {
            f"u{i}" for i in range(1, n + 1)}


def test_canonical_identity():
    # equal posets iff equal rank sets
    sets4 = [frozenset(g.ranks) for g in enumerate_d(4, 4)]
    blocks = [build_fbb(4, Q) for Q in sets4]
    for a, qa in zip(blocks, sets4):
        for b, qb in zip(blocks, sets4):
            assert (a.poset == b.poset) == (qa == qb)


# -- basic-block predicates ------------------------------------------------------------

def test_singleton_is_basic_block():
    assert is_basic_block_universal(Poset(["a"], []))


def test_chain_is_not_basic_block():
    # removals keep nullity at 0, and chains do have doubly irreducibles
    assert not is_basic_block_universal(Poset.chain("abc"))


def test_no_irreducibles_clause():
    cube = Poset.from_covers([
        ("000", "100"), ("000", "010"), ("000", "001"),
        ("100", "110"), ("100", "101"),
        ("010", "110"), ("010", "011"),
        ("001", "101"), ("001", "011"),
        ("110", "111"), ("101", "111"), ("011", "111"),
    ])
    assert classify(cube).doubly_irreducible == frozenset()
    assert is_basic_block_universal(cube)


def test_cf4_is_basic_block(cf4_expected):
    assert is_basic_block_universal(cf4_expected)


def test_spliced_chain_element_breaks_basic_block(cf4_expected):
    # a doubly irreducible element glued above u4 removes without touching
    # the nullity
    names = list(cf4_expected.names) + ["t"]
    covers = list(cf4_expected.covers) + [("u4", "t")]
    spliced = Poset(names, covers)
    assert not is_basic_block_universal(spliced)
    assert nullity(remove_element(spliced, "t")) == nullity(spliced)


def test_basic_block_matches_naive_removal_loop():
    # the kernel agrees with literally removing each element and recounting
    cases = [build_cf(3).poset, build_cf(4).poset,
             build_fbb(4, {1, 3, 4, 5}).poset,
             build_fbb(5, {1, 5, 8, 10}).poset,
             Poset.chain("abcd")]
    for p in cases:
        expected = oracles.basic_block_by_removal(p.names, p.covers)
        assert is_basic_block_universal(p) == expected, p


def test_basic_block_result_is_cached(monkeypatch):
    calls = []
    real = _kernel.basic_block_universal

    def counted(n, up, down, covers):
        calls.append(n)
        return real(n, up, down, covers)

    monkeypatch.setattr(_kernel, "basic_block_universal", counted)
    block = build_fbb(4, {1, 3, 4, 5})
    assert is_basic_block_universal(block.poset)
    assert is_basic_block_universal(block.poset)
    assert is_fundamental_basic_block(block)
    assert len(calls) == 1


# -- fundamental blocks and extraction ---------------------------------------------------

def test_extract_known_block():
    block = build_fbb(4, {1, 3, 4, 5})
    rep = extract_adjunct_representation(block)
    assert rep.base_chain == ("u1", "x1", "u2", "x2", "u3", "u4")
    assert [t.chain[0] for t in rep.terms] == ["c1", "c3", "c4", "c5"]
    assert [(t.lower, t.upper) for t in rep.terms] == [
        ("u1", "u2"), ("u1", "u4"), ("u2", "u3"), ("u2", "u4")]


def test_extract_cf4_full_term_list():
    rep = extract_adjunct_representation(build_cf(4))
    assert rep.base_chain == ("u1", "x1", "u2", "x2", "u3", "x3", "u4")
    assert len(rep.terms) == 6
    for pos, term in enumerate(rep.terms, start=1):
        i, j = unrank(4, pos)
        assert term == AdjunctTerm(f"u{i}", f"u{j}", (f"c{pos}",))


def test_extract_smallest_block():
    rep = extract_adjunct_representation(build_fbb(2, {1}))
    assert rep.base_chain == ("u1", "x1", "u2")
    assert rep.terms == (AdjunctTerm("u1", "u2", ("c1",)),)


def test_extraction_round_trips_through_assembly():
    for n, ranks in [(2, {1}), (4, {1, 3, 4, 5}), (4, set(range(1, 7))),
                     (5, {1, 5, 8, 10}), (6, {1, 6, 10, 13, 15})]:
        block = build_fbb(n, ranks)
        assert extract_adjunct_representation(block).assemble() == block.poset


def test_extraction_rejects_foreign_poset():
    foreign = Fbb(2, frozenset({1}), Poset.chain("abc"))
    with pytest.raises(ExtractionUnsupportedError):
        extract_adjunct_representation(foreign)


def test_fundamental_predicate_on_known_blocks():
    assert is_fundamental_basic_block(build_fbb(4, {1, 3, 4, 5}))
    for n in range(2, 7):
        assert is_fundamental_basic_block(build_cf(n))


def test_fundamental_predicate_rejects_non_lattice():
    # canonical names, but no top element: fails the lattice gate
    p = Poset.from_covers([("u1", "c1"), ("u1", "x1")])
    assert not is_fundamental_basic_block(Fbb(2, frozenset({1}), p))


def test_fundamental_predicate_rejects_broken_basic_block(cf4_expected):
    names = list(cf4_expected.names) + ["t"]
    covers = list(cf4_expected.covers) + [("u4", "t")]
    spliced = Fbb(4, frozenset(range(1, 7)), Poset(names, covers))
    assert not is_fundamental_basic_block(spliced)


# -- index-based assembly and extraction against the name-based reference -------------

def _assert_same_block(n, ranks):
    where = f"n={n} Q={sorted(ranks)}"
    block = build_fbb(n, ranks)
    p, ref = block.poset, oracles.assemble_by_names(n, ranks)
    assert p.names == ref.names, where
    assert p._covers == ref._covers, where
    assert p._up == ref._up, where
    assert p._down == ref._down, where
    assert (extract_adjunct_representation(block)
            == oracles.extract_by_names(block)), where


def test_assembly_matches_name_based_reference():
    for n, ranks in oracles.valid_rank_sets(5):
        _assert_same_block(n, frozenset(ranks))
    for n in range(2, 8):
        cf = build_cf(n)
        ref = oracles.assemble_by_names(n, cf.ranks)
        assert (cf.poset.names, cf.poset._covers) == (ref.names, ref._covers), n


@st.composite
def _rank_sets(draw):
    """A rank set on 2..9 reducibles: random labels, then one pair added
    for every vertex they leave uncovered."""
    n = draw(st.integers(2, 9))
    ranks = draw(st.sets(st.integers(1, comb(n, 2))))
    covered = {v for k in ranks for v in unrank(n, k)}
    for v in range(1, n + 1):
        if v not in covered:
            ranks.add(rank(n, v, v + 1) if v < n else rank(n, v - 1, v))
    return n, frozenset(ranks)


@settings(max_examples=200, deadline=None)
@given(_rank_sets())
def test_assembly_matches_name_based_reference_random(case):
    _assert_same_block(*case)


def _extraction_outcome(extract, block):
    try:
        return extract(block)
    except Exception as exc:  # the type is what is compared
        return type(exc)


def _foreign_blocks(cf4):
    spliced = Poset(list(cf4.names) + ["t"], list(cf4.covers) + [("u4", "t")])
    f = build_fbb(4, {1, 3, 4, 5}).poset
    yield Fbb(2, frozenset({1}), Poset.chain("abc"))
    yield Fbb(2, frozenset({1}), Poset.from_covers([("u1", "c1"), ("u1", "x1")]))
    yield Fbb(4, frozenset(range(1, 7)), spliced)
    yield Fbb(4, frozenset({1, 3, 4}), f)                       # c5 not in Q
    yield Fbb(4, frozenset({1, 3, 4, 5, 6}), f)                 # c6 missing
    yield Fbb(4, frozenset({1, 3, 4, 5}), remove_element(f, "x1"))
    yield Fbb(4, frozenset({1, 3, 4, 5}), Poset.from_covers(   # c3 glued low
        [c for c in f.covers if c != ("c3", "u4")] + [("c3", "u3")]))
    yield Fbb(4, frozenset({1, 3, 4, 5}),
              Poset.from_covers(f.covers, ["u1", "x1", "x9"]))  # stray name
    yield Fbb(4, frozenset({1, 3, 4, 5}), f)                    # the block
    yield Fbb(3, frozenset({2, 3}), Poset.from_covers(          # x1, no c1
        [("u1", "x1"), ("x1", "u2"), ("u2", "x2"), ("x2", "u3"),
         ("u1", "c2"), ("c2", "u3"), ("u2", "c3"), ("c3", "u3")]))


def test_extraction_matches_name_based_reference_on_foreign_posets(cf4_expected):
    for block in _foreign_blocks(cf4_expected):
        assert (_extraction_outcome(extract_adjunct_representation, block)
                == _extraction_outcome(oracles.extract_by_names, block)), block


# -- bounds and removal route -------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(2, (1, 1)), (4, (2, 6)), (5, (3, 10))])
def test_nullity_bounds_values(n, expected):
    assert nullity_bounds(n) == expected


def test_nullity_bounds_rejects_small_n():
    with pytest.raises(ValueError):
        nullity_bounds(1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_single_removal_route_matches_direct_build(n):
    # dropping c_k (and x_i when the pair is consecutive) from the complete
    # block equals building from the complement rank set
    top = comb(n, 2)
    cf = build_cf(n)
    for k in range(1, top + 1):
        i, j = unrank(n, k)
        trimmed = remove_element(cf.poset, f"c{k}")
        if j == i + 1:
            assert not is_basic_block_universal(trimmed)
            trimmed = remove_element(trimmed, f"x{i}")
        direct = build_fbb(n, set(range(1, top + 1)) - {k})
        assert trimmed == direct.poset
        assert nullity(trimmed) == top - 1
        assert is_fundamental_basic_block(
            Fbb(n, frozenset(set(range(1, top + 1)) - {k}), trimmed))


def test_removal_route_undefined_at_n2():
    cf = build_cf(2)
    trimmed = remove_element(remove_element(cf.poset, "c1"), "x1")
    assert trimmed == Poset.chain(["u1", "u2"])
    with pytest.raises(UncoveredVertexError):
        build_fbb(2, set())


def test_up_to_nminus2_removals_keep_all_reducibles():
    # dropping at most n-2 of the c's never strips a reducible of its status;
    # dropping n-1 of them can
    import itertools

    n = 4
    cf = build_cf(n)
    reducibles = {f"u{i}" for i in range(1, n + 1)}
    for size in range(1, n - 1):
        for combo in itertools.combinations(range(1, comb(n, 2) + 1), size):
            block = build_fbb(n, set(range(1, comb(n, 2) + 1)) - set(combo))
            assert classify(block.poset).reducible == reducibles
    stripped = {1, 2, 3}  # all pairs touching vertex 1
    survivor = cf.poset
    for k in stripped:
        survivor = remove_element(survivor, f"c{k}")
    survivor = remove_element(survivor, "x1")
    assert "u1" not in classify(survivor).reducible


def test_closed_form_for_large_nullity():
    # once l >= N - n + 2 every l-subset of labels is a valid rank set
    for n in range(2, 8):
        top = comb(n, 2)
        for l in range(max(0, top - n + 2), top + 1):
            assert len(enumerate_d(n, l)) == comb(top, l)
