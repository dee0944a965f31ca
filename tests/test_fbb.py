"""Block construction: the adjunct operation, CF(n), rank-set assembly,
basic-block predicates, and adjunct-representation extraction."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbblat import _kernel, fbb
from fbblat.correspondence import phi
from fbblat.errors import (DisjointnessError, ExtractionUnsupportedError,
                           InvalidAdjunctPairError, NotALatticeError,
                           UncoveredVertexError)
from fbblat.fbb import (AdjunctTerm, Fbb,
                        adjunct, build_cf, build_fbb,
                        extract_adjunct_representation,
                        is_basic_block_universal, is_fundamental_basic_block)
from fbblat.graphs import LabeledGraph, enumerate_d
from fbblat.labeling import rank, unrank
from fbblat.poset import (Poset, classify, dismantling_order, from_name_pairs,
                          is_dismantlable, is_lattice, is_rc_lattice, nullity,
                          remove_element)

import oracles
from conftest import diamond_poset, grid_poset, strict_order


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
    base = oracles.poset_of([("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    with pytest.raises(InvalidAdjunctPairError):
        adjunct(base, Poset(["c"], []), "a", "b")


def test_adjunct_rejects_shared_names():
    with pytest.raises(DisjointnessError):
        adjunct(Poset.chain("abc"), Poset(["a"], []), "a", "c")


def test_adjunct_rejects_non_lattices():
    vee = oracles.poset_of([("a", "c"), ("b", "c")])
    with pytest.raises(NotALatticeError, match="the base"):
        adjunct(vee, Poset(["p"], []), "a", "c")
    with pytest.raises(NotALatticeError, match="the glued part"):
        adjunct(build_cf(3).poset, Poset(["p", "q"], []), "u1", "u3")


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
    assert block.mask == (1 << top) - 1
    assert is_lattice(p)
    assert is_rc_lattice(p)
    assert is_dismantlable(p)
    assert is_basic_block_universal(p)
    assert is_fundamental_basic_block(block)
    assert classify(p).reducible == {f"u{i}" for i in range(1, n + 1)}


def test_cf_rejects_small_n():
    with pytest.raises(ValueError):
        build_cf(1)


@pytest.mark.parametrize("build", [
    build_cf,
    lambda n: build_fbb(n, {1, 3}),
], ids=["cf", "fbb"])
@pytest.mark.parametrize("n,message", [
    (1, r"^need n >= 2, got 1$"),
    (2.5, r"^n = 2\.5 is not an integer$"),
    (3.0, r"^n = 3\.0 is not an integer$"),
], ids=["1", "2.5", "3.0"])
def test_block_builders_check_n(build, n, message):
    with pytest.raises(ValueError, match=message):
        build(n)


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
    with pytest.raises(ValueError, match=r"^edge label 1\.5 is not an integer$"):
        build_fbb(3, {1.5, 2, 3})
    # integrality is tested before range, so these are not "outside J_N"
    with pytest.raises(ValueError, match=r"^edge label 9\.5 is not an integer$"):
        build_fbb(3, {9.5})
    with pytest.raises(ValueError, match=r"^edge label 0\.5 is not an integer$"):
        build_fbb(3, {0.5})
    with pytest.raises(ValueError, match=r"^edge label 7 outside J_N for n = 4$"):
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
    cube = oracles.poset_of([
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
    spliced = from_name_pairs(names, covers)
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

    def counted(n, up, down, lower, upper):
        calls.append(n)
        return real(n, up, down, lower, upper)

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
    foreign = oracles.fbb_of(2, {1}, Poset.chain("abc"))
    with pytest.raises(ExtractionUnsupportedError):
        extract_adjunct_representation(foreign)


def test_fundamental_predicate_on_known_blocks():
    assert is_fundamental_basic_block(build_fbb(4, {1, 3, 4, 5}))
    for n in range(2, 7):
        assert is_fundamental_basic_block(build_cf(n))


def test_fundamental_predicate_rejects_non_lattice():
    # canonical names, but no top element: fails the lattice gate
    p = oracles.poset_of([("u1", "c1"), ("u1", "x1")])
    assert not is_fundamental_basic_block(oracles.fbb_of(2, {1}, p))


def test_fundamental_predicate_rejects_broken_basic_block(cf4_expected):
    names = list(cf4_expected.names) + ["t"]
    covers = list(cf4_expected.covers) + [("u4", "t")]
    spliced = oracles.fbb_of(4, range(1, 7), from_name_pairs(names, covers))
    assert not is_fundamental_basic_block(spliced)


def _renamed(p, prefix):
    return from_name_pairs([prefix + x for x in p.names],
                           [(prefix + a, prefix + b) for a, b in p.covers])


def test_renamed_block_reads_from_its_order():
    block = build_fbb(4, {1, 3, 4, 5})
    renamed = Fbb(4, block.mask, _renamed(block.poset, "e"))
    assert is_fundamental_basic_block(renamed)
    rep = extract_adjunct_representation(renamed)
    assert rep.base_chain == ("eu1", "ex1", "eu2", "ex2", "eu3", "eu4")
    assert rep.assemble() == renamed.poset
    assert phi(renamed).arcs == ((1, 2), (1, 4), (2, 3), (2, 4))


def test_repeated_adjunct_pair_is_not_fundamental():
    # a second element between u1 and u3 realizes the pair (1, 3) twice
    cf3 = build_cf(3).poset
    p = from_name_pairs(list(cf3.names) + ["d"],
                        list(cf3.covers) + [("u1", "d"), ("d", "u3")])
    block = oracles.fbb_of(3, {1, 2, 3}, p)
    assert is_lattice(p) and is_rc_lattice(p) and is_basic_block_universal(p)
    assert not is_fundamental_basic_block(block)
    with pytest.raises(ExtractionUnsupportedError, match="realized 2 times"):
        extract_adjunct_representation(block)


def _with_pendants(below, above, first=False):
    """CF(4) with a pendant element under u1 for each name of ``below`` and
    over u4 for each of ``above``; listed first if ``first``, else last."""
    cf4 = build_cf(4).poset
    extra = [*below, *above]
    names = extra + list(cf4.names) if first else list(cf4.names) + extra
    covers = (list(cf4.covers) + [(s, "u1") for s in below]
              + [("u4", t) for t in above])
    return from_name_pairs(names, covers)


@pytest.mark.parametrize("poset,message", [
    # the first reducible apart from another, g10, is apart from g01 alone
    # in the 3x3 grid and from g01 and g02 in the 3x4 one: the last is named
    (grid_poset(3, 3), "reducibles 'g10' and 'g01' are incomparable"),
    (grid_poset(3, 4), "reducibles 'g10' and 'g02' are incomparable"),
    # stray doubly irreducible elements: the text names the last one
    (_with_pendants([], ["t"]), "element 't' does not sit between two reducibles"),
    (_with_pendants(["s"], ["t"]), "element 't' does not sit between two reducibles"),
    # the only stray element is element 0
    (_with_pendants(["s"], [], first=True),
     "element 's' does not sit between two reducibles"),
], ids=["grid-3x3", "grid-3x4", "pendant-top", "two-pendants", "pendant-first"])
def test_reading_names_the_element_that_breaks_it(poset, message):
    for read in (phi, extract_adjunct_representation):
        with pytest.raises(ExtractionUnsupportedError) as err:
            read(Fbb(4, 0, poset))
        assert str(err.value) == message


def test_block_is_read_once(monkeypatch):
    # one scan and one reading per poset, whichever route computed them: a
    # block read first proves its scan from its cover counts, and a block
    # asked for lattice-ness first is read from the kernel's scan
    reads, scans = [], []
    real_read, real_scan = fbb._read_block, _kernel.reducibility

    def counted_read(p, red, doubly):
        reads.append(p)
        return real_read(p, red, doubly)

    def counted_scan(n, up, *masks):
        scans.append(up)
        return real_scan(n, up, *masks)

    monkeypatch.setattr(fbb, "_read_block", counted_read)
    monkeypatch.setattr(_kernel, "reducibility", counted_scan)
    for scan_first in (False, True):
        reads.clear()
        scans.clear()
        block = build_fbb(5, {1, 5, 8, 10})
        p = block.poset
        if scan_first:
            assert is_lattice(p)
        assert phi(block) == LabeledGraph.from_ranks(5, block.ranks)
        assert extract_adjunct_representation(block).assemble() == p
        assert is_fundamental_basic_block(block)
        assert is_lattice(p) and is_rc_lattice(p)
        assert len(classify(p).reducible) == 5
        assert reads == [p]
        # assemble() scans the posets it glues, not p
        assert sum(up is p._up for up in scans) == scan_first


# -- element order and order duality --------------------------------------------

_ORDERS = {
    "reversed": oracles.reversed_order,
    "dual": oracles.dual,
    "reversed-dual": lambda p: oracles.reversed_order(oracles.dual(p)),
}


@pytest.mark.parametrize("order", _ORDERS)
def test_every_block_reads_the_same_in_other_element_orders(order):
    # the dual reads as the graph with every vertex i renamed n + 1 - i
    for n, ranks in oracles.valid_rank_sets(5):
        assembled = build_fbb(n, ranks).poset
        p = _ORDERS[order](assembled)
        g = LabeledGraph.from_ranks(n, ranks)
        if "dual" in order:
            g = oracles.mirrored(g)
        where = f"{order} n={n} ranks={ranks}"
        f = Fbb(n, g.mask, p)
        assert (p == assembled) == (order == "reversed"), where
        assert phi(f) == g, where
        assert nullity(p) == len(ranks), where
        assert len(classify(p).reducible) == n, where
        assert is_basic_block_universal(p) and is_rc_lattice(p), where
        assert is_fundamental_basic_block(f), where
        assert extract_adjunct_representation(f).assemble() == p, where


def test_dismantling_order_matches_the_recount_in_every_element_order():
    for n, ranks in oracles.valid_rank_sets(4):
        assembled = build_fbb(n, ranks).poset
        for order, reorder in _ORDERS.items():
            p = reorder(assembled)
            assert (dismantling_order(p)
                    == oracles.dismantling_order_by_recount(p.names, p.covers)), \
                f"{order} n={n} ranks={ranks}"


# -- the cover-count reading against the scan-first route ------------------------------

def _read_outcome(read, p):
    try:
        return read(p)
    except ExtractionUnsupportedError as exc:
        return str(exc)


def _scan_and_reading(p):
    reading = fbb._reading(p)
    return p._cache["scan"], reading


def _assert_reads_as_the_scan_first_route(p, where):
    """``_reading`` on ``p``, whose cache must be empty, and the scan it
    leaves cached equal the reference route's scan and reading, or both
    raise the same message."""
    assert not p._cache, where
    assert (_read_outcome(_scan_and_reading, p)
            == _read_outcome(oracles.reading_by_order_scan, p)), where


def test_cover_count_reading_matches_the_scan_first_route_on_blocks():
    for n, ranks in oracles.valid_rank_sets(5):
        assembled = build_fbb(n, ranks).poset
        _assert_reads_as_the_scan_first_route(assembled, f"n={n} ranks={ranks}")
        for order, reorder in _ORDERS.items():
            p = reorder(assembled)
            _assert_reads_as_the_scan_first_route(
                p, f"{order} n={n} ranks={ranks}")


def test_cover_count_reading_matches_the_scan_first_route_on_non_blocks(
        cf4_expected):
    cases = {
        "vee": oracles.poset_of([("0", "a"), ("0", "b")]),
        "two-minimal": oracles.poset_of([("a", "t"), ("b", "t")]),
        "antichain": Poset("ab", []),
        "singleton": Poset("a", []),
        "chain": Poset.chain("abcd"),
        "diamond": diamond_poset(),
        "grid-3x3": grid_poset(3, 3),
        "pendant-top": _with_pendants([], ["t"]),
        "pendant-first": _with_pendants(["s"], [], first=True),
        "repeated-pair": from_name_pairs(
            list(build_cf(3).poset.names) + ["d"],
            list(build_cf(3).poset.covers) + [("u1", "d"), ("d", "u3")]),
    }
    for label, p in cases.items():
        _assert_reads_as_the_scan_first_route(p, label)
    for block in _foreign_blocks(cf4_expected):
        p = block.poset
        _assert_reads_as_the_scan_first_route(
            Poset(p.names, p._index_covers()), repr(block))


@st.composite
def _random_posets(draw):
    """A poset on 1..8 elements: the covers of a random strict order, in a
    random element order."""
    names = [f"e{i}" for i in range(draw(st.integers(1, 8)))]
    edges = draw(st.sets(st.tuples(st.sampled_from(names),
                                   st.sampled_from(names))))
    edges = {(a, b) for a, b in edges if a < b}
    covers = oracles.covers_of_order(names, oracles.order_pairs(names, edges))
    return from_name_pairs(draw(st.permutations(names)), covers)


@st.composite
def _near_blocks(draw):
    """A block on 2..5 reducibles with up to three elements removed, then up
    to two added, each either strictly between two comparable elements
    (their cover dropped) or hanging above one, in a random element order:
    blocks, repeated pairs, non-lattices and chains."""
    n, ranks = draw(_rank_sets(max_n=5))
    p = build_fbb(n, ranks).poset
    drop = draw(st.sets(st.sampled_from(p.names), max_size=min(3, len(p) - 1)))
    p = p.restrict(x for x in p.names if x not in drop)
    names, covers = list(p.names), set(p.covers)
    for k in range(draw(st.integers(0, 2))):
        a = draw(st.sampled_from(p.names))
        b = draw(st.sampled_from(p.names))
        z = f"z{k}"
        covers.add((a, z))
        if p.lt(a, b):
            covers.discard((a, b))
            covers.add((z, b))
        names.append(z)
    return from_name_pairs(draw(st.permutations(names)), covers)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_random_posets(), _near_blocks()))
def test_cover_count_reading_matches_the_scan_first_route_random(p):
    _assert_reads_as_the_scan_first_route(p, repr(sorted(p.covers)))


def _repeated_pair():
    """CF(3) with a second element d between u1 and u3: a lattice that
    realizes the pair (1, 3) twice."""
    cf3 = build_cf(3).poset
    return from_name_pairs(list(cf3.names) + ["d"],
                           list(cf3.covers) + [("u1", "d"), ("d", "u3")])


@pytest.mark.parametrize("scan_first", [False, True],
                         ids=["read-first", "scan-first"])
@pytest.mark.parametrize("make,message,reads_after_scan", [
    (_repeated_pair, "the adjunct pair ('u1', 'u3') is realized 2 times", 1),
    (lambda: oracles.poset_of([("0", "a"), ("0", "b")]),
     "the poset is not a lattice", 0),
], ids=["repeated-pair", "vee"])
def test_failed_read_reads_once(monkeypatch, make, message, reads_after_scan,
                                scan_first):
    # is_lattice, not a second read, picks the message of a failed read;
    # a cached scan that says "not a lattice" decides with no read at all
    reads = []
    real_read = fbb._read_block

    def counted_read(p, red, doubly):
        reads.append(p)
        return real_read(p, red, doubly)

    monkeypatch.setattr(fbb, "_read_block", counted_read)
    p = make()
    if scan_first:
        is_lattice(p)
    with pytest.raises(ExtractionUnsupportedError) as err:
        fbb._reading(p)
    assert str(err.value) == message
    assert len(reads) == (reads_after_scan if scan_first else 1)


# -- the two lemmas of the fbb docstring: basic blocks and nullity -----------------

def _check_lemmas(p, where):
    """None if ``p`` does not read as a block; else whether it is basic,
    after asserting Lemma 1 (basic iff each chain element x_i has the
    label rank(n, i, i+1), with the reading's n) and Lemma 2 (the nullity
    is the number of read labels) on it."""
    try:
        n, mask, chain, _ = fbb._reading(p)
    except ExtractionUnsupportedError:
        return None
    reducible = {p.index_of(name) for name in classify(p).reducible}
    i, lone_x = 0, False
    for e in chain:
        if e in reducible:
            i += 1
        elif not mask >> (rank(n, i, i + 1) - 1) & 1:
            lone_x = True
    basic = is_basic_block_universal(p)
    assert basic == (not lone_x), where
    assert nullity(p) == mask.bit_count(), where
    return basic


def test_reading_decides_basic_blocks_and_nullity():
    # every block with n <= 5, and each of them less one c or x: those read
    # with a lone x_i, as blocks on fewer reducibles, or not at all
    outcomes = []
    for n, ranks in oracles.valid_rank_sets(5):
        block = build_fbb(n, ranks).poset
        outcomes.append(_check_lemmas(block, f"n={n} ranks={ranks}"))
        for x in block.names:
            if x[0] in "cx":
                outcomes.append(_check_lemmas(
                    block.restrict(set(block.names) - {x}),
                    f"n={n} ranks={ranks} without {x}"))
    assert (len(outcomes), outcomes.count(True),
            outcomes.count(False)) == (7034, 3067, 2928)


@settings(max_examples=200, deadline=None)
@given(_near_blocks())
def test_reading_decides_basic_blocks_and_nullity_random(p):
    _check_lemmas(p, repr(sorted(p.covers)))


# -- assembly and extraction against the name-based reference -------------------------

def _assert_assembled_as(p, names, covers, where):
    """``p`` has the reference's elements and covers, and the order ``p.lt``
    decides is the cover list's closure as networkx computes it."""
    assert p.names == tuple(names), where
    assert set(p.covers) == set(covers), where
    assert strict_order(p) == oracles.order_pairs(names, covers), where


def _assert_same_block(n, ranks):
    where = f"n={n} Q={sorted(ranks)}"
    block = build_fbb(n, ranks)
    _assert_assembled_as(block.poset, *oracles.assemble_by_names(n, ranks),
                         where)
    assert (extract_adjunct_representation(block)
            == oracles.extract_by_names(block)), where


def test_assembly_matches_name_based_reference():
    for n, ranks in oracles.valid_rank_sets(5):
        _assert_same_block(n, frozenset(ranks))
    for n in range(2, 8):
        cf = build_cf(n)
        _assert_assembled_as(cf.poset, *oracles.assemble_by_names(n, cf.ranks),
                             f"CF({n})")


@st.composite
def _rank_sets(draw, max_n=9):
    """A rank set on 2..max_n reducibles: random labels, then one pair
    added for every vertex they leave uncovered."""
    n = draw(st.integers(2, max_n))
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
    spliced = from_name_pairs(list(cf4.names) + ["t"],
                              list(cf4.covers) + [("u4", "t")])
    f = build_fbb(4, {1, 3, 4, 5}).poset
    yield oracles.fbb_of(2, {1}, Poset.chain("abc"))
    yield oracles.fbb_of(2, {1}, oracles.poset_of([("u1", "c1"), ("u1", "x1")]))
    yield oracles.fbb_of(4, range(1, 7), spliced)
    yield oracles.fbb_of(4, {1, 3, 4}, f)                       # c5 not in Q
    yield oracles.fbb_of(4, {1, 3, 4, 5, 6}, f)                 # c6 missing
    yield oracles.fbb_of(4, {1, 3, 4, 5}, remove_element(f, "x1"))
    yield oracles.fbb_of(4, {1, 3, 4, 5}, oracles.poset_of(   # c3 glued low
        [c for c in f.covers if c != ("c3", "u4")] + [("c3", "u3")]))
    yield oracles.fbb_of(4, {1, 3, 4, 5},
              oracles.poset_of(f.covers, ["u1", "x1", "x9"]))  # stray name
    yield oracles.fbb_of(4, {1, 3, 4, 5}, f)                    # the block
    yield oracles.fbb_of(3, {2, 3}, oracles.poset_of(          # x1, no c1
        [("u1", "x1"), ("x1", "u2"), ("u2", "x2"), ("x2", "u3"),
         ("u1", "c2"), ("c2", "u3"), ("u2", "c3"), ("c3", "u3")]))


def test_extraction_matches_name_based_reference_on_foreign_posets(cf4_expected):
    for block in _foreign_blocks(cf4_expected):
        assert (_extraction_outcome(extract_adjunct_representation, block)
                == _extraction_outcome(oracles.extract_by_names, block)), block


# -- removal route -------------------------------------------------------------

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
            oracles.fbb_of(n, set(range(1, top + 1)) - {k}, trimmed))


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
