"""Order core: construction validation, derived order vs the networkx
oracle, lattice/nullity/classification predicates, induced removals, and
dismantlability."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbblat import _kernel
from fbblat.errors import MalformedPosetError, NotALatticeError
from fbblat.fbb import build_cf
from fbblat.poset import (Poset, classify, dismantling_order, from_name_pairs,
                          is_dismantlable, is_lattice, is_rc_lattice, nullity,
                          remove_element)

import oracles
from conftest import CF4_COVER_LIST, diamond_poset, grid_poset, strict_order


# -- construction ---------------------------------------------------------------

def test_rejects_cycle():
    with pytest.raises(MalformedPosetError):
        from_name_pairs("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def test_rejects_transitively_implied_cover():
    with pytest.raises(MalformedPosetError):
        from_name_pairs("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def test_rejects_duplicate_names():
    with pytest.raises(MalformedPosetError):
        Poset(["a", "a"], [])


def test_rejects_self_cover_and_unknown_endpoint():
    with pytest.raises(MalformedPosetError):
        from_name_pairs("ab", [("a", "a")])
    with pytest.raises(MalformedPosetError):
        from_name_pairs("ab", [("a", "z")])


def test_rejects_empty():
    with pytest.raises(MalformedPosetError):
        Poset([], [])


@pytest.mark.parametrize("covers,endpoint", [
    ([(0, 1), (1, 2)], "2"),
    ([(-1, 0)], "-1"),
    ([(0, 1.0)], "1.0"),
    ([(True, 1)], "True"),
    ([("a", "b")], "'a'"),
], ids=["out-of-range", "negative", "float", "bool", "name"])
def test_rejects_cover_endpoint_that_is_no_element_index(covers, endpoint):
    with pytest.raises(MalformedPosetError) as err:
        Poset("ab", covers)
    assert str(err.value) == (f"cover endpoint {endpoint} is not an element "
                              "index in 0..1")


@pytest.mark.parametrize("names,pairs,message", [
    ("ab", [("a", "z")], "cover endpoint 'z' is not an element"),
    ("aba", [], "duplicate element name 'a'"),
    ("ab", [("a", "b"), ("b", "b")], "self-cover on 'b'"),
    ("abc", [("a", "b"), ("b", "c"), ("c", "a")],
     "cover relation contains a cycle"),
    ("abc", [("a", "b"), ("b", "c"), ("a", "c")],
     "cover 'a' -> 'c' is implied by transitivity"),
    ("", [], "a poset needs at least one element"),
], ids=["unknown", "duplicate", "self-cover", "cycle", "implied", "empty"])
def test_name_pairs_are_rejected_with_the_name(names, pairs, message):
    with pytest.raises(MalformedPosetError) as err:
        from_name_pairs(names, pairs)
    assert str(err.value) == message


def test_constructor_ignores_cover_order_and_repeats():
    p = oracles.poset_of(CF4_COVER_LIST)
    q = from_name_pairs(p.names, CF4_COVER_LIST[::-1] + CF4_COVER_LIST[:3])
    assert ((q.names, q._index_covers(), q._up, q._down)
            == (p.names, p._index_covers(), p._up, p._down))


# -- transitive order -----------------------------------------------------------

def test_order_of_chain():
    p = Poset.chain("abc")
    assert strict_order(p) == {("a", "b"), ("b", "c"), ("a", "c")}


def test_order_of_singleton():
    assert strict_order(Poset(["a"], [])) == set()


def test_order_of_cf4_matches_oracle(cf4_expected):
    expected = oracles.order_pairs(cf4_expected.names, CF4_COVER_LIST)
    assert strict_order(cf4_expected) == expected
    assert cf4_expected.lt("u1", "c6")
    assert cf4_expected.lt("c1", "u4")
    assert not oracles.comparable(cf4_expected, "c1", "c2")


def test_order_is_antisymmetric_on_random_blocks():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 5)
        p = build_cf(n).poset
        order = strict_order(p)
        assert order == oracles.order_pairs(p.names, p.covers)
        assert not any((b, a) in order for a, b in order)


# -- lattice predicate ----------------------------------------------------------

def test_chains_are_lattices():
    for size in range(1, 6):
        assert is_lattice(Poset.chain([f"e{i}" for i in range(size)]))


def test_diamond_is_lattice():
    assert is_lattice(diamond_poset())


def test_vee_is_not_a_lattice():
    p = oracles.poset_of([("0", "a"), ("0", "b")])
    assert not is_lattice(p)


def test_two_minimal_elements_is_not_a_lattice():
    p = oracles.poset_of([("a", "t"), ("b", "t")])
    assert not is_lattice(p)


def test_lattice_matches_bruteforce_oracle(cf4_expected):
    cases = [
        Poset.chain("abcd"),
        diamond_poset(),
        grid_poset(2, 3),
        grid_poset(3, 3),
        cf4_expected,
        oracles.poset_of([("0", "a"), ("0", "b")]),
        oracles.poset_of([("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"),
                          ("a", "2"), ("b", "2")]),  # two parallel tops
    ]
    for p in cases:
        assert is_lattice(p) == oracles.is_lattice(p.names, p.covers), p.covers


# -- nullity ---------------------------------------------------------------------

def test_nullity_of_chains_is_zero():
    for size in range(1, 8):
        assert nullity(Poset.chain([f"e{i}" for i in range(size)])) == 0


def test_nullity_of_diamond():
    assert nullity(diamond_poset()) == 1


def test_nullity_of_cf4(cf4_expected):
    assert nullity(cf4_expected) == 6


def test_nullity_counts_components():
    p = oracles.poset_of([("a", "b")], elements=["a", "b", "z"])
    assert _kernel.induced_nullity_parts(len(p), p._lower, p._upper)[1] == 2
    assert nullity(p) == 1 - 3 + 2


def test_cover_graph_edge_count(cf4_expected):
    p = cf4_expected
    edges, comps = _kernel.induced_nullity_parts(len(p), p._lower, p._upper)
    assert edges == len(p.covers) == 18
    assert comps == 1


# -- classification ---------------------------------------------------------------

def test_classify_chain():
    report = classify(Poset.chain("abc"))
    assert report.reducible == frozenset()
    assert report.doubly_irreducible == {"a", "b", "c"}


def test_classify_diamond():
    report = classify(diamond_poset())
    assert report.reducible == {"0", "1"}
    assert report.doubly_irreducible == {"a", "b"}


def test_classify_cf4(cf4_expected):
    report = classify(cf4_expected)
    assert report.reducible == {"u1", "u2", "u3", "u4"}
    assert report.doubly_irreducible == {
        "x1", "x2", "x3", "c1", "c2", "c3", "c4", "c5", "c6"}
    assert report.doubly_irreducible == (
        report.join_irreducible & report.meet_irreducible)


def test_classify_definitional_equals_cover_counts_on_lattices():
    # the cross-assert inside classify() raises on mismatch; this drives it
    # over a spread of lattices and checks the cover-count route directly too
    cases = [Poset.chain("abcde"), diamond_poset(), grid_poset(2, 3),
             grid_poset(3, 3), grid_poset(2, 4), build_cf(4).poset,
             build_cf(5).poset]
    for p in cases:
        report = classify(p)
        lower = {x: len(oracles.lower_covers(p, x)) for x in p.names}
        upper = {x: len(oracles.upper_covers(p, x)) for x in p.names}
        join_red = {x for x in p.names if lower[x] >= 2}
        meet_red = {x for x in p.names if upper[x] >= 2}
        assert report.reducible == join_red | meet_red
        assert report.join_irreducible == set(p.names) - join_red
        assert report.meet_irreducible == set(p.names) - meet_red


def test_cross_check_failure_raises_before_any_predicate_answers(monkeypatch):
    real = _kernel.reducibility

    def drops_join_reducibles(*args):
        lattice, _, mr = real(*args)
        return lattice, 0, mr

    monkeypatch.setattr(_kernel, "reducibility", drops_join_reducibles)
    for check in (classify, is_lattice, is_rc_lattice):
        with pytest.raises(RuntimeError, match="disagree"):
            check(diamond_poset())


def test_one_order_scan_per_poset(monkeypatch):
    calls = []
    real = _kernel.reducibility

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(_kernel, "reducibility", counted)
    p = build_cf(4).poset
    assert is_lattice(p) and is_rc_lattice(p) and is_dismantlable(p)
    assert len(classify(p).reducible) == 4
    assert classify(p) == classify(p)
    assert len(calls) == 1


# -- removal -----------------------------------------------------------------------

def test_remove_middle_of_chain_creates_induced_cover():
    p = Poset.chain("abc")
    q = remove_element(p, "b")
    assert q.covers == (("a", "c"),)


def test_remove_unknown_element():
    with pytest.raises(KeyError):
        remove_element(Poset.chain("ab"), "z")


def test_restrict_rejects_unknown_name(cf4_expected):
    with pytest.raises(KeyError):
        cf4_expected.restrict(["u1", "z"])


def test_remove_c6_from_cf4(cf4_expected):
    q = remove_element(cf4_expected, "c6")
    assert len(q) == 12
    assert nullity(q) == 5
    keep = [x for x in cf4_expected.names if x != "c6"]
    assert set(q.covers) == oracles.induced_covers(
        cf4_expected.names, CF4_COVER_LIST, keep)


def test_remove_x3_from_cf4(cf4_expected):
    # c6 still sits strictly between u3 and u4, so no new cover appears and
    # the nullity drops by one, as for every doubly irreducible element here
    q = remove_element(cf4_expected, "x3")
    assert len(q) == 12
    assert nullity(q) == 5
    assert ("u3", "u4") not in set(q.covers)
    keep = [x for x in cf4_expected.names if x != "x3"]
    assert set(q.covers) == oracles.induced_covers(
        cf4_expected.names, CF4_COVER_LIST, keep)


def test_remove_c6_then_x3_creates_induced_cover(cf4_expected):
    # once both elements between u3 and u4 are gone the chain closes up,
    # keeping the nullity at 5
    q = remove_element(remove_element(cf4_expected, "c6"), "x3")
    assert ("u3", "u4") in set(q.covers)
    assert nullity(q) == 5


def test_classification_is_recomputed_after_removal():
    p = build_cf(3).poset
    before = classify(p)
    assert "u2" in before.reducible
    # strip everything glued to u2 except the chain: u2 becomes irreducible
    q = p
    for z in ("c1", "c3", "x1", "x2"):
        q = remove_element(q, z)
    after = classify(q)
    assert "u2" not in after.reducible
    assert "u2" in after.doubly_irreducible


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_removing_doubly_irreducibles_keeps_lattice(data):
    # any subset of the doubly irreducible elements can go and a sublattice
    # remains; exercised on the complete blocks
    n = data.draw(st.integers(2, 5))
    p = build_cf(n).poset
    irr = sorted(classify(p).doubly_irreducible)
    subset = data.draw(st.sets(st.sampled_from(irr)))
    q = p.restrict(name for name in p.names if name not in subset)
    assert is_lattice(q)


# -- dismantlability ----------------------------------------------------------------

def test_chain_is_dismantlable():
    assert is_dismantlable(Poset.chain("abcd"))


def test_diamond_is_dismantlable():
    p = diamond_poset()
    order = dismantling_order(p)
    # after "a" goes, "0" is doubly irreducible and has the lowest id
    assert order == ("a", "0", "b")
    assert len(order) == len(p) - 1


def test_cf_blocks_are_dismantlable():
    for n in range(2, 7):
        assert is_dismantlable(build_cf(n).poset)


def test_dismantling_order_is_deterministic_and_valid(cf4_expected):
    order = dismantling_order(cf4_expected)
    assert order == dismantling_order(cf4_expected)
    p = cf4_expected
    for name in order:
        assert name in classify(p).doubly_irreducible
        p = remove_element(p, name)
    assert len(p) == 1


def test_boolean_cube_is_not_dismantlable():
    cube = oracles.poset_of([
        ("000", "100"), ("000", "010"), ("000", "001"),
        ("100", "110"), ("100", "101"),
        ("010", "110"), ("010", "011"),
        ("001", "101"), ("001", "011"),
        ("110", "111"), ("101", "111"), ("011", "111"),
    ])
    assert is_lattice(cube)
    assert dismantling_order(cube) is None
    assert not is_dismantlable(cube)


def test_dismantlable_requires_lattice():
    with pytest.raises(NotALatticeError):
        is_dismantlable(oracles.poset_of([("0", "a"), ("0", "b")]))


# -- RC lattices --------------------------------------------------------------------

def test_cf4_is_rc(cf4_expected):
    assert is_rc_lattice(cf4_expected)


def test_diamond_is_rc():
    assert is_rc_lattice(diamond_poset())


def test_grid_2x3_is_rc():
    # reducibles form the chain g00 < g01 < g11 < g12
    assert is_rc_lattice(grid_poset(2, 3))


def test_grid_3x3_is_not_rc():
    # g01 and g10 are incomparable meet-reducible elements
    p = grid_poset(3, 3)
    report = classify(p)
    assert "g01" in report.reducible and "g10" in report.reducible
    assert not oracles.comparable(p, "g01", "g10")
    assert not is_rc_lattice(p)


def test_rc_requires_lattice():
    with pytest.raises(NotALatticeError):
        is_rc_lattice(oracles.poset_of([("0", "a"), ("0", "b")]))


# -- identity -------------------------------------------------------------------------

def test_equality_is_name_based(cf4_expected):
    rebuilt = oracles.poset_of(list(reversed(CF4_COVER_LIST)))
    assert rebuilt == cf4_expected
    assert hash(rebuilt) == hash(cf4_expected)
    assert remove_element(cf4_expected, "c6") != cf4_expected


def test_iteration_yields_the_names_in_element_order(cf4_expected):
    assert tuple(cf4_expected) == cf4_expected.names
