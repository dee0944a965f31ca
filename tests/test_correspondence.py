"""The block/digraph dictionary: phi round trips over full
enumerations, and the cross-counted verification cells."""

from math import comb

import pytest

from fbblat.correspondence import phi, phi_inverse, verify_equivalence
from fbblat.errors import UncoveredVertexError
from fbblat.fbb import build_cf, build_fbb
from fbblat.graphs import LabeledGraph, enumerate_d
from fbblat.labeling import rank
from fbblat.poset import classify, nullity

import oracles


def test_phi_known_images():
    assert phi(build_fbb(4, {1, 3, 4, 5})).arcs == ((1, 2), (1, 4), (2, 3), (2, 4))
    k4 = phi(build_cf(4))
    assert k4.arcs == tuple((i, j) for i in range(1, 4) for j in range(i + 1, 5))
    assert phi(build_fbb(2, {1})).arcs == ((1, 2),)


def test_phi_reads_the_poset_not_the_stored_ranks():
    # the stored ranks {1, 2, 3} disagree with the poset's, which phi reports
    poset = build_fbb(4, {1, 3, 4, 5}).poset
    assert phi(oracles.fbb_of(4, {1, 2, 3}, poset)).ranks == (1, 3, 4, 5)


def test_phi_inverse_known_images(f4_1345_expected):
    g = LabeledGraph(4, [(1, 2), (1, 4), (2, 3), (2, 4)])
    block = phi_inverse(g)
    assert block.poset == f4_1345_expected
    k4 = LabeledGraph(4, [(i, j) for i in range(1, 4)
                          for j in range(i + 1, 5)])
    assert phi_inverse(k4).poset == build_cf(4).poset


def test_phi_inverse_rejects_isolated_vertex():
    for n, arcs, isolated in ((3, [(1, 2)], (3,)),
                              (4, [(1, 2), (1, 3), (2, 3)], (4,)),
                              (4, [(1, 3), (3, 4)], (2,)),
                              (5, [(2, 4), (3, 5)], (1,)),
                              (1, [], (1,))):
        with pytest.raises(UncoveredVertexError) as err:
            phi_inverse(LabeledGraph(n, arcs))
        assert err.value.vertices == isolated
        assert str(err.value).endswith(
            ", ".join(f"v{v}" for v in isolated))


def test_phi_inverse_builds_what_build_fbb_builds():
    # phi_inverse reads the labels off the edge mask; build_fbb validates
    # and unranks them: the blocks must be the same, element order included
    for n, ranks in oracles.valid_rank_sets(5):
        g = LabeledGraph.from_ranks(n, ranks)
        got = phi_inverse(g)
        want = build_fbb(n, ranks)
        where = f"n={n} ranks={ranks}"
        assert got == want, where
        assert got.mask == want.mask == g.mask, where
        assert got.ranks == frozenset(ranks), where
        assert got.poset.names == want.poset.names, where
        assert got.poset._upper == want.poset._upper, where


def test_phi_round_trips_over_full_enumeration():
    for n in range(2, 6):
        for l in range(comb(n, 2) + 1):
            for g in enumerate_d(n, l):
                block = phi_inverse(g)
                assert phi(block) == g
                assert block.ranks == frozenset(
                    rank(n, i, j) for i, j in g.arcs)


def test_phi_images_have_no_isolated_vertices():
    from fbblat.graphs import has_isolated_vertex

    for n in range(2, 6):
        for l in range(comb(n, 2) + 1):
            for g in enumerate_d(n, l):
                assert not has_isolated_vertex(phi(phi_inverse(g)))


def test_verify_equivalence_known_cells():
    report = verify_equivalence(4, 4)
    assert report.ok
    assert report.enumerated == report.recurrence_d == report.recurrence_f == 15

    report = verify_equivalence(2, 1)
    assert report.ok and report.enumerated == 1

    report = verify_equivalence(4, 1)
    assert report.ok and report.enumerated == 0
    assert "ok" in report.summary()


def test_verify_equivalence_structural_checks(monkeypatch):
    import fbblat.correspondence as corr

    report = verify_equivalence(5, 4)
    assert report.ok

    # poison one recurrence and the cell must report the mismatch loudly
    monkeypatch.setattr(corr.counting, "count_f", lambda n, l: 0)
    poisoned = verify_equivalence(4, 4)
    assert not poisoned.ok
    assert any("recurrence" in f for f in poisoned.failures)
    assert "MISMATCH" in poisoned.summary()


@pytest.mark.parametrize("l,members,details", [(3, 16, 5), (5, 6, 5), (2, 3, 3)])
def test_verify_equivalence_caps_the_failure_details(monkeypatch, l, members,
                                                     details):
    # every member fails once: five details at most, then one line
    import fbblat.correspondence as corr

    monkeypatch.setattr(corr, "nullity", lambda p: -1)
    report = verify_equivalence(4, l)
    assert report.enumerated == members
    assert all(f.endswith(f"has nullity -1, wanted {l}")
               for f in report.failures[:details])
    assert report.failures[details:] == (
        ("... further failures suppressed",) if members > details else ())


def test_full_cells_satisfy_block_predicates():
    from fbblat.fbb import is_fundamental_basic_block

    for n in range(2, 5):
        for l in range(comb(n, 2) + 1):
            for g in enumerate_d(n, l):
                block = phi_inverse(g)
                assert is_fundamental_basic_block(block)
                assert nullity(block.poset) == l
                assert len(classify(block.poset).reducible) == n
