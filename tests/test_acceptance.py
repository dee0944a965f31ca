"""Acceptance suite: one test per criterion, all assertions exact.

Each test prints a `ACCEPTANCE <k> ...: PASS (<elapsed>)` line; run

    pytest tests/test_acceptance.py -v -s

for the line-per-criterion view.  Criteria with a wall-clock budget assert
it on every run.
"""

import json
import random
import time
from contextlib import contextmanager
from math import comb

import pytest

from fbblat import cli
from fbblat.correspondence import phi, phi_inverse
from fbblat.counting import count_d, count_d_oracle, count_f
from fbblat.errors import UncoveredVertexError
from fbblat.fbb import (adjunct, build_cf, build_fbb,
                        is_basic_block_universal, is_fundamental_basic_block)
from fbblat.graphs import check_bounds, enumerate_d
from fbblat.labeling import rank, unrank
from fbblat.poset import (Poset, classify, is_dismantlable, is_lattice,
                          is_rc_lattice, nullity, remove_element)

import oracles
from conftest import GOLDEN_CASES, GOLDEN_DIR


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    extra = f", budget {budget:g}s" if budget else ""
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s{extra})")
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")


def test_c01_rank_bijection():
    with criterion(1, "rank bijection n=2..50", budget=1):
        for n in range(2, 51):
            top = comb(n, 2)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert unrank(n, rank(n, i, j)) == (i, j)
            for k in range(1, top + 1):
                i, j = unrank(n, k)
                assert rank(n, i, j) == k


def test_c02_triple_count_agreement():
    with criterion(2, "triple-count agreement n<=7", budget=10):
        for n in range(2, 8):
            for q in range(comb(n, 2) + 1):
                enumerated = len(enumerate_d(n, q))
                assert enumerated == count_d(n, q) == count_d_oracle(n, q), (n, q)


def test_c03_recurrence_equivalence():
    with criterion(3, "f(n,l) = d(n,l) for n<=14", budget=5):
        for n in range(2, 15):
            for l in range(comb(n, 2) + 2):
                assert count_f(n, l) == count_d(n, l), (n, l)


def test_c04_closed_form():
    with criterion(4, "closed form C(N,l) for l >= N-n+2, n<=14"):
        for n in range(2, 15):
            top = comb(n, 2)
            for l in range(max(0, top - n + 2), top + 1):
                assert count_f(n, l) == comb(top, l), (n, l)


def test_c05_cf_structure():
    with criterion(5, "CF(n) structure n<=7", budget=5):
        for n in range(2, 8):
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


def test_c06_removal_route():
    with criterion(6, "single-removal route matches direct build, n<=5"):
        # the removal statement needs n > 2: at n = 2 the complement rank
        # set is empty and leaves no block on two reducibles
        for n in range(3, 6):
            top = comb(n, 2)
            cf = build_cf(n)
            for k in range(1, top + 1):
                i, j = unrank(n, k)
                trimmed = remove_element(cf.poset, f"c{k}")
                if j == i + 1:
                    trimmed = remove_element(trimmed, f"x{i}")
                assert nullity(trimmed) == top - 1
                assert trimmed == build_fbb(n, set(range(1, top + 1)) - {k}).poset
        lone = remove_element(remove_element(build_cf(2).poset, "c1"), "x1")
        assert lone == Poset.chain(["u1", "u2"])
        with pytest.raises(UncoveredVertexError):
            build_fbb(2, set())


def test_c07_bijection_round_trip():
    with criterion(7, "phi/phi_inverse over full enumeration n<=6", budget=30):
        for n in range(2, 7):
            lo, hi = (n + 1) // 2, comb(n, 2)
            for l in range(lo, hi + 1):
                for g in enumerate_d(n, l):
                    block = phi_inverse(g)
                    assert phi(block) == g
                    assert phi_inverse(phi(block)) == block
                    assert is_fundamental_basic_block(block)
                    assert nullity(block.poset) == l
                    assert len(classify(block.poset).reducible) == n


def test_c08_adjunct_additivity():
    with criterion(8, "nullity additivity over 1000 random adjuncts"):
        rng = random.Random(54548)
        blocks = [build_cf(n).poset for n in (2, 3, 4)]
        blocks.append(build_fbb(4, {1, 3, 4, 5}).poset)
        for trial in range(1000):
            if rng.random() < 0.5:
                base = rng.choice(blocks)
            else:
                size = rng.randint(3, 9)
                base = Poset.chain([f"a{trial}_{i}" for i in range(size)])
            candidates = [(a, b) for a in base.names for b in base.names
                          if base.lt(a, b) and (a, b) not in set(base.covers)]
            a, b = rng.choice(candidates)
            glue = Poset.chain([f"b{trial}_{i}"
                                for i in range(rng.randint(1, 4))])
            glued = adjunct(base, glue, a, b)
            assert nullity(glued) == nullity(base) + nullity(glue) + 1


def test_c09_existence_band():
    with criterion(9, "enumeration empty exactly outside the band, n<=7"):
        for n in range(2, 8):
            for q in range(comb(n, 2) + 3):
                empty = len(enumerate_d(n, q)) == 0
                assert empty == (not check_bounds(n, q)), (n, q)


def test_c10_golden_regression(capsys):
    with criterion(10, "byte-stable golden outputs for the n=4 {1,3,4,5} block"):
        for argv, golden in GOLDEN_CASES:
            assert cli.main(list(argv)) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN_DIR / golden).read_text(), golden
        payload = json.loads((GOLDEN_DIR / "fbb_n4_r1345.json").read_text())
        assert len(payload["elements"]) == 10
        names = {e["name"] for e in payload["elements"]}
        assert names == {"u1", "u2", "u3", "u4", "x1", "x2",
                         "c1", "c3", "c4", "c5"}
        dot = (GOLDEN_DIR / "graph_n4_r1345.dot").read_text()
        assert all(f'[label="e{k}"]' in dot for k in (1, 3, 4, 5))


def test_c11_triangle_agreement_to_64():
    with criterion(11, "f = d = inclusion-exclusion on every in-band cell, n<=64",
                   budget=10):
        cells = 0
        for n in range(65):
            oracle = oracles.d_row_by_inclusion_exclusion(n)
            for q in range((n + 1) // 2, comb(n, 2) + 1):
                assert count_f(n, q) == count_d(n, q) == oracle[q], (n, q)
                cells += 1
        assert cells == 42689
