import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests import `oracles`

from oracles import poset_of

GOLDEN_DIR = Path(__file__).parent / "golden"

# Every CLI output pinned byte for byte: (argv, file under GOLDEN_DIR).  The
# text cases run the default ``--format``.
_R1345 = ("--n", "4", "--ranks", "1,3,4,5")
GOLDEN_CASES = [
    (("fbb", *_R1345, "--format", "dot"), "fbb_n4_r1345.dot"),
    (("fbb", *_R1345, "--format", "json"), "fbb_n4_r1345.json"),
    (("graph-of", *_R1345, "--format", "dot"), "graph_n4_r1345.dot"),
    (("graph-of", *_R1345, "--format", "json"), "graph_n4_r1345.json"),
    (("fbb", *_R1345), "fbb_n4_r1345.txt"),
    (("graph-of", *_R1345), "graph_n4_r1345.txt"),
]

# CF(4) written out by hand: the maximal chain u1 x1 u2 x2 u3 x3 u4, plus one
# doubly irreducible c_k strictly between u_i and u_j for every pair i < j,
# with k the pair's dictionary-order position.
CF4_COVER_LIST = [
    ("u1", "x1"), ("x1", "u2"), ("u2", "x2"), ("x2", "u3"),
    ("u3", "x3"), ("x3", "u4"),
    ("u1", "c1"), ("c1", "u2"),
    ("u1", "c2"), ("c2", "u3"),
    ("u1", "c3"), ("c3", "u4"),
    ("u2", "c4"), ("c4", "u3"),
    ("u2", "c5"), ("c5", "u4"),
    ("u3", "c6"), ("c6", "u4"),
]

# The block with rank set {1, 3, 4, 5} on four reducibles: x3 is absent
# because the pair (3, 4) (label 6) is not realized, so u3 covers u4.
F4_1345_COVER_LIST = [
    ("u1", "x1"), ("x1", "u2"), ("u2", "x2"), ("x2", "u3"), ("u3", "u4"),
    ("u1", "c1"), ("c1", "u2"),
    ("u1", "c3"), ("c3", "u4"),
    ("u2", "c4"), ("c4", "u3"),
    ("u2", "c5"), ("c5", "u4"),
]


@pytest.fixture
def cf4_expected():
    return poset_of(CF4_COVER_LIST)


@pytest.fixture
def f4_1345_expected():
    return poset_of(F4_1345_COVER_LIST)


def strict_order(p):
    """The strict order ``p.lt`` decides, as name pairs."""
    return {(a, b) for a in p.names for b in p.names if p.lt(a, b)}


def grid_poset(rows, cols):
    """Product of two chains, covers along both axes."""
    covers = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                covers.append((f"g{r}{c}", f"g{r + 1}{c}"))
            if c + 1 < cols:
                covers.append((f"g{r}{c}", f"g{r}{c + 1}"))
    return poset_of(covers)


def diamond_poset():
    return poset_of([("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
