"""The interval/arc dictionary between a block's reducible chain and the
oriented complete graph, and the induced bijection F_n(l) <-> D(n, l).

``psi`` sends the reducible u_i to the vertex v_i and the interval [u_i, u_j]
to the arc (v_i, v_j), whose label is the pair's rank.  Restricting psi to
the intervals a block actually realizes gives ``phi``; going the other way,
an arc set with no isolated vertex is exactly a valid rank set, which is
``phi_inverse``.  Since arc labels are ranks, both are identities on the
rank set: ``phi`` reads a block's ranks as an arc mask and ``phi_inverse``
reads a digraph's mask as ranks.  ``verify_equivalence`` runs the whole
loop for one (n, l) cell and cross-counts it against both recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import counting, graphs
from .errors import UncoveredVertexError
from .fbb import build_fbb, is_fundamental_basic_block
from .graphs import DirectedLabeledGraph, orient
from .labeling import pair_count, rank, unrank
from .poset import classify, nullity


@dataclass(frozen=True)
class LabeledArc:
    tail: int
    head: int
    label: int


@dataclass(frozen=True)
class AssociatedClass:
    """Reducibles u_1..u_n plus the realized intervals [u_i, u_j], the latter
    identified by their labels."""

    n: int
    interval_ranks: frozenset

    @classmethod
    def full(cls, n):
        """The class of CF(n): every interval present."""
        return cls(n, frozenset(range(1, pair_count(n) + 1)))

    @classmethod
    def of_fbb(cls, f):
        return cls(f.n, frozenset(f.ranks))

    @property
    def reducibles(self):
        return tuple(f"u{i}" for i in range(1, self.n + 1))

    @property
    def intervals(self):
        """Realized intervals as (i, j) index pairs, ascending by label."""
        return tuple(unrank(self.n, k) for k in sorted(self.interval_ranks))


@dataclass(frozen=True)
class PsiMap:
    """The bijection u_i <-> v_i, [u_i, u_j] <-> labeled arc (v_i, v_j)."""

    n: int

    def vertex_of_reducible(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"u{i} is not one of the {self.n} reducibles")
        return i

    def arc_of_interval(self, i, j):
        return LabeledArc(i, j, rank(self.n, i, j))

    def interval_of_arc(self, i, j):
        rank(self.n, i, j)  # validates the arc
        return i, j

    def interval_of_label(self, k):
        return unrank(self.n, k)

    def graph_of(self, assoc):
        """Image of an associated class: the digraph with one arc per
        realized interval, labeled by the interval's rank."""
        return DirectedLabeledGraph.from_ranks(assoc.n, assoc.interval_ranks)


def psi(n):
    pair_count(n)  # validates n
    return PsiMap(n)


def phi(f):
    """Digraph of a fundamental basic block, its ranks read as arc labels;
    never has isolated vertices."""
    return DirectedLabeledGraph.from_ranks(f.n, f.ranks)


def phi_inverse(g):
    """Fundamental basic block of a digraph without isolated vertices, its
    arc labels read as the rank set."""
    isolated = graphs.isolated_vertices(g)
    if isolated:
        raise UncoveredVertexError(
            "digraph has isolated vertices: "
            + ", ".join(f"v{v}" for v in isolated), isolated)
    return build_fbb(g.n, g.ranks)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one (n, l) verification cell; ``failures`` holds human
    readable descriptions of every violated assertion (never silent)."""

    n: int
    l: int
    enumerated: int
    recurrence_d: int
    recurrence_f: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        state = "ok" if self.ok else "MISMATCH"
        text = (f"n={self.n} l={self.l}: enumerated={self.enumerated} "
                f"d={self.recurrence_d} f={self.recurrence_f} [{state}]")
        if self.failures:
            text += "\n  " + "\n  ".join(self.failures)
        return text


_FAILURE_DETAIL_CAP = 5


def verify_equivalence(n, l, cap=graphs.DEFAULT_ENUM_CAP):
    """Enumerate D(n, l), pull every member through phi_inverse, check the
    block predicates and the phi round trip, and compare the count against
    both recurrences."""
    members = graphs.enumerate_d(n, l, cap=cap)
    failures = []

    def record(text):
        if len(failures) < _FAILURE_DETAIL_CAP:
            failures.append(text)
        elif len(failures) == _FAILURE_DETAIL_CAP:
            failures.append("... further failures suppressed")

    for g in members:
        dg = orient(g)
        f = phi_inverse(dg)
        back = phi(f)
        if back != dg:
            record(f"phi round trip broke on arcs {dg.arcs}: got {back.arcs}")
            continue
        if not is_fundamental_basic_block(f):
            record(f"phi_inverse({dg.arcs}) is not a fundamental basic block")
        if nullity(f.poset) != l:
            record(f"phi_inverse({dg.arcs}) has nullity {nullity(f.poset)}, wanted {l}")
        red = classify(f.poset).reducible
        if len(red) != n:
            record(f"phi_inverse({dg.arcs}) has {len(red)} reducibles, wanted {n}")
    count_d = counting.count_d(n, l)
    count_f = counting.count_f(n, l)
    if len(members) != count_d:
        failures.append(
            f"enumeration found {len(members)} graphs but the edge-count "
            f"recurrence gives {count_d}")
    if count_f != count_d:
        failures.append(
            f"block recurrence gives {count_f} but the edge-count "
            f"recurrence gives {count_d}")
    return EquivalenceReport(n, l, len(members), count_d, count_f, tuple(failures))
