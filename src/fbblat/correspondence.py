"""The interval/edge dictionary between a block's reducible chain and the
complete graph, and the induced bijection F_n(l) <-> D(n, l).

The dictionary psi sends the reducible u_i to the vertex v_i and the interval
[u_i, u_j] to the edge (v_i, v_j), whose label is the pair's rank; ``phi`` is
its restriction to the intervals a block realizes, read from the block's
order (``fbb._reading``), so the stored edge mask plays no part in it.  Going
the other way, an edge mask with no isolated vertex is exactly a valid rank
set, which ``phi_inverse`` assembles and keeps as the block's own mask.
``verify_equivalence`` runs the whole loop for one (n, l) cell and
cross-counts it against both recurrences.
"""

from collections import namedtuple

from . import counting, fbb, graphs
from .errors import UncoveredVertexError
from .fbb import Fbb, _reading, is_fundamental_basic_block
from .graphs import LabeledGraph
from .poset import nullity


def phi(f):
    """Labeled graph of a fundamental basic block: an edge (i, j) for each
    adjunct pair (u_i, u_j) its poset realizes; never has isolated vertices.
    A poset that does not read as a block raises ExtractionUnsupportedError."""
    n, mask, _, _ = _reading(f.poset)
    return LabeledGraph.from_mask(n, mask)


def phi_inverse(g):
    """Fundamental basic block of a labeled graph without isolated vertices,
    whose edge mask is the block's rank set: each edge k = (i, j) of
    ``g.ranks`` and ``g.edges`` glues c_k between u_i and u_j."""
    isolated = graphs.isolated_vertices(g)
    if isolated:
        raise UncoveredVertexError(
            "digraph has isolated vertices: "
            + ", ".join(f"v{v}" for v in isolated), isolated)
    return Fbb(g.n, g.mask, fbb._assemble(g.n, g.ranks, g.edges))


class EquivalenceReport(namedtuple(
        "EquivalenceReport",
        "n l enumerated recurrence_d recurrence_f failures")):
    """Outcome of one (n, l) verification cell; ``failures`` holds human
    readable descriptions of every violated assertion (never silent)."""

    __slots__ = ()

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
    both recurrences.  A ValueError from phi_inverse or phi is recorded
    against the member's arcs."""
    members = graphs.enumerate_d(n, l, cap=cap)
    failures = []

    def record(text):
        if len(failures) < _FAILURE_DETAIL_CAP:
            failures.append(text)
        elif len(failures) == _FAILURE_DETAIL_CAP:
            failures.append("... further failures suppressed")

    for g in members:
        try:
            f = phi_inverse(g)
        except ValueError as exc:
            record(f"phi_inverse({g.arcs}) has no block: {exc}")
            continue
        try:
            back = phi(f)
        except ValueError as exc:
            record(f"phi_inverse({g.arcs}) does not read as a block: {exc}")
            continue
        if back != g:
            record(f"phi round trip broke on arcs {g.arcs}: got {back.arcs}")
            continue
        if not is_fundamental_basic_block(f):
            record(f"phi_inverse({g.arcs}) is not a fundamental basic block")
        if nullity(f.poset) != l:
            record(f"phi_inverse({g.arcs}) has nullity {nullity(f.poset)}, wanted {l}")
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
