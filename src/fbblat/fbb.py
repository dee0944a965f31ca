"""Fundamental basic blocks: adjunct assembly, CF(n), and block predicates.

A fundamental basic block on comparable reducibles u_1 < ... < u_n is pinned
down by the set Q of labels of its adjunct pairs: each label k in Q adjoins a
doubly irreducible element c_k strictly between u_i and u_j, for (i, j) =
unrank(k), and the chain element x_i between consecutive reducibles is present
exactly when the pair (i, i+1) is itself realized (otherwise u_i would cover
u_{i+1} and the pair could not be adjunct, or x_i's removal would not lower
the nullity).  CF(n) is the complete case Q = J_N.

Because of that, Q doubles as the identity of the block: two blocks are equal
as canonical posets iff their rank sets agree.  Q is exactly the edge set of
the block's labeled graph, so ``Fbb`` carries it as that graph's edge mask
(bit k-1 for label k), the one form Q takes from enumeration through phi,
phi_inverse and the predicates.  Blocks are built from Q as index-pair
covers under the names u<i>/x<i>/c<k>, written for rendering and never
parsed back: ``_reading`` reads (n, Q) off the poset's order alone, and phi,
extraction, the DOT levels in ``render`` and the fundamental-block predicate
(the reading plus the basic-block test) decide from that one cached reading,
whatever the names.  A poset reads as a block only if its elements with
two or more lower or upper covers form a chain and every other element
hangs between two of them, and such a poset is a lattice; so a block is
read, and its lattice scan proved, from its cover counts alone, without
the lattice kernel.

Two more facts follow from a reading (n, Q, chain, terms).  There R is the
chain u_1 < ... < u_n of reducibles, and each other element d has exactly
one lower cover l(d) and one upper cover h(d), both in R (see
``_reading``).  An element strictly between u_i and u_{i+1} is such a d with
l(d) = u_i and h(d) = u_{i+1}: x_i, and c_k if k = rank(n, i, i+1) is in Q.
So the covers are the two of each d and u_i < u_{i+1} for each i without
x_i; a cover u_i < u_j with j > i + 1 would skip u_{i+1}.

Lemma 1.  The poset is a basic block iff rank(n, i, i+1) is in Q for every
chain element x_i, where n is the reading's n.  Proof: u_1 is least and has
two or more upper covers, at most one of them u_2, so the poset has more
than one element and some d.  So it is basic iff removing each d drops the
nullity by exactly one.  Removing d deletes one element and its two covers
and adds the cover l(d) < h(d) iff nothing else lies strictly between them;
l(d) and h(d) stay joined either way, so the nullity drops by one iff
something else lies between them.  If l(d) = u_i and h(d) = u_j with
j > i + 1, u_{i+1} does.  If j = i + 1, d is x_i or c_k, and something else
lies between iff both are there, that is, iff k is in Q.  So every removal
drops the nullity by one iff every x_i has its c_k.

Lemma 2.  The nullity of the poset is |Q|.  Proof: every element lies above
u_1 along covers, so the cover graph is connected.  With m chain elements
x_i, there are n + m + |Q| elements and 2(m + |Q|) + (n - 1 - m) covers,
and 2(m + |Q|) + (n - 1 - m) - (n + m + |Q|) + 1 = |Q|.
"""

from collections import namedtuple
from math import comb

from . import _kernel
from .errors import (
    DisjointnessError,
    ExtractionUnsupportedError,
    InvalidAdjunctPairError,
    NotALatticeError,
    UncoveredVertexError,
)
from .graphs import LabeledGraph, _mask_ranks, isolated_vertices
# ``rank`` is unused here but stays importable as ``fbb.rank``, a binding
# the benchmark's tracer tests rebind and check.
from .labeling import _check_int, rank, unrank  # noqa: F401
from .poset import Poset, _cover_reducibles, is_lattice


class AdjunctTerm(namedtuple("AdjunctTerm", "lower upper chain")):
    """One glued chain with its adjunct pair (lower, upper)."""

    __slots__ = ()


class AdjunctRepresentation(namedtuple("AdjunctRepresentation",
                                       "base_chain terms")):
    """A base maximal chain plus an ordered list of adjunct terms."""

    __slots__ = ()

    def assemble(self):
        """Fold the adjunct operation over the terms; round-trips with
        ``extract_adjunct_representation``."""
        poset = Poset.chain(self.base_chain)
        for term in self.terms:
            poset = adjunct(poset, Poset.chain(term.chain), term.lower, term.upper)
        return poset


class Fbb(namedtuple("Fbb", "n mask poset")):
    """A fundamental basic block, identified by n and the edge mask of its
    rank set Q: bit k-1 is set iff label k is in Q."""

    __slots__ = ()

    @property
    def ranks(self):
        """The rank set Q as a frozenset of labels."""
        return frozenset(_mask_ranks(self.mask))


def adjunct(l1, l2, a, b):
    """Glue lattice ``l2`` strictly between a < b in lattice ``l1``.

    Requires disjoint element names and a < b with a not covered by b; the
    result's nullity is nullity(l1) + nullity(l2) + 1.
    """
    if not is_lattice(l1):
        raise NotALatticeError("the base of an adjunct must be a lattice")
    if not is_lattice(l2):
        raise NotALatticeError("the glued part of an adjunct must be a lattice")
    common = set(l1.names) & set(l2.names)
    if common:
        raise DisjointnessError(
            f"element names shared by both lattices: {sorted(common)}")
    if a == b or not l1.lt(a, b):
        raise InvalidAdjunctPairError(
            f"{a!r} < {b!r} must hold in the base lattice")
    if l1._upper[l1.index_of(a)] >> l1.index_of(b) & 1:
        raise InvalidAdjunctPairError(
            f"({a!r}, {b!r}) is a covering pair; nothing fits strictly between")
    shift = len(l1)
    covers = [*l1._index_covers(),
              *((lo + shift, hi + shift) for lo, hi in l2._index_covers()),
              (l1.index_of(a), shift + l2._down.index(0)),
              (shift + l2._up.index(0), l1.index_of(b))]
    return Poset(l1.names + l2.names, covers)


def _assemble(n, ordered, pairs):
    """The block with one c_k per label k of ``ordered`` (ascending), glued
    between u_i and u_j for the matching (i, j) of ``pairs``.

    Elements come in name order: the base chain u1 [x1] u2 ... un, then the
    c_k by ascending k.  The covers are the base chain's consecutive pairs,
    then u_i < c_k < u_j per label, as index pairs."""
    consecutive = {i for i, j in pairs if j == i + 1}
    names = []
    u = [0] * (n + 1)  # u[i]: index of u_i
    for i in range(1, n + 1):
        u[i] = len(names)
        names.append(f"u{i}")
        if i in consecutive:
            names.append(f"x{i}")
    covers = [(e, e + 1) for e in range(len(names) - 1)]
    for k, (i, j) in zip(ordered, pairs):
        c = len(names)
        names.append(f"c{k}")
        covers.append((u[i], c))
        covers.append((c, u[j]))
    return Poset(names, covers)


def build_cf(n):
    """The complete fundamental basic block CF(n) = phi_inverse(K_n)."""
    _check_int("n", n, 2)
    k = LabeledGraph.from_mask(n, (1 << comb(n, 2)) - 1)
    return Fbb(n, k.mask, _assemble(n, k.ranks, k.edges))


def build_fbb(n, ranks):
    """The fundamental basic block with adjunct pairs labeled by ``ranks``.

    The labels are checked as the edge labels of ``LabeledGraph.from_ranks``.
    Every vertex 1..n must be touched by some pair, i.e. every u_i must end
    up reducible; otherwise the rank set does not describe a member of
    F_n(l) and the error names the isolated reducibles.
    """
    _check_int("n", n, 2)
    g = LabeledGraph.from_ranks(n, ranks)
    missing = isolated_vertices(g)
    if missing:
        raise UncoveredVertexError(
            "no adjunct pair touches " + ", ".join(f"u{v}" for v in missing),
            missing)
    ordered = g.ranks
    pairs = [unrank(n, k) for k in ordered]
    return Fbb(n, g.mask, _assemble(n, ordered, pairs))


def is_basic_block_universal(p):
    """Basic-block predicate, universal reading: one element, or no doubly
    irreducible element, or removal of each doubly irreducible element drops
    the nullity by exactly one.

    Each removal is decided from the element's own covers, not by
    recounting the nullity; the result is cached on the poset."""
    if "basic_block" not in p._cache:
        p._cache["basic_block"] = _kernel.basic_block_universal(
            len(p), p._up, p._down, p._lower, p._upper)
    return p._cache["basic_block"]


def is_fundamental_basic_block(f):
    """RC-lattice + basic block + pairwise distinct adjunct pairs.  The
    poset reads as a block (see ``_reading``) iff it is an RC-lattice with
    distinct adjunct pairs, so the reading and the basic-block predicate
    decide it."""
    try:
        _reading(f.poset)
    except ExtractionUnsupportedError:
        return False
    return is_basic_block_universal(f.poset)


def extract_adjunct_representation(f):
    """Base chain C'_0 plus one singleton term per adjunct pair, labels
    ascending; reassembling yields an identical poset.

    The terms come from the poset's order (see ``_reading``) and carry its
    own element names, whatever they are; the poset must read as the
    block's (n, mask), else ExtractionUnsupportedError.
    """
    p = f.poset
    n, mask, chain, terms = _reading(p)
    if (n, mask) != (f.n, f.mask):
        raise ExtractionUnsupportedError(
            f"the poset reads as n = {n}, ranks {_mask_ranks(mask)}, "
            f"not as the block's n = {f.n}, ranks {sorted(f.ranks)}")
    name = p.name_of
    return AdjunctRepresentation(
        tuple(map(name, chain)),
        tuple(AdjunctTerm(name(lo), name(hi), (name(c),))
              for _, lo, hi, c in terms))


def _reading(p):
    """(n, rank mask, base chain, ((k, u_i, u_j, c_k) per label k ascending))
    of a block as element indices, read from its order alone and cached on
    the poset; ExtractionUnsupportedError if the poset is no block.

    The reducibles must form a chain u_1 < ... < u_n, and every other
    element must have exactly one lower and one upper cover, both
    reducible.  The pair (i, j), j > i + 1, is realized iff one element sits
    between u_i and u_j; between u_i and u_{i+1} one element is the chain
    element x_i, and two are x_i (the lower index) and c_k.  More is a
    repeated adjunct pair.  Labels k count the pairs in dictionary order.

    Without a cached scan, the poset is read from its cover counts
    alone: R is the set of elements with two or more lower or upper covers,
    and the rest are taken as the doubly irreducibles.  A successful read
    proves that the poset is a lattice whose reducibles are R, so the scan
    ``(True, jr, mr, doubly)`` is cached with it and no predicate on the
    block runs the lattice kernel.  Proof: the read checks that R is a chain
    u_1 < ... < u_n and that every other element d has exactly one lower
    cover l(d) and one upper cover h(d), both in R.  So every minimal
    element lies in R, and since R is a chain there is exactly one, u_1,
    which is then the least element.  Below d lie exactly l(d) and what lies
    below it, and above d exactly h(d) and what lies above it.  Let x and y
    be incomparable, and let w in R be the larger of the least elements of R
    above x and above y (the element itself if it is in R, else h of it).
    Then w is an upper bound of both.  An upper bound in R lies at or above
    w; an upper bound d outside R lies above x and y, so l(d) is an upper
    bound in R, and d > l(d) >= w.  So w is the join of x and y, and meets
    are dual: the poset is a lattice.  In a lattice an element is
    join-reducible iff it has two or more lower covers (two lower covers
    join to it, and the elements below one with at most one lower cover c
    all lie at or below c), and dually for meets, so jr and mr are the
    cover-count masks and R is the set of reducibles.  A cached scan has
    the same masks on a lattice, since ``_order_scan`` checks them against
    the cover counts, so one read decides: a failed read raises its own
    error if ``is_lattice`` holds and "the poset is not a lattice" if not,
    as a cached scan of a non-lattice does without a read.
    """
    reading = p._cache.get("reading")
    if reading is not None:
        return reading
    scan = p._cache.get("scan") or (True, *_cover_reducibles(p))
    lattice, jr, mr, doubly = scan
    try:
        if lattice:
            reading = _read_block(p, jr | mr, doubly)
    except ExtractionUnsupportedError:
        if is_lattice(p):
            raise
    if reading is None:
        raise ExtractionUnsupportedError("the poset is not a lattice")
    p._cache["scan"] = scan
    p._cache["reading"] = reading
    return reading


def _read_block(p, red, doubly):
    """The reading of ``_reading``, given the masks of the reducibles
    ``red`` and the doubly irreducibles ``doubly``, not cached."""
    n = red.bit_count()
    us = [0] * n  # us[i - 1]: index of u_i, placed by its reducibles below
    for u in _kernel._bits(red):
        apart = red & ~(p._up[u] | p._down[u] | 1 << u)
        if apart:
            raise ExtractionUnsupportedError(
                f"reducibles {p.name_of(u)!r} and "
                f"{p.name_of(apart.bit_length() - 1)!r} are incomparable")
        us[(p._down[u] & red).bit_count()] = u
    chain, terms, mask, k, seen = [], [], 0, 0, 0
    for i, u in enumerate(us):
        chain.append(u)
        hanging = p._upper[u] & doubly
        for j in range(i + 1, n):
            k += 1
            m = hanging & p._lower[us[j]]
            seen |= m
            if m and j == i + 1:
                chain.append((m & -m).bit_length() - 1)
                m &= m - 1
            if not m:
                continue
            if m & (m - 1):
                raise ExtractionUnsupportedError(
                    f"the adjunct pair ({p.name_of(u)!r}, "
                    f"{p.name_of(us[j])!r}) is realized {m.bit_count()} times")
            mask |= 1 << (k - 1)
            terms.append((k, u, us[j], m.bit_length() - 1))
    if doubly & ~seen:
        raise ExtractionUnsupportedError(
            f"element {p.name_of((doubly & ~seen).bit_length() - 1)!r} does "
            "not sit between two reducibles")
    return n, mask, tuple(chain), tuple(terms)
