"""Fundamental basic blocks: adjunct assembly, CF(n), and block predicates.

A fundamental basic block on comparable reducibles u_1 < ... < u_n is pinned
down by the set Q of labels of its adjunct pairs: each label k in Q adjoins a
doubly irreducible element c_k strictly between u_i and u_j, for (i, j) =
unrank(k), and the chain element x_i between consecutive reducibles is present
exactly when the pair (i, i+1) is itself realized (otherwise u_i would cover
u_{i+1} and the pair could not be adjunct, or x_i's removal would not lower
the nullity).  CF(n) is the complete case Q = J_N.

Because of that, Q doubles as the identity of the block: two blocks are equal
as canonical posets iff their rank sets agree, which is what ``Fbb`` carries.
Blocks are built from Q as index-pair covers, and extraction and the
predicates decide on the poset's element indices and stored covers; the
names u<i>/x<i>/c<k> are written for rendering and the public API, and never
parsed back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb

from . import _kernel
from .errors import (
    DisjointnessError,
    ExtractionUnsupportedError,
    InvalidAdjunctPairError,
    NotALatticeError,
    UncoveredVertexError,
)
# ``rank`` is unused here but stays importable as ``fbb.rank``, a binding
# the benchmark's tracer tests rebind and check.
from .labeling import _unrank_ascending, rank, unrank  # noqa: F401
from .poset import Poset, is_lattice, is_rc_lattice


@dataclass(frozen=True)
class AdjunctTerm:
    """One glued chain with its adjunct pair (lower, upper)."""

    lower: str
    upper: str
    chain: tuple


@dataclass(frozen=True)
class AdjunctRepresentation:
    """A base maximal chain plus an ordered list of adjunct terms."""

    base_chain: tuple
    terms: tuple

    def assemble(self):
        """Fold the adjunct operation over the terms; round-trips with
        ``extract_adjunct_representation``."""
        poset = Poset.chain(self.base_chain)
        for term in self.terms:
            poset = adjunct(poset, Poset.chain(term.chain), term.lower, term.upper)
        return poset


@dataclass(frozen=True)
class Fbb:
    """A fundamental basic block, identified by (n, ranks)."""

    n: int
    ranks: frozenset
    poset: Poset


@dataclass(frozen=True)
class CompleteFbb(Fbb):
    """CF(n): the block realizing every pair of reducibles, ranks = J_N."""


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
    bottom = _extreme(l2, l2._down)
    top = _extreme(l2, l2._up)
    names = l1.names + l2.names
    covers = list(l1.covers) + list(l2.covers) + [(a, bottom), (top, b)]
    return Poset(names, covers)


def _extreme(p, masks):
    for i, mask in enumerate(masks):
        if not mask:
            return p.name_of(i)
    raise NotALatticeError("lattice has no extreme element")  # unreachable


def _assemble(n, ordered, pairs):
    """The block with one c_k per label k of ``ordered`` (ascending), glued
    between u_i and u_j for the matching (i, j) of ``pairs``.

    Elements come in name order: the base chain u1 [x1] u2 ... un, then the
    c_k by ascending k.  The covers are written as index pairs directly, so
    no name is looked up."""
    consecutive = {i for i, j in pairs if j == i + 1}
    names = []
    u = [0] * (n + 1)  # u[i]: index of u_i
    for i in range(1, n + 1):
        u[i] = len(names)
        names.append(f"u{i}")
        if i in consecutive:
            names.append(f"x{i}")
    covers = [(a, a + 1) for a in range(len(names) - 1)]
    for c, (k, (i, j)) in enumerate(zip(ordered, pairs), len(names)):
        names.append(f"c{k}")
        covers.append((u[i], c))
        covers.append((c, u[j]))
    return Poset._from_index_covers(names, covers)


def build_cf(n):
    """The complete fundamental basic block CF(n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    labels = range(1, comb(n, 2) + 1)
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return CompleteFbb(n, frozenset(labels), _assemble(n, labels, pairs))


def _label(k):
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"label {k!r} is not an integer") from None


def build_fbb(n, ranks):
    """The fundamental basic block with adjunct pairs labeled by ``ranks``.

    Every vertex 1..n must be touched by some pair, i.e. every u_i must end
    up reducible; otherwise the rank set does not describe a member of
    F_n(l) and the error names the isolated reducibles.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rankset = frozenset(map(_label, ranks))
    top = comb(n, 2)
    bad = sorted(k for k in rankset if not 1 <= k <= top)
    if bad:
        raise ValueError(f"labels outside J_N = 1..{top}: {bad}")
    ordered = sorted(rankset)
    pairs = [unrank(n, k) for k in ordered]
    covered = {v for pair in pairs for v in pair}
    if len(covered) < n:
        missing = [v for v in range(1, n + 1) if v not in covered]
        raise UncoveredVertexError(
            "no adjunct pair touches " + ", ".join(f"u{v}" for v in missing),
            missing)
    return Fbb(n, rankset, _assemble(n, ordered, pairs))


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
    """RC-lattice + basic block + pairwise distinct adjunct pairs."""
    p = f.poset
    if not is_lattice(p):
        return False
    if not is_rc_lattice(p):
        return False
    if not is_basic_block_universal(p):
        return False
    _, terms = _adjunct_terms(f)
    return len({pair for _, pair in terms}) == len(terms)


def extract_adjunct_representation(f):
    """Base chain C'_0 plus one singleton term per adjunct pair, labels
    ascending; reassembling yields an identical poset.

    Only the canonical block shape is handled: names u<i>/x<i>/c<k>, the u's
    and x's forming the base chain and each c_k doubly irreducible between
    the reducibles named by unrank(k).  Anything else raises.  The shape is
    decided on the poset's index map and stored covers.
    """
    chain, terms = _adjunct_terms(f)
    return AdjunctRepresentation(
        chain, tuple(AdjunctTerm(f"u{i}", f"u{j}", (f"c{k}",))
                     for k, (i, j) in terms))


def _adjunct_terms(f):
    """(base chain names, [(k, (i, j)) per label k ascending]) of a block of
    the canonical shape, else ExtractionUnsupportedError.

    The canonical names must be exactly the poset's, and its stored covers
    exactly the chain links plus u_i -> c_k -> u_j for every k: a poset
    whose chain links and c_k covers are right has no other cover, since
    any other link between chain elements would be implied or close a
    cycle.  The link-by-link checks run only to name what broke."""
    p = f.poset
    n = f.n
    index = p._index
    chain = []
    u = [0] * (n + 1)  # u[i]: position of u_i in the chain
    for i in range(1, n + 1):
        u[i] = len(chain)
        chain.append(f"u{i}")
        if i < n and f"x{i}" in index:
            chain.append(f"x{i}")
    ordered = sorted(f.ranks)
    names = chain + [f"c{k}" for k in ordered]
    try:
        pos = [index[name] for name in names]
    except KeyError as exc:
        raise ExtractionUnsupportedError(
            f"element {exc.args[0]!r} of the canonical block of rank set "
            f"{ordered} is missing") from None
    if len(pos) != len(p):
        known = set(names)
        extra = next(name for name in p.names if name not in known)
        raise ExtractionUnsupportedError(
            f"element {extra!r} is outside the canonical block of rank set "
            f"{ordered}")
    terms = list(zip(ordered, _unrank_ascending(n, ordered)))
    links = list(zip(pos, pos[1:len(chain)]))
    glued = [(pos[u[i]], c, pos[u[j]])
             for c, (_, (i, j)) in zip(pos[len(chain):], terms)]
    expected = (links + [(lo, c) for lo, c, _ in glued]
                + [(c, hi) for _, c, hi in glued])
    if sorted(expected) != list(p._covers):
        for lo, hi in links:
            if not p._upper[lo] >> hi & 1:
                raise ExtractionUnsupportedError(
                    f"base chain is broken between {p.name_of(lo)!r} "
                    f"and {p.name_of(hi)!r}")
        for (k, (i, j)), (lo, c, hi) in zip(terms, glued):
            if p._lower[c] != 1 << lo or p._upper[c] != 1 << hi:
                raise ExtractionUnsupportedError(
                    f"'c{k}' is not glued between u{i} and u{j}")
    return tuple(chain), terms
