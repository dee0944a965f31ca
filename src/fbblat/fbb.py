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
"""

from __future__ import annotations

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
from .labeling import rank, unrank
from .poset import Poset, is_lattice


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
    if (a, b) in set(l1.covers):
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


def nullity_bounds(n):
    """(lowest, highest) nullity a fundamental basic block on n reducibles
    can have: floor((n+1)/2) .. C(n,2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n + 1) // 2, comb(n, 2)


def _assemble(n, rankset):
    chain = []
    for i in range(1, n):
        chain.append(f"u{i}")
        if rank(n, i, i + 1) in rankset:
            chain.append(f"x{i}")
    chain.append(f"u{n}")
    ordered = sorted(rankset)
    names = chain + [f"c{k}" for k in ordered]
    covers = list(zip(chain, chain[1:]))
    for k in ordered:
        i, j = unrank(n, k)
        covers.append((f"u{i}", f"c{k}"))
        covers.append((f"c{k}", f"u{j}"))
    return Poset(names, covers)


def build_cf(n):
    """The complete fundamental basic block CF(n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    full = frozenset(range(1, comb(n, 2) + 1))
    return CompleteFbb(n, full, _assemble(n, full))


def build_fbb(n, ranks):
    """The fundamental basic block with adjunct pairs labeled by ``ranks``.

    Every vertex 1..n must be touched by some pair, i.e. every u_i must end
    up reducible; otherwise the rank set does not describe a member of
    F_n(l) and the error names the isolated reducibles.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rankset = frozenset(int(k) for k in ranks)
    top = comb(n, 2)
    bad = sorted(k for k in rankset if not 1 <= k <= top)
    if bad:
        raise ValueError(f"labels outside J_N = 1..{top}: {bad}")
    covered = set()
    for k in rankset:
        i, j = unrank(n, k)
        covered.add(i)
        covered.add(j)
    missing = sorted(set(range(1, n + 1)) - covered)
    if missing:
        raise UncoveredVertexError(
            "no adjunct pair touches " + ", ".join(f"u{v}" for v in missing),
            missing)
    return Fbb(n, rankset, _assemble(n, rankset))


def is_basic_block_universal(p):
    """Basic-block predicate, universal reading: one element, or no doubly
    irreducible element, or removal of each doubly irreducible element drops
    the nullity by exactly one.

    Each removal is decided from the element's own covers, not by
    recounting the nullity; the result is cached on the poset."""
    if "basic_block" not in p._cache:
        p._cache["basic_block"] = _kernel.basic_block_universal(
            len(p), p._up, p._down)
    return p._cache["basic_block"]


def is_fundamental_basic_block(f):
    """RC-lattice + basic block + pairwise distinct adjunct pairs."""
    from .poset import is_rc_lattice

    p = f.poset
    if not is_lattice(p):
        return False
    if not is_rc_lattice(p):
        return False
    if not is_basic_block_universal(p):
        return False
    pairs = [(t.lower, t.upper) for t in extract_adjunct_representation(f).terms]
    return len(set(pairs)) == len(pairs)


def extract_adjunct_representation(f):
    """Base chain C'_0 plus one singleton term per adjunct pair, labels
    ascending; reassembling yields an identical poset.

    Only the canonical block shape is handled: names u<i>/x<i>/c<k>, the u's
    and x's forming the base chain and each c_k doubly irreducible between
    the reducibles named by unrank(k).  Anything else raises.
    """
    p = f.poset
    n = f.n
    expected_chain = []
    for i in range(1, n):
        expected_chain.append(f"u{i}")
        if f"x{i}" in p:
            expected_chain.append(f"x{i}")
    expected_chain.append(f"u{n}")
    cs = []
    for name in p.names:
        if name in expected_chain:
            continue
        if not name.startswith("c"):
            raise ExtractionUnsupportedError(
                f"element {name!r} is outside the canonical naming scheme")
        try:
            k = int(name[1:])
        except ValueError:
            raise ExtractionUnsupportedError(
                f"element {name!r} is outside the canonical naming scheme") from None
        cs.append(k)
    cs.sort()
    if frozenset(cs) != f.ranks:
        raise ExtractionUnsupportedError(
            f"poset members {sorted(cs)} disagree with the rank set "
            f"{sorted(f.ranks)}")
    covers = set(p.covers)
    for lo, hi in zip(expected_chain, expected_chain[1:]):
        if (lo, hi) not in covers:
            raise ExtractionUnsupportedError(
                f"base chain is broken between {lo!r} and {hi!r}")
    terms = []
    for k in cs:
        i, j = unrank(n, k)
        name = f"c{k}"
        if p.lower_covers(name) != (f"u{i}",) or p.upper_covers(name) != (f"u{j}",):
            raise ExtractionUnsupportedError(
                f"{name!r} is not glued between u{i} and u{j}")
        terms.append(AdjunctTerm(f"u{i}", f"u{j}", (name,)))
    return AdjunctRepresentation(tuple(expected_chain), tuple(terms))
