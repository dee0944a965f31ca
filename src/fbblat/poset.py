"""Finite posets presented by their cover relation.

The cover list is the stored truth; comparability, lattice-ness, nullity,
reducibility and dismantlability are all derived from it on demand.  The
constructor rejects transitively implied covers, so the stored index pairs
are exactly the cover relation and the kernels take them as given.  Elements
carry canonical string names ("u3", "x2", "c5", ...) and two posets compare
equal when they have the same names and the same cover relation on names --
the structural stand-in for isomorphism of canonically named objects.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .errors import MalformedPosetError, NotALatticeError


@dataclass(frozen=True)
class CoverGraph:
    """Undirected view of a poset's covers."""

    vertices: tuple
    edges: tuple  # (lower, upper) name pairs
    components: int


@dataclass(frozen=True)
class ReducibilityReport:
    """Element classification of one poset.

    ``reducible`` is the union of the join-reducible and meet-reducible
    elements (computed from the definition: x = y v z, resp. y ^ z, with both
    arguments distinct from x); ``doubly_irreducible`` follows the poset-level
    definition, at most one upper and at most one lower cover.  On lattices
    the two routes agree and ``classify`` cross-checks them.
    """

    reducible: frozenset
    join_irreducible: frozenset
    meet_irreducible: frozenset
    doubly_irreducible: frozenset


class _IndexPairs(tuple):
    """Cover pairs given as element indices, which the constructor takes
    without resolving names."""


class Poset:
    __slots__ = ("_names", "_index", "_covers", "_up", "_down", "_cache")

    def __init__(self, names, covers):
        names = tuple(names)
        if not names:
            raise MalformedPosetError("a poset needs at least one element")
        index = {name: pos for pos, name in enumerate(names)}
        if len(index) != len(names):
            dup = next(name for pos, name in enumerate(names) if index[name] != pos)
            raise MalformedPosetError(f"duplicate element name {dup!r}")
        if isinstance(covers, _IndexPairs):
            pairs = covers
        else:
            pairs = []
            for lo, hi in covers:
                try:
                    pairs.append((index[lo], index[hi]))
                except KeyError as exc:
                    raise MalformedPosetError(
                        f"cover endpoint {exc.args[0]!r} is not an element") from None
        size = len(names)
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise MalformedPosetError(
                    f"cover ({a}, {b}) indexes outside the {size} elements")
            if a == b:
                raise MalformedPosetError(f"self-cover on {names[a]!r}")
        pairs = tuple(sorted(set(pairs)))
        try:
            up, down = _kernel.closure(size, pairs)
        except ValueError as exc:
            raise MalformedPosetError(str(exc)) from None
        for a, b in pairs:
            if up[a] & down[b]:
                raise MalformedPosetError(
                    f"cover {names[a]!r} -> {names[b]!r} is implied by transitivity")
        self._names = names
        self._index = index
        self._covers = pairs
        self._up = tuple(up)
        self._down = tuple(down)
        self._cache = {}

    @classmethod
    def _from_index_covers(cls, names, covers):
        """Poset on ``names`` from (lower, upper) index pairs into it: the
        constructor, with its checks, minus the name lookups."""
        return cls(names, _IndexPairs(covers))

    @classmethod
    def chain(cls, names):
        names = tuple(names)
        return cls(names, zip(names, names[1:]))

    @classmethod
    def from_covers(cls, covers, elements=()):
        """Poset from cover name pairs; ``elements`` adds isolated points and
        pins element order for the names it lists."""
        covers = [tuple(c) for c in covers]
        names = list(elements)
        seen = set(names)
        for lo, hi in covers:
            for name in (lo, hi):
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return cls(names, covers)

    # -- basic views --------------------------------------------------------

    @property
    def names(self):
        return self._names

    @property
    def covers(self):
        """Cover relation as (lower, upper) name pairs."""
        return tuple((self._names[a], self._names[b]) for a, b in self._covers)

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._index

    def __iter__(self):
        return iter(self._names)

    def index_of(self, name):
        return self._index[name]

    def name_of(self, idx):
        return self._names[idx]

    # -- order queries -------------------------------------------------------

    def lt(self, a, b):
        return (self._up[self._index[a]] >> self._index[b]) & 1 == 1

    def le(self, a, b):
        return a == b or self.lt(a, b)

    def comparable(self, a, b):
        return a == b or self.lt(a, b) or self.lt(b, a)

    def upper_covers(self, name):
        i = self._index[name]
        return tuple(self._names[b] for a, b in self._covers if a == i)

    def lower_covers(self, name):
        i = self._index[name]
        return tuple(self._names[a] for a, b in self._covers if b == i)

    def restrict(self, keep):
        """Subposet induced on the named subset, covers recomputed."""
        keep = set(keep)
        unknown = keep - set(self._names)
        if unknown:
            raise KeyError(sorted(unknown)[0])
        mask = 0
        for name in keep:
            mask |= 1 << self._index[name]
        induced = _kernel.covers_within(len(self), self._up, self._down, mask)
        names = tuple(n for n in self._names if n in keep)
        return Poset(names, ((self._names[a], self._names[b]) for a, b in induced))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        if self._names == other._names:  # same order: the index covers decide
            return self._covers == other._covers
        return (set(self._names) == set(other._names)
                and set(self.covers) == set(other.covers))

    def __hash__(self):
        return hash((frozenset(self._names), frozenset(self.covers)))

    def __repr__(self):
        return f"Poset({len(self)} elements, {len(self._covers)} covers)"


# -- module operations --------------------------------------------------------


def transitive_order(p):
    """Strict order relation derived from the covers, as name pairs."""
    out = set()
    for i, mask in enumerate(p._up):
        a = p._names[i]
        while mask:
            low = mask & -mask
            out.add((a, p._names[low.bit_length() - 1]))
            mask ^= low
    return frozenset(out)


def cover_graph(p):
    """The poset's covers as a plain graph, with its component count."""
    full = (1 << len(p)) - 1
    _, comps = _kernel.induced_nullity_parts(len(p), p._covers, full)
    return CoverGraph(p.names, p.covers, comps)


def nullity(p):
    """Cycle rank |E| - |V| + c of the cover graph."""
    if "nullity" not in p._cache:
        edges, comps = _kernel.induced_nullity_parts(
            len(p), p._covers, (1 << len(p)) - 1)
        p._cache["nullity"] = edges - len(p) + comps
    return p._cache["nullity"]


def is_lattice(p):
    """True iff every pair of elements has a unique meet and a unique join."""
    if "lattice" not in p._cache:
        p._cache["lattice"] = _kernel.is_lattice(len(p), p._up, p._down)
    return p._cache["lattice"]


def classify(p):
    """Reducibility classification of every element.

    Join/meet reducibility comes from the definitional route (existence of a
    join/meet of two other elements); for lattices the result is cross-checked
    against the cover-count criterion (>= 2 lower covers iff join-reducible,
    dually for meets) and a mismatch raises, since it would falsify the
    equivalence the rest of the package relies on.
    """
    if "classify" in p._cache:
        return p._cache["classify"]
    n = len(p)
    jr_mask, mr_mask = _kernel.reducibility(n, p._up, p._down)
    lower = [0] * n
    upper = [0] * n
    for a, b in p._covers:
        upper[a] += 1
        lower[b] += 1
    if is_lattice(p):
        jr_covers = sum(1 << i for i in range(n) if lower[i] >= 2)
        mr_covers = sum(1 << i for i in range(n) if upper[i] >= 2)
        if jr_covers != jr_mask or mr_covers != mr_mask:
            raise RuntimeError(
                "internal error: definitional and cover-count reducibility "
                f"disagree on {p!r}")
    names = p._names
    report = ReducibilityReport(
        reducible=frozenset(names[i] for i in range(n)
                            if (jr_mask | mr_mask) >> i & 1),
        join_irreducible=frozenset(names[i] for i in range(n)
                                   if not jr_mask >> i & 1),
        meet_irreducible=frozenset(names[i] for i in range(n)
                                   if not mr_mask >> i & 1),
        doubly_irreducible=frozenset(names[i] for i in range(n)
                                     if lower[i] <= 1 and upper[i] <= 1),
    )
    p._cache["classify"] = report
    return report


def remove_element(p, name):
    """Subposet induced on everything but ``name`` (covers recomputed; an
    induced cover may be a non-cover of the original)."""
    if name not in p:
        raise KeyError(name)
    return p.restrict(n for n in p.names if n != name)


def dismantling_order(p):
    """Greedy doubly-irreducible removal order down to a singleton, or None.

    Lowest element id is removed first at every step, which makes the order
    deterministic; removing a doubly irreducible element of a lattice always
    leaves a sublattice, so no backtracking is needed.
    """
    if not is_lattice(p):
        raise NotALatticeError("dismantlability is defined for lattices")
    order = _kernel.dismantling_order(len(p), p._up, p._down, p._covers)
    if order is None:
        return None
    return tuple(p._names[i] for i in order)


def is_dismantlable(p):
    return dismantling_order(p) is not None


def is_rc_lattice(p):
    """True iff all reducible elements are pairwise comparable."""
    if not is_lattice(p):
        raise NotALatticeError("RC is a property of lattices")
    red = classify(p).reducible
    mask = 0
    for name in red:
        mask |= 1 << p._index[name]
    for name in red:
        i = p._index[name]
        if mask & ~(p._up[i] | p._down[i] | (1 << i)):
            return False
    return True
