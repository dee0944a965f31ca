"""Finite posets presented by their cover relation.

The per-element lower and upper cover masks are the stored truth;
comparability, lattice-ness, nullity, reducibility and dismantlability are
all derived from them on demand.  The constructor rejects transitively
implied covers, so the masks hold exactly the cover relation, once, built
once, and the kernels read them.  Cover pairs, for equality, hashing and
rendering, are read off the upper masks in element order, which is sorted
index order.  Lattice-ness and reducibility come from one kernel scan per
poset, cached as element masks; the predicates decide on those masks, and
only ``classify`` turns them into element names.  Elements carry canonical
string names ("u3", "x2", "c5", ...) and two posets compare equal when they
have the same names and the same cover relation on names -- the structural
stand-in for isomorphism of canonically named objects.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from collections import namedtuple
from itertools import compress

from . import _kernel
from .errors import MalformedPosetError, NotALatticeError


class ReducibilityReport(namedtuple(
        "ReducibilityReport",
        "reducible join_irreducible meet_irreducible doubly_irreducible")):
    """Element classification of one poset.

    ``reducible`` is the union of the join-reducible and meet-reducible
    elements (computed from the definition: x = y v z, resp. y ^ z, with both
    arguments distinct from x); ``doubly_irreducible`` follows the poset-level
    definition, at most one upper and at most one lower cover.  On lattices
    the two routes agree, and they are cross-checked before any result is
    read.
    """

    __slots__ = ()


class Poset:
    __slots__ = ("_names", "_index", "_up", "_down", "_lower", "_upper",
                 "_cache")

    def __init__(self, names, covers):
        names = tuple(names)
        if not names:
            raise MalformedPosetError("a poset needs at least one element")
        index = {name: pos for pos, name in enumerate(names)}
        if len(index) != len(names):
            dup = next(name for pos, name in enumerate(names) if index[name] != pos)
            raise MalformedPosetError(f"duplicate element name {dup!r}")
        try:
            pairs = [(index[lo], index[hi]) for lo, hi in covers]
        except KeyError as exc:
            raise MalformedPosetError(
                f"cover endpoint {exc.args[0]!r} is not an element") from None
        size = len(names)
        for a, b in pairs:
            if a == b:
                raise MalformedPosetError(f"self-cover on {names[a]!r}")
        try:
            up, down = _kernel.closure(size, pairs)
        except ValueError as exc:
            raise MalformedPosetError(str(exc)) from None
        lower = [0] * size
        upper = [0] * size
        for a, b in pairs:
            if up[a] & down[b]:
                raise MalformedPosetError(
                    f"cover {names[a]!r} -> {names[b]!r} is implied by transitivity")
            upper[a] |= 1 << b
            lower[b] |= 1 << a
        self._names = names
        self._index = index
        self._up = tuple(up)
        self._down = tuple(down)
        self._lower = tuple(lower)
        self._upper = tuple(upper)
        self._cache = {}

    @classmethod
    def chain(cls, names):
        names = tuple(names)
        return cls(names, zip(names, names[1:]))

    # -- basic views --------------------------------------------------------

    @property
    def names(self):
        return self._names

    def _index_covers(self):
        """Cover relation as (lower, upper) index pairs, in element order."""
        return tuple((a, b) for a, above in enumerate(self._upper)
                     for b in _kernel._bits(above))

    @property
    def covers(self):
        """Cover relation as (lower, upper) name pairs."""
        names = self._names
        return tuple((names[a], names[b]) for a, b in self._index_covers())

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
        if self._names == other._names:  # same order: the cover masks decide
            return self._upper == other._upper
        return (set(self._names) == set(other._names)
                and set(self.covers) == set(other.covers))

    def __hash__(self):
        return hash((frozenset(self._names), frozenset(self.covers)))

    def __repr__(self):
        covers = sum(above.bit_count() for above in self._upper)
        return f"Poset({len(self)} elements, {covers} covers)"


# -- module operations --------------------------------------------------------


def nullity(p):
    """Cycle rank |E| - |V| + c of the cover graph."""
    if "nullity" not in p._cache:
        edges, comps = _kernel.induced_nullity_parts(len(p), p._lower, p._upper)
        p._cache["nullity"] = edges - len(p) + comps
    return p._cache["nullity"]


def _order_scan(p):
    """(lattice, join_reducible, meet_reducible, doubly_irreducible) masks of
    ``p``, from one kernel scan and cached on the poset.

    Join/meet reducibility comes from the definitional route (existence of a
    join/meet of two other elements).  For lattices it is cross-checked
    against the cover-count criterion (>= 2 lower covers iff join-reducible,
    dually for meets) before anything reads it, and a mismatch raises, since
    it would falsify the equivalence the rest of the package relies on.
    """
    scan = p._cache.get("scan")
    if scan is None:
        n = len(p)
        lower, upper = p._lower, p._upper
        lattice, jr, mr = _kernel.reducibility(n, p._up, p._down, lower, upper)
        jr_covers = mr_covers = 0
        for i in range(n):
            if lower[i].bit_count() > 1:
                jr_covers |= 1 << i
            if upper[i].bit_count() > 1:
                mr_covers |= 1 << i
        if lattice and (jr_covers != jr or mr_covers != mr):
            raise RuntimeError(
                "internal error: definitional and cover-count reducibility "
                f"disagree on {p!r}")
        doubly = ((1 << n) - 1) & ~(jr_covers | mr_covers)
        scan = p._cache["scan"] = (lattice, jr, mr, doubly)
    return scan


def is_lattice(p):
    """True iff every pair of elements has a unique meet and a unique join."""
    return _order_scan(p)[0]


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _named(p, mask):
    """Names of the elements in ``mask``, selected by its binary digits,
    lowest first, as 0/1 bytes."""
    digits = f"{mask:b}"[::-1].encode().translate(_DIGIT_BITS)
    return frozenset(compress(p._names, digits))


def classify(p):
    """Reducibility classification of every element, as name sets; see
    ``_order_scan`` for how the masks behind it are computed and checked."""
    _, jr, mr, doubly = _order_scan(p)
    full = (1 << len(p)) - 1
    return ReducibilityReport(
        reducible=_named(p, jr | mr),
        join_irreducible=_named(p, full & ~jr),
        meet_irreducible=_named(p, full & ~mr),
        doubly_irreducible=_named(p, doubly),
    )


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
    order = _kernel.dismantling_order(len(p), p._up, p._down, p._lower,
                                      p._upper)
    if order is None:
        return None
    return tuple(p._names[i] for i in order)


def is_dismantlable(p):
    return dismantling_order(p) is not None


def is_rc_lattice(p):
    """True iff all reducible elements are pairwise comparable."""
    lattice, jr, mr, _ = _order_scan(p)
    if not lattice:
        raise NotALatticeError("RC is a property of lattices")
    red = jr | mr
    for i in _kernel._bits(red):
        if red & ~(p._up[i] | p._down[i] | (1 << i)):
            return False
    return True
