"""Finite posets presented by their cover relation.

``Poset(names, covers)`` takes the element names in element order and the
covers as (lower, upper) pairs of element indices; ``from_name_pairs``
takes the covers as name pairs instead.  Names are labels: the package
works on indices, and the name-to-index dict is built only on the first
lookup by name.  The per-element lower and upper cover masks are the stored
truth; comparability, lattice-ness, nullity, reducibility and
dismantlability are all derived from them on demand.  The constructor
rejects transitively implied covers, so the masks hold exactly the cover
relation, once, built once, and the kernels read them.  Cover pairs, for
equality, hashing and rendering, are read off the upper masks in element
order, which is sorted index order.  Lattice-ness and reducibility come
from one scan per poset, cached as element masks: the kernel's, or, for a
block read before any scan, the one its reading proves (``fbb._reading``).
The predicates decide on those masks, and only ``classify`` turns them into
element names.  Elements carry canonical string names ("u3", "x2", "c5",
...) and two posets compare equal when they have the same names and the
same cover relation on names -- the structural stand-in for isomorphism of
canonically named objects.

The names and cover masks are fixed at construction, and every operation
is a pure function of them.  The name index and the ``_cache`` entries
(scan, reading, nullity, basic-block test) are filled lazily and without a
lock, but any thread fills an entry with the same value, so instances are
shared safely across threads.
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
        size = len(names)
        if not size:
            raise MalformedPosetError("a poset needs at least one element")
        if len(set(names)) != size:
            raise MalformedPosetError(
                f"duplicate element name {_first_repeat(names)!r}")
        pairs = list(covers)
        for a, b in pairs:
            if (type(a) is not int or type(b) is not int
                    or not (0 <= a < size and 0 <= b < size)):
                bad = b if type(a) is int and 0 <= a < size else a
                raise MalformedPosetError(
                    f"cover endpoint {bad!r} is not an element index in "
                    f"0..{size - 1}")
        try:
            up, down = _kernel.closure(size, pairs)
        except ValueError as exc:  # a cycle; name a self-cover if there is one
            loop = next((a for a, b in pairs if a == b), None)
            if loop is not None:
                raise MalformedPosetError(f"self-cover on {names[loop]!r}") from None
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
        self._index = None
        self._up = tuple(up)
        self._down = tuple(down)
        self._lower = tuple(lower)
        self._upper = tuple(upper)
        self._cache = {}

    @classmethod
    def chain(cls, names):
        names = tuple(names)
        return cls(names, [(i, i + 1) for i in range(len(names) - 1)])

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

    def _name_index(self):
        """name -> element index, built on the first lookup by name."""
        index = self._index
        if index is None:
            index = self._index = {name: pos for pos, name in enumerate(self._names)}
        return index

    def __contains__(self, name):
        return name in self._name_index()

    def __iter__(self):
        return iter(self._names)

    def index_of(self, name):
        return self._name_index()[name]

    def name_of(self, idx):
        return self._names[idx]

    # -- order queries -------------------------------------------------------

    def lt(self, a, b):
        index = self._name_index()
        return (self._up[index[a]] >> index[b]) & 1 == 1

    def restrict(self, keep):
        """Subposet induced on the named subset, covers recomputed."""
        keep = set(keep)
        index = self._name_index()
        unknown = keep - index.keys()
        if unknown:
            raise KeyError(sorted(unknown)[0])
        kept = sorted(index[name] for name in keep)
        mask = sum(1 << i for i in kept)
        renumber = {old: new for new, old in enumerate(kept)}
        induced = _kernel.covers_within(len(self), self._up, self._down, mask)
        return Poset(tuple(self._names[i] for i in kept),
                     [(renumber[a], renumber[b]) for a, b in induced])

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


def _first_repeat(names):
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)


def from_name_pairs(names, pairs):
    """``Poset(names, covers)`` with each cover given as a (lower, upper)
    pair of element names."""
    names = tuple(names)
    index = {name: pos for pos, name in enumerate(names)}
    try:
        covers = [(index[lo], index[hi]) for lo, hi in pairs]
    except KeyError as exc:
        raise MalformedPosetError(
            f"cover endpoint {exc.args[0]!r} is not an element") from None
    return Poset(names, covers)  # which rejects repeated names


def nullity(p):
    """Cycle rank |E| - |V| + c of the cover graph."""
    if "nullity" not in p._cache:
        edges, comps = _kernel.induced_nullity_parts(len(p), p._lower, p._upper)
        p._cache["nullity"] = edges - len(p) + comps
    return p._cache["nullity"]


def _cover_reducibles(p):
    """(join_reducible, meet_reducible, doubly_irreducible) masks by the
    cover-count criterion: the elements with two or more lower covers, with
    two or more upper covers, and with neither.  On a lattice these are the
    reducibles and the doubly irreducibles by definition."""
    jr = mr = 0
    bit = 1
    for below, above in zip(p._lower, p._upper):
        if below & (below - 1):
            jr |= bit
        if above & (above - 1):
            mr |= bit
        bit <<= 1
    return jr, mr, ((1 << len(p)) - 1) & ~(jr | mr)


def _order_scan(p):
    """(lattice, join_reducible, meet_reducible, doubly_irreducible) masks of
    ``p``, from one kernel scan and cached on the poset.

    Join/meet reducibility comes from the definitional route (existence of a
    join/meet of two other elements).  For lattices it is cross-checked
    against the cover-count criterion (>= 2 lower covers iff join-reducible,
    dually for meets) before anything reads it, and a mismatch raises, since
    it would falsify the equivalence the rest of the package relies on.

    A block read through ``fbb._reading`` before any scan gets its scan from
    that reading's proof, not from this cross-check, so the kernel never
    runs on it.
    """
    scan = p._cache.get("scan")
    if scan is None:
        lattice, jr, mr = _kernel.reducibility(len(p), p._up, p._down,
                                               p._lower, p._upper)
        jr_covers, mr_covers, doubly = _cover_reducibles(p)
        if lattice and (jr_covers != jr or mr_covers != mr):
            raise RuntimeError(
                "internal error: definitional and cover-count reducibility "
                f"disagree on {p!r}")
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
