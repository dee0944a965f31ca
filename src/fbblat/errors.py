"""Exception types shared across the package."""


class MalformedPosetError(ValueError):
    """Cover list is not a valid poset presentation (cycle, non-minimal
    cover, duplicate or unknown element)."""


class NotALatticeError(ValueError):
    """Operation requires a lattice and the input poset is not one."""


class InvalidAdjunctPairError(ValueError):
    """Adjunct pair (a, b) violates a < b with a not covered by b."""


class DisjointnessError(ValueError):
    """The two lattices of an adjunct share element names."""


class UncoveredVertexError(ValueError):
    """A vertex in 1..n is touched by no edge / adjunct pair."""

    def __init__(self, message, vertices=()):
        super().__init__(message)
        self.vertices = tuple(vertices)


class ExtractionUnsupportedError(ValueError):
    """A poset does not read as a fundamental basic block, or reads as
    another (n, ranks) than the block claims."""


class EnumerationCapError(ValueError):
    """Requested exhaustive enumeration is above the configured cap."""
