"""Dismantlable-lattice blocks, edge-labeled graphs, and their equivalence.

The package builds fundamental basic blocks (RC-lattices whose doubly
irreducible removals each drop the nullity by one, with distinct adjunct
pairs), realizes the dictionary-order bijection between vertex pairs and edge
labels, maps blocks to labeled graphs without isolated vertices and back,
and verifies that the two counting recurrences and direct enumeration agree.
"""

from ._kernel import active_implementation, compiled_available
from .correspondence import (
    EquivalenceReport,
    phi,
    phi_inverse,
    verify_equivalence,
)
from .counting import (
    BFileDiff,
    BFileMismatch,
    CountTable,
    count_d,
    count_d_oracle,
    count_f,
    diff_bfile,
    emit_triangle,
)
from .errors import (
    DisjointnessError,
    EnumerationCapError,
    ExtractionUnsupportedError,
    InvalidAdjunctPairError,
    MalformedPosetError,
    NotALatticeError,
    UncoveredVertexError,
)
from .fbb import (
    AdjunctRepresentation,
    AdjunctTerm,
    Fbb,
    adjunct,
    build_cf,
    build_fbb,
    extract_adjunct_representation,
    is_basic_block_universal,
    is_fundamental_basic_block,
)
from .graphs import (
    DEFAULT_ENUM_CAP,
    GraphSequence,
    LabeledGraph,
    check_bounds,
    enumerate_d,
    has_isolated_vertex,
    isolated_vertices,
    orient,
)
from .labeling import label_edges, pair_count, rank, unrank
from .poset import (
    Poset,
    ReducibilityReport,
    classify,
    dismantling_order,
    from_name_pairs,
    is_dismantlable,
    is_lattice,
    is_rc_lattice,
    nullity,
    remove_element,
)

__version__ = "0.1.0"

__all__ = [
    "AdjunctRepresentation",
    "AdjunctTerm",
    "BFileDiff",
    "BFileMismatch",
    "CountTable",
    "DEFAULT_ENUM_CAP",
    "DisjointnessError",
    "EnumerationCapError",
    "EquivalenceReport",
    "ExtractionUnsupportedError",
    "Fbb",
    "GraphSequence",
    "InvalidAdjunctPairError",
    "LabeledGraph",
    "MalformedPosetError",
    "NotALatticeError",
    "Poset",
    "ReducibilityReport",
    "UncoveredVertexError",
    "active_implementation",
    "adjunct",
    "build_cf",
    "build_fbb",
    "check_bounds",
    "classify",
    "compiled_available",
    "count_d",
    "count_d_oracle",
    "count_f",
    "diff_bfile",
    "dismantling_order",
    "emit_triangle",
    "enumerate_d",
    "extract_adjunct_representation",
    "from_name_pairs",
    "has_isolated_vertex",
    "is_basic_block_universal",
    "is_dismantlable",
    "is_fundamental_basic_block",
    "is_lattice",
    "is_rc_lattice",
    "isolated_vertices",
    "label_edges",
    "nullity",
    "orient",
    "pair_count",
    "phi",
    "phi_inverse",
    "rank",
    "remove_element",
    "unrank",
    "verify_equivalence",
]
