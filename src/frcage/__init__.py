"""Replica placement designs with exact repair and append-only growth.

Builds minimum-size girth-6 bipartite block designs over GF(q), maps
them to storage node/chunk tables where any two nodes share at most
one chunk, and verifies everything with independent brute-force
oracles.  Growing a deployed table to the next size never moves an
existing chunk.
"""

from .cage import (
    BipartiteDesign,
    BlockCollection,
    b_h_subgraph,
    build_scaled_cage,
    p_n,
    to_dot,
)
from .design import (
    FieldMeta,
    RepairPlan,
    StorageDesign,
    check_partial_invariants,
    chunk_locations,
    chunks_per_iteration,
    expand,
    from_json,
    incidence_design,
    partial_fill,
    repair_plan,
    to_csv,
    to_json,
    to_storage_design,
)
from .errors import (
    FrcageError,
    IndexOutOfRange,
    InvalidDegrees,
    InvalidDesign,
    InvalidParameter,
    NoSurvivingReplica,
    NodeOutOfRange,
    NotCanonical,
    NotPrimePower,
    OrderMismatch,
    OutOfRange,
    ResourceLimit,
)
from .gf import Field, field_new, find_primitive_element
from .mols import (
    MolsSet,
    Square,
    check_latin,
    check_orthogonal,
    check_zeroth_column_only_overlap,
    generate_mols,
)
from .verify import (
    BoundPair,
    VerificationReport,
    check_steiner_exact,
    girth_at_least_six,
    moore_bounds,
    verify_design,
)

__version__ = "0.1.0"
