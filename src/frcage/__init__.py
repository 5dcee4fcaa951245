"""Replica placement designs with exact repair and append-only growth.

Builds minimum-size girth-6 bipartite block designs over GF(q) as
storage node/chunk tables where any two nodes share at most one
chunk, and verifies everything with independent brute-force oracles.
Growing a deployed table to the next size never moves an existing
chunk.
"""

from .cage import (
    BlockCollection,
    FieldMeta,
    StorageDesign,
    build_scaled_cage,
    chunks_per_iteration,
    p_n,
    to_dot,
)
from .design import (
    RepairPlan,
    check_partial_invariants,
    chunk_locations,
    expand,
    from_json,
    partial_fill,
    repair_plan,
    to_csv,
    to_json,
)
from .errors import (
    FrcageError,
    InvalidDegrees,
    InvalidDesign,
    InvalidParameter,
    NoSurvivingReplica,
    NodeOutOfRange,
    NotCanonical,
    NotPrimePower,
    OutOfRange,
    ResourceLimit,
)
from .gf import Field, field_new, find_primitive_element
from .mols import generate_mols
from .verify import (
    BoundPair,
    VerificationReport,
    check_steiner_exact,
    girth_at_least_six,
    moore_bounds,
    verify_design,
)

__version__ = "0.1.0"
