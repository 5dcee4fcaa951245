"""Storage-system view of a design: nodes, chunks, growth and repair.

A storage design reads the bipartite graph transposed: Y vertices are
storage nodes, X vertices are data chunks, so each chunk has k = q+1
replicas and each node holds l = p_n(q) chunk slots.  Slots are kept
in ascending chunk-id order.  The construction only appends chunks
and never changes an old chunk's nodes, so the (q, n-1) table is the
first p_{n-1}(q) slots of the first p_n(q) nodes of the (q, n) table.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from functools import cached_property

from .cage import BipartiteDesign, build_scaled_cage, p_n
from .errors import (
    InvalidDesign,
    InvalidParameter,
    NoSurvivingReplica,
    NodeOutOfRange,
    NotCanonical,
    NotPrimePower,
    OutOfRange,
)
from .gf import Field, field_new
from .verify import _first_repeat

__all__ = [
    "SCHEMA_VERSION",
    "CONSTRUCTION",
    "FieldMeta",
    "StorageDesign",
    "RepairPlan",
    "to_storage_design",
    "incidence_design",
    "chunk_locations",
    "expand",
    "partial_fill",
    "repair_plan",
    "check_partial_invariants",
    "to_json",
    "from_json",
    "to_csv",
    "chunks_per_iteration",
]

SCHEMA_VERSION = "1"
CONSTRUCTION = "layered-mols-expansion"


def chunks_per_iteration(q: int, n: int) -> int:
    """Total chunk count u at iteration n (u = 1 at n = 0)."""
    return p_n(q, n + 1) * p_n(q, n) // (q + 1)


@dataclass(frozen=True)
class FieldMeta:
    p: int
    m: int
    modulus: tuple[int, ...]
    primitive: int

    @classmethod
    def of(cls, f: Field) -> "FieldMeta":
        return cls(p=f.p, m=f.m, modulus=f.modulus, primitive=f.alpha)


@dataclass(frozen=True)
class StorageDesign:
    """Ordered node table.  Slots hold chunk ids; None marks an empty
    slot left by partial fill."""

    q: int
    n: int
    k: int
    l: int
    num_nodes: int
    num_chunks: int
    nodes: tuple[tuple[int | None, ...], ...]
    field_meta: FieldMeta
    version: str = SCHEMA_VERSION
    construction: str = CONSTRUCTION

    @property
    def is_complete(self) -> bool:
        return not any(None in row for row in self.nodes)

    @cached_property
    def locations(self) -> tuple[tuple[int, ...], ...]:
        """Chunk-location index, built on first use and kept for the
        life of the design; see chunk_locations."""
        return _transpose(self.nodes, self.num_chunks)


@dataclass(frozen=True)
class RepairPlan:
    """One helper per lost chunk; helpers are pairwise distinct."""

    failed_node: int
    assignments: tuple[tuple[int, int], ...]


def _transpose(rows, size: int) -> tuple[tuple[int, ...], ...]:
    """out[j] lists the indices i of the rows holding j, ascending
    (rows are walked in order); None entries are skipped."""
    out: list[list[int]] = [[] for _ in range(size)]
    for i, row in enumerate(rows):
        for j in row:
            if j is not None:
                out[j].append(i)
    return tuple(map(tuple, out))


def to_storage_design(d: BipartiteDesign) -> StorageDesign:
    """Transpose a constructed design into its node/chunk table."""
    if d.q is None or d.n is None:
        raise ValueError("storage view needs a design with (q, n) metadata")
    return StorageDesign(
        q=d.q, n=d.n, k=d.k, l=d.l, num_nodes=d.v, num_chunks=d.u,
        nodes=_transpose(d.x_neighbors, d.v),
        field_meta=FieldMeta.of(d.gf if d.gf is not None else field_new(d.q)),
    )


def incidence_design(sd: StorageDesign) -> BipartiteDesign:
    """Rebuild the bipartite graph from a complete storage table."""
    if not sd.is_complete:
        raise InvalidDesign("cannot rebuild a graph from a partially filled design")
    return BipartiteDesign(
        q=sd.q, n=sd.n, k=sd.k, l=sd.l, u=sd.num_chunks, v=sd.num_nodes,
        x_neighbors=chunk_locations(sd),
    )


def chunk_locations(sd: StorageDesign) -> tuple[tuple[int, ...], ...]:
    """For every chunk id, the ascending list of nodes storing it
    (empty for chunks blanked by partial fill).  The index is computed
    once per design, on first use, and every later call returns it."""
    return sd.locations


def expand(old: StorageDesign, max_edges: int | None = None) -> StorageDesign:
    """Grow a canonical (q, n) design to (q, n+1).

    Every old node keeps its slots as a prefix and every old chunk id
    is preserved; new chunk ids are appended only.  Only (q, n+1) is
    built: `old` must equal its (q, n) prefix (the first p_{n+1}(q)
    nodes, the first p_n(q) slots of each, same field metadata), or
    NotCanonical is raised.  An over-cap request raises ResourceLimit
    before anything is built, so a table that is both non-canonical
    and over the cap gets ResourceLimit.
    """
    if old.version != SCHEMA_VERSION or old.construction != CONSTRUCTION:
        raise NotCanonical(
            f"unknown provenance: version={old.version!r}, construction={old.construction!r}"
        )
    if not old.is_complete:
        raise NotCanonical("partially filled designs cannot be expanded")
    if old.n < 1:
        raise NotCanonical(f"expansion needs n >= 1, got n={old.n}")
    new = to_storage_design(build_scaled_cage(old.q, old.n + 1, max_edges=max_edges))
    v, l = p_n(old.q, old.n + 1), p_n(old.q, old.n)
    prefix = replace(
        new, n=old.n, l=l, num_nodes=v, num_chunks=chunks_per_iteration(old.q, old.n),
        nodes=tuple(row[:l] for row in new.nodes[:v]),
    )
    if prefix != old:
        raise NotCanonical(
            f"design does not match the canonical (q={old.q}, n={old.n}) construction"
        )
    return new


def partial_fill(full: StorageDesign, u_tilde: int) -> StorageDesign:
    """Blank every slot holding a chunk id >= u_tilde.

    Valid u_tilde lie strictly above the previous iteration's chunk
    count and at most at this iteration's; slot positions are kept so
    chunks can be filled in later without moving anything.
    """
    if not full.is_complete:
        raise InvalidDesign("partial_fill expects the full (q, n) design")
    if full.n < 1:
        raise InvalidParameter(f"partial fill needs n >= 1, got n={full.n}")
    u_prev = chunks_per_iteration(full.q, full.n - 1)
    if not u_prev < u_tilde <= full.num_chunks:
        raise OutOfRange(
            f"u_tilde must be in ({u_prev}, {full.num_chunks}], got {u_tilde}"
        )
    nodes = tuple(
        tuple(c if c is not None and c < u_tilde else None for c in row) for row in full.nodes
    )
    return replace(full, nodes=nodes)


def repair_plan(sd: StorageDesign, failed: int, policy: str = "lowest") -> RepairPlan:
    """Pick one distinct helper node per chunk of the failed node.

    "lowest" always takes the smallest surviving holder id, so over all
    num_nodes single-node failures of a complete canonical table, node
    0 serves q*l requests.  "round-robin" takes the failed node's
    successor on the chunk's ascending holder ring (the next larger
    holder, else the smallest).  Each holder of a chunk is then the
    successor of exactly one other holder, so over all single-node
    failures every node serves one request per chunk it holds: exactly
    l on a complete table, at most l on a partial one.  Helpers are
    distinct because two chunks of one node never share another holder,
    or that holder and the failed node would share a chunk pair; a
    table that breaks this raises InvalidDesign.
    """
    if not 0 <= failed < sd.num_nodes:
        raise NodeOutOfRange(f"node id must be in [0, {sd.num_nodes}), got {failed}")
    if policy not in ("lowest", "round-robin"):
        raise ValueError(f"unknown policy {policy!r}")
    locs = chunk_locations(sd)
    assignments = []
    used = set()
    for chunk in sd.nodes[failed]:
        if chunk is None:
            continue
        survivors = [g for g in locs[chunk] if g != failed]
        if not survivors:
            raise NoSurvivingReplica(f"chunk {chunk} has no replica outside node {failed}")
        if policy == "lowest":
            helper = survivors[0]
        else:
            helper = next((g for g in survivors if g > failed), survivors[0])
        if helper in used:
            raise InvalidDesign(f"node {failed} shares two chunks with node {helper}")
        used.add(helper)
        assignments.append((chunk, helper))
    return RepairPlan(failed_node=failed, assignments=tuple(assignments))


def _replica_defect(sd: StorageDesign):
    """(chunk, replicas) for the first present chunk without exactly k
    replicas, else None."""
    for c, holders in enumerate(chunk_locations(sd)):
        if holders and len(holders) != sd.k:
            return c, len(holders)
    return None


def check_partial_invariants(sd: StorageDesign):
    """(ok, detail) for possibly partially-filled tables, stopping at the
    first defect: a node repeats a chunk ("duplicate_slot": (node,)), a
    present chunk lacks k replicas ("replicas": (chunk, count)), or nodes
    a < b share chunks c0 < c ("overlap": (a, b, c0, c)).  detail is
    empty when ok."""
    for g, row in enumerate(sd.nodes):
        present = [c for c in row if c is not None]
        if len(set(present)) != len(present):
            return False, {"duplicate_slot": (g,)}
    bad = _replica_defect(sd)
    if bad is not None:
        return False, {"replicas": bad}
    w = _first_repeat(chunk_locations(sd), sd.num_nodes)
    if w is not None:
        c0, a, c, b = w
        return False, {"overlap": (a, b, c0, c)}
    return True, {}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _int(x):
    """Header integers must be JSON integers; true and 2.9 are refused."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# Header key -> parser.  Each key is a StorageDesign field; "field"
# holds asdict(field_meta) next to them.
_HEADER = {"version": str, "construction": str} | dict.fromkeys(
    ("q", "n", "k", "l", "num_nodes", "num_chunks"), _int
)


def to_json(sd: StorageDesign) -> str:
    """Canonical JSON: header plus node rows, empty slots as null."""
    header = {key: getattr(sd, key) for key in _HEADER}
    header["field"] = asdict(sd.field_meta)
    payload = {"header": header, "nodes": sd.nodes}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> StorageDesign:
    """Parse and validate a serialized design.  Raises InvalidDesign."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDesign(f"not valid JSON: {exc}") from exc
    try:
        header = payload["header"]
        fmeta = header["field"]
        sd = StorageDesign(
            **{key: parse(header[key]) for key, parse in _HEADER.items()},
            nodes=tuple(map(tuple, payload["nodes"])),
            field_meta=FieldMeta(
                p=_int(fmeta["p"]), m=_int(fmeta["m"]),
                modulus=tuple(map(_int, fmeta["modulus"])), primitive=_int(fmeta["primitive"]),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDesign(f"malformed design payload: {exc}") from exc
    _validate(sd)
    return sd


def _validate(sd: StorageDesign) -> None:
    if len(sd.nodes) != sd.num_nodes:
        raise InvalidDesign(f"expected {sd.num_nodes} nodes, found {len(sd.nodes)}")
    if sd.construction == CONSTRUCTION:
        _check_header(sd)
    for g, row in enumerate(sd.nodes):
        if len(row) != sd.l:
            raise InvalidDesign(f"node {g} has {len(row)} slots, expected {sd.l}")
        if not set(map(type, row)) <= {int, type(None)}:
            raise InvalidDesign(f"node {g} has a slot that is neither an integer nor null")
        present = set(row)
        present.discard(None)
        if present and not (0 <= min(present) and max(present) < sd.num_chunks):
            raise InvalidDesign(f"node {g} references a chunk id out of range")
        if len(present) != sd.l - row.count(None):
            raise InvalidDesign(f"node {g} repeats a chunk id")
    bad = _replica_defect(sd)
    if bad is not None:
        raise InvalidDesign(f"chunk {bad[0]} has {bad[1]} replicas, expected {sd.k}")


def _check_header(sd: StorageDesign) -> None:
    """A canonical header is fixed by (q, n): k = q+1, l = p_n(q),
    num_nodes = p_{n+1}(q), num_chunks = chunks_per_iteration(q, n),
    n >= 1 and field_meta = FieldMeta.of(field_new(q))."""
    q, n, v = sd.q, sd.n, sd.num_nodes
    # p_{n+1}(q) exceeds both q and 2**(n+1), so these bounds keep p_n
    # and GF(q) small for any header that could match the row count.
    if not (2 <= q < v and 1 <= n < v.bit_length()):
        raise InvalidDesign(f"(q={q}, n={n}) cannot describe {v} nodes")
    want = (q + 1, p_n(q, n), p_n(q, n + 1), chunks_per_iteration(q, n))
    if (sd.k, sd.l, v, sd.num_chunks) != want:
        raise InvalidDesign(f"(q={q}, n={n}) gives (k, l, num_nodes, num_chunks) = {want}")
    try:
        field = FieldMeta.of(field_new(q))
    except NotPrimePower as exc:
        raise InvalidDesign(f"header q={q} is not a prime power") from exc
    if sd.field_meta != field:
        raise InvalidDesign(f"field metadata does not match GF({q})")


def to_csv(sd: StorageDesign) -> str:
    """One row per node: node id followed by its slots (blank = empty)."""
    lines = []
    for g, row in enumerate(sd.nodes):
        cells = [str(g)] + ["" if c is None else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
