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
from itertools import chain
from operator import lt

from .cage import (
    CONSTRUCTION,
    SCHEMA_VERSION,
    FieldMeta,
    StorageDesign,
    _check_edge_cap,
    build_scaled_cage,
    chunks_per_iteration,
)
from .errors import (
    InvalidDesign,
    NoSurvivingReplica,
    NodeOutOfRange,
    NotCanonical,
    OutOfRange,
)
from .verify import _first_repeat

__all__ = [
    "RepairPlan",
    "chunk_locations",
    "expand",
    "partial_fill",
    "repair_plan",
    "check_partial_invariants",
    "to_json",
    "from_json",
    "to_csv",
]


@dataclass(frozen=True)
class RepairPlan:
    """One helper per lost chunk; helpers are pairwise distinct."""

    failed_node: int
    assignments: tuple[tuple[int, int], ...]


def chunk_locations(sd: StorageDesign) -> tuple[tuple[int, ...], ...]:
    """For every chunk id, the ascending list of nodes storing it
    (empty for chunks blanked by partial fill): the design's
    x_neighbors, computed once on first use."""
    return sd.x_neighbors


def _require_canonical(sd: StorageDesign) -> None:
    """Refuse a table whose (q, n) header was not checked on creation."""
    if sd.version != SCHEMA_VERSION or sd.construction != CONSTRUCTION:
        raise NotCanonical(f"unknown provenance: version={sd.version!r}, "
                           f"construction={sd.construction!r}")


def expand(old: StorageDesign, max_edges: int | None = None) -> StorageDesign:
    """Grow a canonical (q, n) design to (q, n+1).

    Every old node keeps its slots as a prefix and every old chunk id
    is preserved; new chunk ids are appended only.  Refusals, in order:
    provenance and completeness (NotCanonical), the edge cap for
    (q, n+1) (ResourceLimit), then, after (q, n+1) is built, a table
    whose rows are not exactly the first p_n(q) slots of its first
    p_{n+1}(q) nodes: InvalidDesign naming a malformed row or replica
    count, else NotCanonical.  The header was checked against (q, n)
    when the table was created."""
    _require_canonical(old)
    if not old.is_complete:
        raise NotCanonical("partially filled designs cannot be expanded")
    _check_edge_cap(old.q, old.n + 1, max_edges)
    new = build_scaled_cage(old.q, old.n + 1, max_edges=max_edges)
    # == alone would take True or 1.0 for chunk 1
    if (set(map(type, chain.from_iterable(old.nodes))) != {int}
            or old.nodes != tuple(row[:old.l] for row in new.nodes[:old.v])):
        _validate(old)  # the row checks run only to name why the table differs
        raise NotCanonical(
            f"design does not match the canonical (q={old.q}, n={old.n}) construction"
        )
    return new


def partial_fill(full: StorageDesign, u_tilde: int) -> StorageDesign:
    """Blank every slot holding a chunk id >= u_tilde.

    Valid u_tilde lie strictly above the previous iteration's chunk
    count and at most at this iteration's; slot positions are kept so
    chunks can be filled in later without moving anything.  Tables this
    library did not build raise NotCanonical, ids outside [0, u) InvalidDesign.
    """
    _require_canonical(full)
    if not full.is_complete:
        raise InvalidDesign("partial_fill expects the full (q, n) design")
    u_prev = chunks_per_iteration(full.q, full.n - 1)
    if type(u_tilde) is not int or not u_prev < u_tilde <= full.u:
        raise OutOfRange(f"u_tilde must be an integer in ({u_prev}, {full.u}], got {u_tilde!r}")
    full.x_neighbors  # range-checks every id; a load has already built it
    nodes = tuple(
        tuple(c if c is not None and c < u_tilde else None for c in row) for row in full.nodes
    )
    return replace(full, nodes=nodes)


def repair_plan(sd: StorageDesign, failed: int) -> RepairPlan:
    """Pick one distinct helper node per chunk of the failed node: the
    failed node's successor on the chunk's ascending holder ring (the
    next larger holder, else the smallest).

    Each holder of a chunk is the successor of exactly one other
    holder, so over all v single-node failures every node
    serves one request per chunk it holds: exactly l on a complete
    table and at most l on a partial one.  Helpers are distinct because
    two chunks of one node never share another holder, or that holder
    and the failed node would share a chunk pair; a table that breaks
    this raises InvalidDesign.
    """
    if type(failed) is not int or not 0 <= failed < sd.v:
        raise NodeOutOfRange(f"node id must be an integer in [0, {sd.v}), got {failed!r}")
    locs = chunk_locations(sd)
    assignments, used = [], set()
    for chunk in sd.nodes[failed]:
        if chunk is None:
            continue
        ring = locs[chunk]
        if len(ring) < 2:
            raise NoSurvivingReplica(f"chunk {chunk} has no replica outside node {failed}")
        helper = ring[(ring.index(failed) + 1) % len(ring)]
        if helper in used:
            raise InvalidDesign(f"node {failed} shares two chunks with node {helper}")
        used.add(helper)
        assignments.append((chunk, helper))
    return RepairPlan(failed_node=failed, assignments=tuple(assignments))


def _replica_defect(sd: StorageDesign):
    """(chunk, replicas) for the first present chunk without exactly k
    replicas, else None."""
    locs = chunk_locations(sd)
    if set(map(len, locs)) <= {0, sd.k}:
        return None
    for c, holders in enumerate(locs):
        if holders and len(holders) != sd.k:
            return c, len(holders)
    return None


def check_partial_invariants(sd: StorageDesign):
    """(ok, detail) for possibly partially-filled tables, stopping at the
    first defect: a node repeats a chunk ("duplicate_slot": (node,)), a
    present chunk lacks k replicas ("replicas": (chunk, count)), nodes
    a < b share chunks c0 < c ("overlap": (a, b, c0, c)), or the first
    blank chunk lies below a present one ("blank_gap": (blank, present)).
    detail is empty when ok; a chunk id out of range raises InvalidDesign."""
    for g, row in enumerate(sd.nodes):
        present = [c for c in row if c is not None]
        if len(set(present)) != len(present):
            return False, {"duplicate_slot": (g,)}
    bad = _replica_defect(sd)
    if bad is not None:
        return False, {"replicas": bad}
    locs = chunk_locations(sd)
    w = _first_repeat(locs, sd.v)
    if w is not None:
        c0, a, c, b = w
        return False, {"overlap": (a, b, c0, c)}
    # blanks form a suffix exactly when the last count(()) chunks are blank
    if any(locs[len(locs) - locs.count(()):]):
        blank = locs.index(())
        return False, {"blank_gap": (blank, next(c for c in range(blank, len(locs)) if locs[c]))}
    return True, {}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _int(x):
    """Header integers must be JSON integers; true and 2.9 are refused."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# JSON header key -> (StorageDesign field, parser); "field" holds
# asdict(field_meta) next to them.
_HEADER = {
    "version": ("version", str), "construction": ("construction", str),
    "q": ("q", _int), "n": ("n", _int), "k": ("k", _int), "l": ("l", _int),
    "num_nodes": ("v", _int), "num_chunks": ("u", _int),
}


def to_json(sd: StorageDesign) -> str:
    """Canonical JSON: header plus node rows, empty slots as null."""
    header = {key: getattr(sd, name) for key, (name, _) in _HEADER.items()}
    header["field"] = asdict(sd.field_meta)
    payload = {"header": header, "nodes": sd.nodes}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str | bytes) -> StorageDesign:
    """Parse and validate a serialized design, text or UTF-8 bytes.  Raises InvalidDesign."""
    sd = _parse(text)
    _validate(sd)
    return sd


def _parse(text: str | bytes) -> StorageDesign:
    """from_json's first stage: the JSON and the O(1) header checks that
    creating the design runs; the rows are not checked."""
    try:
        payload = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep, or an int too long
        raise InvalidDesign(f"cannot parse JSON: {exc}") from exc
    try:
        header = payload["header"]
        fmeta = header["field"]
        fields = {name: parse(header[key]) for key, (name, parse) in _HEADER.items()}
        nodes = tuple(map(tuple, payload["nodes"]))
        field_meta = FieldMeta(
            p=_int(fmeta["p"]), m=_int(fmeta["m"]),
            modulus=tuple(map(_int, fmeta["modulus"])), primitive=_int(fmeta["primitive"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDesign(f"malformed design payload: {exc}") from exc
    return StorageDesign(**fields, nodes=nodes, field_meta=field_meta)


def _validate(sd: StorageDesign) -> None:
    """from_json's second stage, the row checks; chunk ids are
    range-checked as _replica_defect builds x_neighbors."""
    for g, row in enumerate(sd.nodes):
        if len(row) != sd.l:
            raise InvalidDesign(f"node {g} has {len(row)} slots, expected {sd.l}")
        types = set(map(type, row))
        if not types <= {int, type(None)}:
            raise InvalidDesign(f"node {g} has a slot that is neither an integer nor null")
        present = [c for c in row if c is not None] if type(None) in types else row
        if not all(map(lt, present, present[1:])):  # strict ascent: no repeat, in order
            if len(set(present)) != len(present):
                raise InvalidDesign(f"node {g} repeats a chunk id")
            raise InvalidDesign(f"node {g} does not list its chunk ids in ascending order")
    bad = _replica_defect(sd)
    if bad is not None:
        raise InvalidDesign(f"chunk {bad[0]} has {bad[1]} replicas, expected {sd.k}")


def to_csv(sd: StorageDesign) -> str:
    """One row per node: node id followed by its slots (blank = empty)."""
    lines = []
    for g, row in enumerate(sd.nodes):
        cells = [str(g)] + ["" if c is None else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
