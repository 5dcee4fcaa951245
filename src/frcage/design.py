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
from bisect import bisect_left
from collections import namedtuple
from itertools import chain
from operator import itemgetter

from .cage import (
    CONSTRUCTION,
    SCHEMA_VERSION,
    FieldMeta,
    StorageDesign,
    _check_edge_cap,
    _check_rows,
    _sketch,
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


class RepairPlan(namedtuple("RepairPlan", "failed_node assignments")):
    """One helper per lost chunk; helpers are pairwise distinct."""

    __slots__ = ()


def chunk_locations(sd: StorageDesign) -> tuple[tuple[int, ...], ...]:
    """For every chunk id, the ascending list of nodes storing it
    (empty for chunks blanked by partial fill): the design's
    x_neighbors, recorded by from_json or else built by cage._index on
    first use.  verify and the DOT export read it; fill, repair and the
    CSV export do not."""
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
    count, else NotCanonical.  A table made by creation or a load has
    had its header and rows checked; the CLI's parse checks only the
    header, and its rows are named here."""
    _require_canonical(old)
    if not old.is_complete:
        raise NotCanonical("partially filled designs cannot be expanded")
    _check_edge_cap(old.q, old.n + 1, max_edges)
    new = build_scaled_cage(old.q, old.n + 1, max_edges=max_edges)
    # == alone would take True or 1.0 for chunk 1
    if (set(map(type, chain.from_iterable(old.nodes))) != {int}
            or old.nodes != tuple(row[:old.l] for row in new.nodes[:old.v])):
        _check_rows(old)  # the row checks run only to name why the table differs
        raise NotCanonical(
            f"design does not match the canonical (q={old.q}, n={old.n}) construction"
        )
    return new


def partial_fill(full: StorageDesign, u_tilde: int) -> StorageDesign:
    """Blank every slot holding a chunk id >= u_tilde.

    Valid u_tilde lie strictly above the previous iteration's chunk
    count and at most at this iteration's; slot positions are kept so
    chunks can be filled in later without moving anything.  Tables this
    library did not build raise NotCanonical.  The result's rows are not
    checked again: prefixes of checked rows pass every row check.
    """
    _require_canonical(full)
    if not full.is_complete:
        raise InvalidDesign("partial_fill expects the full (q, n) design")
    u_prev = chunks_per_iteration(full.q, full.n - 1)
    if type(u_tilde) is not int or not u_prev < u_tilde <= full.u:
        raise OutOfRange(f"u_tilde must be an integer in ({u_prev}, {full.u}], got {u_tilde!r}")
    # the ids kept in an ascending row are a prefix, so one bisect finds its end
    nodes = tuple(row[:i] + (None,) * (len(row) - i)
                  for row in full.nodes for i in [bisect_left(row, u_tilde)])
    return _sketch(**{**full._asdict(), "nodes": nodes})


def repair_plan(sd: StorageDesign, failed: int) -> RepairPlan:
    """Pick one distinct helper node per chunk of the failed node: the
    failed node's successor on the chunk's ascending holder ring (the
    next larger holder, else the smallest).

    The rows are scanned cyclically from failed + 1 until every lost
    chunk has a helper, the first row holding it; no location index is
    read.

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
    nodes = sd.nodes
    lost = [c for c in nodes[failed] if c is not None]
    need, found = set(lost), {}
    for g in chain(range(failed + 1, sd.v), range(failed)):
        if not need:
            break
        hit = need.intersection(nodes[g])
        if hit:
            need -= hit
            found.update(dict.fromkeys(hit, g))
    assignments, used = [], set()
    for chunk in lost:
        helper = found.get(chunk)
        if helper is None:
            raise NoSurvivingReplica(f"chunk {chunk} has no replica outside node {failed}")
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


def check_partial_invariants(sd: StorageDesign):
    """(ok, detail) for possibly partially-filled tables, stopping at the
    first defect: nodes a < b share chunks c0 < c ("overlap":
    (a, b, c0, c)), or the first blank chunk lies below a present one
    ("blank_gap": (blank, present)).  detail is empty when ok.  A
    present chunk without k replicas ("replicas": (chunk, count)) is
    refused where a table is made, so that witness names none."""
    locs = chunk_locations(sd)
    bad = _replica_defect(sd)
    if bad is not None:
        return False, {"replicas": bad}
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

# JSON header key -> StorageDesign field; "field" holds field_meta._asdict() next to them.
_HEADER = {"version": "version", "construction": "construction", "q": "q", "n": "n",
           "k": "k", "l": "l", "num_nodes": "v", "num_chunks": "u"}


def to_json(sd: StorageDesign) -> str:
    """Canonical JSON: header plus node rows, empty slots as null; the
    text of json.dumps(payload, sort_keys=True, separators=(",", ":"))
    and a newline."""
    header = {key: getattr(sd, name) for key, name in _HEADER.items()}
    header["field"] = sd.field_meta._asdict()
    # Each id is written k times.  From k = 9 its one string (about 56 bytes) costs less
    # than the k slots of text that json.dumps would format one by one (5 to 6.5 bytes each).
    if sd.k < 9 or not sd.v or not sd.is_complete:
        payload = {"header": header, "nodes": sd.nodes}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    dec = list(map(str, range(sd.u)))
    rows = [",".join(itemgetter(*row)(dec) if len(row) > 1 else map(dec.__getitem__, row))
            for row in sd.nodes]  # itemgetter of one id gives a bare str, of none raises
    del dec
    # the ends ride on the first and last rows, so the join makes the one full-size copy
    head = json.dumps(header, sort_keys=True, separators=(",", ":"))
    rows[0] = f'{{"header":{head},"nodes":[[{rows[0]}'
    rows[-1] += "]]}\n"
    return "],[".join(rows)


def from_json(text: str | bytes) -> StorageDesign:
    """The indexed load of a design, text or UTF-8 bytes, for verify and
    the DOT export: _parse, the row checks that record sd.x_neighbors
    (cage._check_rows), then the replica counts read from that index.
    Raises InvalidDesign, in creation's words."""
    sd = _parse(text)
    _check_rows(sd, index=True)
    bad = _replica_defect(sd)
    if bad is not None:
        raise InvalidDesign(f"chunk {bad[0]} has {bad[1]} replicas, expected {sd.k}")
    return sd


def _parse(text: str | bytes) -> StorageDesign:
    """Every load's first stage: the JSON and creation's header checks
    (cage._check_header); the rows are not checked."""
    try:
        payload = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep, or an int too long
        raise InvalidDesign(f"cannot parse JSON: {exc}") from exc
    try:
        header = payload["header"]
        fmeta = header["field"]
        fields = {name: header[key] for key, name in _HEADER.items()}
        nodes = tuple(map(tuple, payload["nodes"]))
        field_meta = FieldMeta(fmeta["p"], fmeta["m"], tuple(fmeta["modulus"]), fmeta["primitive"])
    except (KeyError, TypeError) as exc:
        raise InvalidDesign(f"malformed design payload: {exc}") from exc
    return _sketch(**fields, nodes=nodes, field_meta=field_meta)


def to_csv(sd: StorageDesign) -> str:
    """One row per node: node id followed by its slots (blank = empty)."""
    lines = [",".join([str(g), *("" if c is None else str(c) for c in row)])
             for g, row in enumerate(sd.nodes)]
    return "\n".join(lines) + "\n"
