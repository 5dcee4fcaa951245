"""Girth-6 bipartite cages, stored as node/chunk tables.

A design is one bipartite graph (X, Y) of girth 6, kept as a table
read from the Y side: Y vertices are storage nodes, X vertices are data
chunks, and nodes[g] lists the chunks of node g in ascending id order.
Every chunk has k = q+1 replicas and every node l = p_n(q) slots.
Vertex counts meet the girth-6 lower bounds with equality, so the
chunks' holder sets form a Steiner system S(2, q+1, p_{n+1}(q)).  The
X side (x_neighbors, chunk -> nodes) is the table's transpose.

Construction is a layered expansion, iterated from a one-chunk seed:

  * one root Y vertex (id 0) linked to every layer-1 X vertex x_j,
  * q fresh layer-2 Y vertices per x_j, with ids 1 + j*q + m,
  * for each block {g_0 < ... < g_q} of the previous iteration
    (the location sets of its chunks), q**2 fresh layer-3 X vertices
    x̂(s, i) in ascending (s, i) order, the rows of mols.group_columns.
    x̂(s, i) links to layer-2 vertex (g_0, m), where e_m = e_s - e_i,
    and for each j < q to layer-2 vertex (g_{j+1}, pos(e_i + e_m * e_j)),
    where pos(a) is a's position in GF(q)'s element sequence; these
    positions are the cells L(m)[i][j] of its orthogonal squares.

Each iteration appends; (q, n-1) is a prefix of (q, n).  Every X
vertex of iteration n-1 reappears in iteration n with the same
neighbours, so iteration n emits only the new ones: the layer-1
vertices x_j for p_{n-1}(q) <= j < p_n(q), then, in one pass, the
layer-3 groups of the blocks new since iteration n-1 (chunk ids >=
u_{n-2}) in sorted block order.  Growing n renumbers or moves nothing.

The build deals each round's ids straight into the node rows: block
member g_j gives child c (node 1 + g_j*q + c) the group rows whose
column j reads c, in the ascending order of mols.column_orders.  Only
rounds whose blocks drive a next one make chunk tuples (the X side).
"""

from __future__ import annotations

import os
from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from itertools import chain, tee
from operator import add, itemgetter, lt

from .errors import InvalidDesign, InvalidParameter, NotPrimePower, ResourceLimit
from .gf import Field, _check_q, field_new
from .mols import column_orders, group_columns

__all__ = [
    "SCHEMA_VERSION",
    "CONSTRUCTION",
    "FieldMeta",
    "StorageDesign",
    "BlockCollection",
    "p_n",
    "chunks_per_iteration",
    "build_scaled_cage",
    "to_dot",
    "DEFAULT_MAX_EDGES",
]

SCHEMA_VERSION = "1"
CONSTRUCTION = "layered-mols-expansion"
DEFAULT_MAX_EDGES = 1_000_000
MAX_EDGES_ENV = "FRC_MAX_EDGES"


def p_n(q: int, n: int) -> int:
    """q**n + q**(n-1) + ... + q + 1, with p_0 = 1.  A q or n that is
    not an int (bool included) raises InvalidParameter."""
    if type(q) is not int or type(n) is not int:
        raise InvalidParameter(f"q and n must be integers, got q={q!r}, n={n!r}")
    if q < 2:
        raise InvalidParameter(f"q must be >= 2, got {q}")
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    return (q ** (n + 1) - 1) // (q - 1)


def chunks_per_iteration(q: int, n: int) -> int:
    """Total chunk count u at iteration n (u = 1 at n = 0)."""
    return p_n(q, n) * p_n(q, n + 1) // (q + 1)


class FieldMeta(namedtuple("FieldMeta", "p m modulus primitive")):
    __slots__ = ()

    @classmethod
    def of(cls, f: Field) -> "FieldMeta":
        return cls(p=f.p, m=f.m, modulus=f.modulus, primitive=f.alpha)


# Every canonical table checks its field metadata when it is created,
# so a construction, a load and each replace share one GF(q) build
# (0.04 s at q = 256).  A process uses one q or a few.
@lru_cache(maxsize=8)
def _field(q: int) -> Field:
    return field_new(q)


class StorageDesign(namedtuple(
    "StorageDesign", "q n k l v u nodes field_meta version construction",
    defaults=(SCHEMA_VERSION, CONSTRUCTION),
)):
    """A design: header plus node rows.  nodes[g] lists the chunk ids of
    node g; None marks an empty slot left by partial fill.

    A frozen tuple.  Creating one (also by _replace) checks it and raises
    InvalidDesign in a load's words: its header in O(v) (_check_header),
    then its rows in O(edges) (_check_rows), which records is_complete.
    So every slot is an int or None, every row's ids ascend strictly and
    lie in [0, u), and every present chunk has exactly k replicas."""

    def __init__(self, *args, **kwargs) -> None:
        _check_header(self)
        _check_rows(self)

    @classmethod
    def _make(cls, iterable):  # so _replace checks the table too
        return cls(*iterable)

    def __setattr__(self, name, value):  # cached values are written to __dict__ directly
        raise AttributeError(f"cannot assign to {name!r}: a StorageDesign is frozen")

    @cached_property
    def is_complete(self) -> bool:
        return not any(None in row for row in self.nodes)

    @cached_property
    def x_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """x_neighbors[c] lists the nodes holding chunk c, ascending
        (empty for a chunk blanked by partial fill).  Recorded by from_json,
        else built by _index on first use; kept for the life of the design."""
        nodes = self.nodes
        return _index(nodes if self.is_complete else
                      [[c for c in r if c is not None] for r in nodes], self.u)


def _sketch(**fields) -> StorageDesign:
    """A table whose header is checked and whose rows are not: for rows
    that are right by construction or that the caller checks next."""
    sd = StorageDesign.__new__(StorageDesign, **fields)
    _check_header(sd)
    return sd


def _check_ids(rows, u: int) -> int:
    """The largest id of blank-free int rows that ascend, or -1 if there
    is none.  Ids are range-checked by each row's first and last entry;
    the first row holding an id outside [0, u) raises InvalidDesign."""
    full = list(filter(None, rows))
    lo = min(map(itemgetter(0), full), default=0)
    hi = max(map(itemgetter(-1), full), default=-1)
    if lo < 0 or hi >= u:
        g = next(g for g, r in enumerate(rows) if r and (r[0] < 0 or r[-1] >= u))
        raise InvalidDesign(f"row {g} holds an id out of range [0, {u})")
    return hi


def _index(rows, u: int) -> tuple[tuple[int, ...], ...]:
    """x_neighbors of blank-free int rows that ascend: out[c] lists the
    rows holding c, ascending.  Range-checked by _check_ids; ids above
    the largest present one are padded with ()."""
    hi = _check_ids(rows, u)
    out: list[list[int]] = [[] for _ in range(hi + 1)]
    for g, row in enumerate(rows):
        for c in row:
            out[c].append(g)
    return tuple(map(tuple, out)) + ((),) * (u - hi - 1)


_SLOT_TYPES = {int, type(None)}


def _check_rows(sd: StorageDesign, index: bool = False) -> None:
    """The row checks of creation and of both loads, which record
    sd.is_complete.  Each row's length, slot types and order come first:
    a slot must be exactly an int or None, since True and 1.0 equal
    chunk 1 but are no chunk id and "1" and [1] index nothing.  Then,
    from the blank-free rows, each row's first and last id (_check_ids);
    then the replica counts, by a Counter.  With index (from_json), they
    record sd.x_neighbors by _index instead and leave the replica counts
    to the caller."""
    rows = []
    for g, row in enumerate(sd.nodes):
        if len(row) != sd.l:
            raise InvalidDesign(f"node {g} has {len(row)} slots, expected {sd.l}")
        types = set(map(type, row))
        if not types <= _SLOT_TYPES:
            raise InvalidDesign(f"node {g} has a slot that is neither an integer nor null")
        present = [c for c in row if c is not None] if type(None) in types else row
        if not all(map(lt, present, present[1:])):  # strict ascent: no repeat, in order
            if len(set(present)) != len(present):
                raise InvalidDesign(f"node {g} repeats a chunk id")
            raise InvalidDesign(f"node {g} does not list its chunk ids in ascending order")
        rows.append(present)
    sd.__dict__["is_complete"] = sum(map(len, rows)) == sd.v * sd.l
    if index:
        sd.__dict__["x_neighbors"] = _index(rows, sd.u)
        return
    _check_ids(rows, sd.u)
    counts = Counter(chain.from_iterable(rows))
    if not set(counts.values()) <= {sd.k}:
        c, m = min((c, m) for c, m in counts.items() if m != sd.k)
        raise InvalidDesign(f"chunk {c} has {m} replicas, expected {sd.k}")


def _check_header(sd: StorageDesign) -> None:
    """Creation's checks in O(v): every field, field metadata member and
    row container has exactly its type (json.dumps writes 7.0 and True as
    7.0 and true), and there are v rows.  A canonical header is fixed by
    (q, n): k = q+1, l = p_n(q), v = p_{n+1}(q),
    u = chunks_per_iteration(q, n), n >= 1 and
    field_meta = FieldMeta.of(field_new(q)); any other must have
    0 <= u <= v*l."""
    fm, strs = sd.field_meta, (sd.version, sd.construction)
    if type(fm) is not FieldMeta or type(fm.modulus) is not tuple:
        raise InvalidDesign(f"malformed design payload: expected field metadata, got {fm!r}")
    ints = sd.q, sd.n, sd.k, sd.l, sd.v, sd.u, fm.p, fm.m, *fm.modulus, fm.primitive
    for xs, kind, name in (strs, str, "a string"), (ints, int, "an integer"):
        for x in xs:
            if type(x) is not kind:
                raise InvalidDesign(f"malformed design payload: expected {name}, got {x!r}")
    if type(sd.nodes) is not tuple or not set(map(type, sd.nodes)) <= {tuple}:
        raise InvalidDesign("malformed design payload: the nodes are no tuple of row tuples")
    q, n, v = sd.q, sd.n, sd.v
    if len(sd.nodes) != v:
        raise InvalidDesign(f"expected {v} nodes, found {len(sd.nodes)}")
    if sd.construction != CONSTRUCTION:
        if not 0 <= sd.u <= v * sd.l:  # bounds x_neighbors
            raise InvalidDesign(f"num_chunks={sd.u} is outside [0, num_nodes * l]")
        return
    # p_{n+1}(q) exceeds both q and 2**(n+1), so these bounds keep p_n
    # and GF(q) small for any header that could match the row count.
    if not (2 <= q < v and 1 <= n < v.bit_length()):
        raise InvalidDesign(f"(q={q}, n={n}) cannot describe {v} nodes")
    want = (q + 1, p_n(q, n), p_n(q, n + 1), chunks_per_iteration(q, n))
    if (sd.k, sd.l, v, sd.u) != want:
        raise InvalidDesign(f"(q={q}, n={n}) gives (k, l, num_nodes, num_chunks) = {want}")
    try:
        field = FieldMeta.of(_field(q))
    except NotPrimePower as exc:
        raise InvalidDesign(f"header q={q} is not a prime power") from exc
    if sd.field_meta != field:
        raise InvalidDesign(f"field metadata does not match GF({q})")


BlockCollection = namedtuple("BlockCollection", "num_elements blocks")


def _resolve_max_edges(max_edges: int | None) -> int:
    # a cap below 1 would refuse every build, yet square to a pair budget in _cover_walk
    name, cap = "max_edges", max_edges
    if max_edges is None:
        name, cap = MAX_EDGES_ENV, os.environ.get(MAX_EDGES_ENV, DEFAULT_MAX_EDGES)
        try:
            cap = int(cap)
        except ValueError:
            raise InvalidParameter(f"{MAX_EDGES_ENV} must be an integer, got {cap!r}")
    elif type(max_edges) is not int:
        raise InvalidParameter(f"max_edges must be an integer or None, got {max_edges!r}")
    if cap < 1:
        raise InvalidParameter(f"{name} must be at least 1")
    return cap


def _decimal(x: int) -> str:
    """x in decimal, or a lower bound where x passes Python's int-to-str limit."""
    try:
        return str(x)
    except ValueError:
        return f"at least 2**{x.bit_length() - 1}"


def _check_edge_cap(q: int, n: int, max_edges: int | None) -> None:
    """ResourceLimit when iteration i <= n needs u*k = p_{i+1}(q) * p_i(q) edges over the cap."""
    cap = _resolve_max_edges(max_edges)
    for i in range(1, n + 1):
        edges = p_n(q, i + 1) * p_n(q, i)
        if edges > cap:
            raise ResourceLimit(f"(q={q}, n={i}) needs {_decimal(edges)} edges, cap is {cap}")


def build_scaled_cage(q: int, n: int, max_edges: int | None = None) -> StorageDesign:
    """The (q, n) table: k = q+1, l = p_n(q), v = p_{n+1}(q) nodes and
    u = p_{n+1}(q) * p_n(q) / (q+1) chunks.

    Errors are checked in this order: InvalidParameter for an n that
    is not an int (bool included) or is < 1, NotPrimePower for such a q
    or q < 2, InvalidParameter for an edge cap (argument, FRC_MAX_EDGES
    env var, or the built-in default, in that precedence) that is not
    an int or is below 1 (the argument may be None), ResourceLimit when
    the result would exceed the cap, then NotPrimePower for any other q
    that is not a prime power.  The cap is checked in closed form, so an
    over-cap q is refused before it is factored.
    """
    if type(n) is not int:
        raise InvalidParameter(f"n must be an integer, got {n!r}")
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    _check_q(q)
    _check_edge_cap(q, n, max_edges)
    f = _field(q)
    l = p_n(q, n)
    v = 1 + q * l
    # Rows hold one shared int per id (u >= v): kids[g] holds node g's children 1 + g*q + c.
    ids = list(range(chunks_per_iteration(q, n)))
    kids = [ids[1 + g * q : 1 + g * q + q] for g in range(p_n(q, n - 1))]
    # orders[j] deals a block's ids to member g_j's children, child c's a-th at a*q + c, and
    # shares splits a hand among the children; cols[j] picks column j of every group row.
    orders = [itemgetter(*o) for o in column_orders(f)]
    shares = itemgetter(*[slice(c, None, q) for c in range(q)])
    cols = [itemgetter(*c) for c in group_columns(f)] if n > 1 else []
    x = [(0, *kids[0])]  # n = 0: one chunk on the root and its q children
    root, rows = ids[:1], [ids[:1] for _ in range(q)]  # rows[t] is node 1 + t's
    driving = 0  # first chunk id of the previous round, whose blocks drive this one
    for i in range(1, n + 1):
        blocks = sorted(x[driving:])
        driving = base = len(x)
        root += ids[base : base + q**i]  # the layer-1 chunks of nodes p_{i-1} .. p_i - 1
        rows += [[c] for c in root[-q**i :] for _ in range(q)]
        # block t's group row r is chunk start + t*q**2 + r; its members deal them in turn
        start, end = base + q**i, base + q**i + len(blocks) * q * q
        per_block = zip(*[ids[r:end:q * q] for r in range(start, start + q * q)])
        dealt = chain.from_iterable(zip(*map(map, orders, tee(per_block, q + 1))))
        hands = [[] for _ in range(p_n(q, i))]  # any() runs every extend, which returns None
        any(map(list.extend, map(hands.__getitem__, chain.from_iterable(blocks)), dealt))
        if i == n:  # the last round drives none; its shares go straight into the tuples below
            break
        any(map(list.extend, rows, chain.from_iterable(map(shares, hands))))
        x.extend((0, *kids[j]) for j in range(p_n(q, i - 1), p_n(q, i)))
        # stream j reads column j once per distinct g_j ((2,8)'s round 7: 24,384 columns, 381
        # (j, g_j)); a block ascends, and so do kids[g]'s ids with g, so each tuple ascends
        streams = [map(dict(zip(s, map(col, map(kids.__getitem__, s)))).__getitem__, gs)
                   for col, gs in zip(cols, zip(*blocks)) for s in [set(gs)]]
        x.extend(chain.from_iterable(map(zip, *streams)))
    del x, blocks, orders, cols, per_block, dealt  # free them all before the rows are made
    nodes = (tuple(root), *map(tuple, map(add, rows, chain.from_iterable(map(shares, hands)))))
    # each round deals its ids in ascending order, and no block repeats a node
    sd = _sketch(q=q, n=n, k=q + 1, l=l, v=v, u=len(ids), nodes=nodes, field_meta=FieldMeta.of(f))
    sd.__dict__["is_complete"] = True
    return sd


def to_dot(d: StorageDesign, name: str = "design") -> str:
    """Graphviz rendering; Y vertices (nodes) are y<i>, X vertices
    (chunks) x<j>.  A partially filled table raises InvalidDesign.

    Layers are derived from ids and root adjacency: the root Y vertex
    (id 0) is layer 0, other Y vertices layer 2, X vertices linked to
    the root layer 1, the rest 3.
    """
    if not d.is_complete:
        raise InvalidDesign("cannot draw a partially filled design as a graph")
    lines = [f"graph {name} {{"]
    for g in range(d.v):
        lines.append(f'  y{g} [shape=circle, layer="{0 if g == 0 else 2}"];')
    for c, ys in enumerate(d.x_neighbors):
        lines.append(f'  x{c} [shape=box, layer="{1 if 0 in ys else 3}"];')
    for c, ys in enumerate(d.x_neighbors):
        for g in ys:
            lines.append(f"  y{g} -- x{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
