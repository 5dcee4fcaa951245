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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter

from .errors import InvalidDesign, InvalidParameter, NotPrimePower, ResourceLimit
from .gf import Field, _check_q, field_new
from .mols import group_columns

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
    """q**n + q**(n-1) + ... + q + 1, with p_0 = 1."""
    if q < 2:
        raise InvalidParameter(f"q must be >= 2, got {q}")
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    return (q ** (n + 1) - 1) // (q - 1)


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


# Every canonical table checks its field metadata when it is created,
# so a construction, a load and each replace share one GF(q) build
# (0.04 s at q = 256).  A process uses one q or a few.
@lru_cache(maxsize=8)
def _field(q: int) -> Field:
    return field_new(q)


@dataclass(frozen=True)
class StorageDesign:
    """A design: header plus node rows.  nodes[g] lists the chunk ids of
    node g; None marks an empty slot left by partial fill.

    Creating one (also by dataclasses.replace) checks the header in
    O(1) and raises InvalidDesign: there must be v rows, a canonical
    header must match (q, n) (see _check_header), and any other must
    have 0 <= u <= v * l.  from_json checks the rows, and building
    x_neighbors checks that every chunk id lies in [0, u).
    """

    q: int
    n: int
    k: int
    l: int
    v: int
    u: int
    nodes: tuple[tuple[int | None, ...], ...]
    field_meta: FieldMeta
    version: str = SCHEMA_VERSION
    construction: str = CONSTRUCTION

    def __post_init__(self) -> None:
        if len(self.nodes) != self.v:
            raise InvalidDesign(f"expected {self.v} nodes, found {len(self.nodes)}")
        if self.construction == CONSTRUCTION:
            _check_header(self)
        elif not 0 <= self.u <= self.v * self.l:  # bounds x_neighbors
            raise InvalidDesign(f"num_chunks={self.u} is outside [0, num_nodes * l]")

    @cached_property
    def is_complete(self) -> bool:
        return not any(None in row for row in self.nodes)

    @cached_property
    def x_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """x_neighbors[c] lists the nodes holding chunk c, ascending
        (empty for a chunk blanked by partial fill).  Built on first use
        and kept for the life of the design; a chunk id outside [0, u)
        raises InvalidDesign."""
        return _transpose(self.nodes, self.u)


def _transpose(rows, size: int) -> tuple[tuple[int, ...], ...]:
    """out[j] lists the indices i of the rows holding j, ascending
    (rows are walked in order); None entries are skipped.  The first
    row holding an entry outside [0, size) raises InvalidDesign."""
    out: list[list[int]] = [[] for _ in range(size)]
    for i, row in enumerate(rows):
        try:
            for j in row:
                if j is not None:
                    if j < 0:
                        raise IndexError
                    out[j].append(i)
        except IndexError:
            raise InvalidDesign(f"row {i} holds an id out of range [0, {size})") from None
    return tuple(map(tuple, out))


def _check_header(sd: StorageDesign) -> None:
    """A canonical header is fixed by (q, n): k = q+1, l = p_n(q),
    v = p_{n+1}(q), u = chunks_per_iteration(q, n), n >= 1 and
    field_meta = FieldMeta.of(field_new(q))."""
    q, n, v = sd.q, sd.n, sd.v
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


@dataclass(frozen=True)
class BlockCollection:
    num_elements: int
    blocks: tuple[tuple[int, ...], ...]


def _resolve_max_edges(max_edges: int | None) -> int:
    if max_edges is not None:
        if type(max_edges) is not int:
            raise InvalidParameter(f"max_edges must be an integer or None, got {max_edges!r}")
        return max_edges
    env = os.environ.get(MAX_EDGES_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParameter(f"{MAX_EDGES_ENV} must be an integer, got {env!r}")
    return DEFAULT_MAX_EDGES


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
    or q < 2, InvalidParameter for a max_edges that is neither None nor
    an int, ResourceLimit when the result would exceed the edge cap
    (argument, FRC_MAX_EDGES env var, or the built-in default, in that
    precedence), then NotPrimePower for any other q that is not a prime
    power.  The cap is checked in closed form, so an over-cap q is
    refused before it is factored.
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
    # Rows look up one shared int per id: kids[g] holds node g's children 1 + g*q + s,
    # and block {g_0 < ... < g_q} gives one chunk per group row, reading kids[g_j] at column j.
    ids = list(range(v))
    kids = [ids[1 + g * q : 1 + g * q + q] for g in range(l)]
    # cols[j] picks column j of every group row from block member g_j's children.  Stream j
    # below reads each block's g_j children at cols[j], and map(zip) makes one group per block.
    cols = [itemgetter(*c) for c in group_columns(f)]
    x = [(0, *kids[0])]  # n = 0: one chunk on the root and its q children
    driving = 0  # first chunk id whose block has no layer-3 group yet
    for i in range(1, n + 1):
        blocks = sorted(x[driving:])
        driving = len(x)
        x.extend((0, *kids[j]) for j in range(p_n(q, i - 1), p_n(q, i)))
        # a block ascends and kids[g]'s ids lie above those of any smaller g, so each row ascends
        members = (map(kids.__getitem__, map(itemgetter(j), blocks)) for j in range(q + 1))
        x.extend(chain.from_iterable(map(zip, *map(map, cols, members))))
    del blocks, cols  # q**3 symbols: free them before the transpose needs room
    return StorageDesign(
        q=q, n=n, k=q + 1, l=l, v=v, u=len(x), nodes=_transpose(x, v), field_meta=FieldMeta.of(f)
    )


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
