"""Girth-6 bipartite cage constructions.

Designs are bipartite graphs (X, Y) where every X vertex has degree
k = q+1 and every Y vertex has degree l = p_n(q).  Vertex counts meet
the girth-6 lower bounds with equality, so the X-side blocks form a
Steiner system S(2, q+1, p_{n+1}(q)).

Construction is a layered expansion, iterated from a one-chunk seed:

  * one root Y vertex (id 0) linked to every layer-1 X vertex x_j,
  * q fresh layer-2 Y vertices per x_j, with ids 1 + j*q + m,
  * for each block {g_0 < ... < g_q} of the previous iteration
    (the location sets of its chunks), q**2 fresh layer-3 X vertices
    x̂(m, i) linked to layer-2 vertex (g_0, m) and, for each later
    block member g_{j+1}, to layer-2 vertex (g_{j+1}, L(m)[i][j]),
    where L(m) are the orthogonal squares of GF(q).

Each iteration appends; (q, n-1) is a prefix of (q, n).  Every X
vertex of iteration n-1 reappears in iteration n with the same
neighbours, so iteration n emits only the new ones: the layer-1
vertices x_j for p_{n-1}(q) <= j < p_n(q), then the layer-3 groups of
the blocks that are new since iteration n-1 (chunk ids >= u_{n-2}),
in sorted block order.  Growing n never renumbers or moves anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import IndexOutOfRange, InvalidParameter, NotPrimePower, ResourceLimit
from .gf import Field, field_new
from .mols import MolsSet, generate_mols

__all__ = [
    "BipartiteDesign",
    "BlockCollection",
    "p_n",
    "build_scaled_cage",
    "blocks_from_graph",
    "b_h_subgraph",
    "to_dot",
    "DEFAULT_MAX_EDGES",
]

DEFAULT_MAX_EDGES = 1_000_000
MAX_EDGES_ENV = "FRC_MAX_EDGES"


def p_n(q: int, n: int) -> int:
    """q**n + q**(n-1) + ... + q + 1, with p_0 = 1."""
    if q < 2:
        raise InvalidParameter(f"q must be >= 2, got {q}")
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    return (q ** (n + 1) - 1) // (q - 1)


@dataclass(frozen=True)
class BipartiteDesign:
    """A bipartite design: x_neighbors[c] lists the Y ids adjacent to
    X vertex c, ascending.

    No layer structure is stored.  A constructed design's layers are
    read off x_neighbors (see b_h_subgraph and to_dot), so a design
    rebuilt from its storage table carries the same information.  gf
    is the field a construction was built over (None for hand-built or
    rebuilt designs); it takes no part in equality.
    """

    q: int | None
    n: int | None
    k: int
    l: int
    u: int
    v: int
    x_neighbors: tuple[tuple[int, ...], ...]
    gf: Field | None = field(default=None, compare=False, repr=False)

    def y_neighbor_lists(self) -> list[tuple[int, ...]]:
        """Adjacency of each Y vertex (ascending X ids), computed fresh."""
        nbrs: list[list[int]] = [[] for _ in range(self.v)]
        for c, ys in enumerate(self.x_neighbors):
            for g in ys:
                nbrs[g].append(c)
        return [tuple(row) for row in nbrs]


@dataclass(frozen=True)
class BlockCollection:
    num_elements: int
    block_size: int
    blocks: tuple[tuple[int, ...], ...]


def _resolve_max_edges(max_edges: int | None) -> int:
    if max_edges is not None:
        return max_edges
    env = os.environ.get(MAX_EDGES_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParameter(f"{MAX_EDGES_ENV} must be an integer, got {env!r}")
    return DEFAULT_MAX_EDGES


def _square_order(mols: MolsSet) -> list[tuple[int, int]]:
    """Fixed enumeration of the q**2 (m, i) pairs of one layer-3 group,
    keyed by (column-1 symbol, column-0 symbol) of square m's row i."""
    q = mols.q
    keyed = sorted(
        ((mols.squares[m].cells[i][1], mols.squares[m].cells[i][0]), m, i)
        for m in range(q)
        for i in range(q)
    )
    return [(m, i) for _, m, i in keyed]


def build_scaled_cage(q: int, n: int, max_edges: int | None = None) -> BipartiteDesign:
    """Design with k = q+1, l = p_n(q), |Y| = p_{n+1}(q) and
    |X| = p_{n+1}(q) * p_n(q) / (q+1).

    Errors are checked in this order: InvalidParameter for n < 1,
    NotPrimePower for q < 2, ResourceLimit when the result would
    exceed the edge cap (argument, FRC_MAX_EDGES env var, or the
    built-in default, in that precedence), then NotPrimePower for any
    other q that is not a prime power.  The cap is checked in closed
    form, so an over-cap q is refused before it is factored.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    if q < 2:
        raise NotPrimePower(f"q must be >= 2, got {q}")
    cap = _resolve_max_edges(max_edges)
    # Iteration i has u*k = p_{i+1}(q) * p_i(q) edges, so an over-cap
    # request is refused before q is factored and GF(q) is built.
    for i in range(1, n + 1):
        edges = p_n(q, i + 1) * p_n(q, i)
        if edges > cap:
            raise ResourceLimit(f"(q={q}, n={i}) needs {edges} edges, cap is {cap}")
    f = field_new(q)
    mols = generate_mols(f)
    order = _square_order(mols)
    cells = [sq.cells for sq in mols.squares]
    x = [tuple(range(q + 1))]  # n = 0: one chunk on the root and its q children
    driving = 0  # first chunk id whose block has no layer-3 group yet
    for i in range(1, n + 1):
        u_prev = len(x)
        x.extend(
            (0,) + tuple(range(1 + j * q, 1 + j * q + q))
            for j in range(p_n(q, i - 1), p_n(q, i))
        )
        for blk in sorted(x[driving:u_prev]):
            for m, r in order:
                # blk ascends and ids 1 + g*q + s are grouped by g, so the row ascends
                x.append(tuple(
                    [1 + blk[0] * q + m] + [1 + g * q + s for g, s in zip(blk[1:], cells[m][r])]
                ))
        driving = u_prev
    l = p_n(q, n)
    return BipartiteDesign(
        q=q, n=n, k=q + 1, l=l, u=len(x), v=1 + q * l, x_neighbors=tuple(x), gf=f
    )


def blocks_from_graph(d: BipartiteDesign, side: str) -> BlockCollection:
    """Blocks read off one side: "X" gives each X vertex's Y-neighbors
    (elements are Y ids), "Y" the transpose interpretation."""
    if side == "X":
        return BlockCollection(num_elements=d.v, block_size=d.k, blocks=d.x_neighbors)
    if side == "Y":
        return BlockCollection(
            num_elements=d.u, block_size=d.l, blocks=tuple(d.y_neighbor_lists())
        )
    raise ValueError(f"side must be 'X' or 'Y', got {side!r}")


def b_h_subgraph(d: BipartiteDesign, h: int) -> BipartiteDesign:
    """Subgraph induced by driving block h: the root, the block's
    layer-1 vertices with their layer-2 children, and the block's own
    layer-3 group.  The result has regular-cage parameters.

    Everything is read off x_neighbors, so a design rebuilt from its
    storage table works too.  Block h is chunk h of the (q, n-1)
    prefix, for h < u_{n-1} = p_n(q) * p_{n-1}(q) / (q+1).  Its layer-3
    group is the chunks whose layer-2 parents {(y-1) // q} are exactly
    the block.  The root maps to -1, so no layer-1 row qualifies, and
    blocks are distinct, so no other group's chunk does.  Raises
    ValueError when the group does not have q**2 members, as in a
    tampered design, and when the design is too short for its (q, n).
    """
    if d.n is None or d.n < 2:
        raise ValueError("b_h_subgraph requires a design built with n >= 2")
    q = d.q
    u_prev = p_n(q, d.n) * p_n(q, d.n - 1) // (q + 1)
    if not 0 <= h < u_prev:
        raise IndexOutOfRange(f"h must be in [0, {u_prev}), got {h}")
    if len(d.x_neighbors) < u_prev:
        raise ValueError(f"(q={q}, n={d.n}) needs over {u_prev} chunks, got {len(d.x_neighbors)}")
    block = d.x_neighbors[h]
    members = set(block)
    group = [ys for ys in d.x_neighbors if {(y - 1) // q for y in ys} == members]
    if len(group) != q * q:
        raise ValueError(f"block {h} has {len(group)} layer-3 chunks, expected {q * q}")

    y_map = {0: 0}
    for pos, j in enumerate(block):
        for m in range(q):
            y_map[1 + j * q + m] = 1 + pos * q + m
    x_neighbors = [(0,) + tuple(range(1 + pos * q, 1 + pos * q + q)) for pos in range(len(block))]
    x_neighbors += [tuple(sorted(y_map[y] for y in ys)) for ys in group]
    size = q * q + q + 1
    return BipartiteDesign(
        q=q, n=1, k=q + 1, l=q + 1, u=size, v=size, x_neighbors=tuple(x_neighbors)
    )


def to_dot(d: BipartiteDesign, name: str = "design") -> str:
    """Graphviz rendering; Y vertices are y<i>, X vertices x<j>.

    Layers are derived from ids and root adjacency: the root Y vertex
    (id 0) is layer 0, other Y vertices layer 2, X vertices linked to
    the root layer 1, the rest 3.
    """
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
