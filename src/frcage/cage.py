"""Girth-6 bipartite cage constructions.

Designs are bipartite graphs (X, Y) where every X vertex has degree
k = q+1 and every Y vertex has degree l = p_n(q).  Vertex counts meet
the girth-6 lower bounds with equality, so the X-side blocks form a
Steiner system S(2, q+1, p_{n+1}(q)).

Construction is a layered expansion, iterated from a trivial seed:

  * one root Y vertex (id 0) linked to every layer-1 X vertex x_j,
  * q fresh layer-2 Y vertices per x_j, with ids 1 + j*q + m,
  * for each block {g_0 < ... < g_q} of the previous iteration
    (the location sets of its chunks), q**2 fresh layer-3 X vertices
    x̂(m, i) linked to layer-2 vertex (g_0, m) and, for each later
    block member g_{j+1}, to layer-2 vertex (g_{j+1}, L(m)[i][j]),
    where L(m) are the orthogonal squares of GF(q).

Vertex ids are assigned so that growing n never renumbers anything:
X vertices that also exist in the previous iteration keep their old
ids (layer-1 vertices below the old layer-1 count, and the layer-3
groups driven by blocks already present one iteration earlier), and
genuinely new vertices take fresh ids above the old count.  This makes
the n-1 design literally a prefix of the n design.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import IndexOutOfRange, InvalidParameter, ResourceLimit
from .gf import Field, factor_prime_power, field_new
from .mols import MolsSet, generate_mols

__all__ = [
    "BipartiteDesign",
    "BlockCollection",
    "p_n",
    "build_regular_cage",
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
    """A constructed design plus the layer structure it was built from.

    x_neighbors[c] lists the Y ids adjacent to X vertex c, ascending.
    y_tags / x_tags hold per-vertex layer coordinates: (0,) for the
    root Y vertex, (2, j, m) for layer-2, (1, j) for layer-1 X and
    (3, h, m, i) for layer-3 X, where h is the id of the previous
    iteration's chunk whose locations formed the driving block.
    input_blocks[h] is that block (empty tuple of blocks when n = 0 or
    for hand-built designs).  Tags may be None for designs rebuilt
    from serialized storage tables.  gf is the field a construction
    was built over (None for hand-built or rebuilt designs); it takes
    no part in equality.
    """

    q: int | None
    n: int | None
    k: int
    l: int
    u: int
    v: int
    x_neighbors: tuple[tuple[int, ...], ...]
    y_tags: tuple[tuple, ...] | None = None
    x_tags: tuple[tuple, ...] | None = None
    input_blocks: tuple[tuple[int, ...], ...] = field(default=())
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


def _seed_design(q: int) -> BipartiteDesign:
    """n = 0 seed: one chunk replicated on q+1 nodes."""
    return BipartiteDesign(
        q=q,
        n=0,
        k=q + 1,
        l=1,
        u=1,
        v=q + 1,
        x_neighbors=(tuple(range(q + 1)),),
        y_tags=((0,),) + tuple((2, 0, m) for m in range(q)),
        x_tags=((1, 0),),
        input_blocks=(),
    )


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


def _expand_design(f: Field, mols: MolsSet, prev: BipartiteDesign) -> BipartiteDesign:
    q = f.q
    k = q + 1
    l_new = prev.v
    v_new = 1 + q * l_new
    u_new = l_new + q * q * prev.u

    # Previous chunk locations become the driving blocks, processed in
    # lexicographic order of the sorted location tuples.
    blocks = sorted((prev.x_neighbors[c], c) for c in range(prev.u))

    prev_layer1: dict[int, int] = {}
    prev_layer3: dict[tuple[int, int, int], int] = {}
    for cid, tag in enumerate(prev.x_tags):
        if tag[0] == 1:
            prev_layer1[tag[1]] = cid
        else:
            prev_layer3[(tag[1], tag[2], tag[3])] = cid
    inherited_sources = len(prev.input_blocks)  # chunk count two iterations back

    entries: list[tuple[int, tuple[int, ...], tuple]] = []
    next_id = prev.u
    for j in range(l_new):
        nbrs = (0,) + tuple(1 + j * q + m for m in range(q))
        if j < prev.l:
            cid = prev_layer1[j]
        else:
            cid = next_id
            next_id += 1
        entries.append((cid, nbrs, (1, j)))

    order = _square_order(mols)
    cells = [mols.squares[m].cells for m in range(q)]
    for blk, src in blocks:
        inherited = src < inherited_sources
        for m, i in order:
            # blk ascends and ids 1 + g*q + s are grouped by g, so nbrs ascends
            nbrs = tuple(
                [1 + blk[0] * q + m] + [1 + g * q + s for g, s in zip(blk[1:], cells[m][i])]
            )
            if inherited:
                cid = prev_layer3[(src, m, i)]
            else:
                cid = next_id
                next_id += 1
            entries.append((cid, nbrs, (3, src, m, i)))
    if next_id != u_new:
        raise AssertionError("chunk id assignment out of sync")

    x_neighbors: list[tuple[int, ...] | None] = [None] * u_new
    x_tags: list[tuple | None] = [None] * u_new
    for cid, nbrs, tag in entries:
        if x_neighbors[cid] is not None:
            raise AssertionError(f"duplicate chunk id {cid}")
        x_neighbors[cid] = nbrs
        x_tags[cid] = tag

    y_tags = ((0,),) + tuple((2, j, m) for j in range(l_new) for m in range(q))
    return BipartiteDesign(
        q=q,
        n=prev.n + 1,
        k=k,
        l=l_new,
        u=u_new,
        v=v_new,
        x_neighbors=tuple(x_neighbors),
        y_tags=y_tags,
        x_tags=tuple(x_tags),
        input_blocks=tuple(prev.x_neighbors),
        gf=f,
    )


def build_scaled_cage(q: int, n: int, max_edges: int | None = None) -> BipartiteDesign:
    """Design with k = q+1, l = p_n(q), |Y| = p_{n+1}(q) and
    |X| = p_{n+1}(q) * p_n(q) / (q+1).

    Raises InvalidParameter for n < 1, NotPrimePower for invalid q and
    ResourceLimit when the result would exceed the edge cap (argument,
    FRC_MAX_EDGES env var, or the built-in default, in that
    precedence).
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    cap = _resolve_max_edges(max_edges)
    factor_prime_power(q)
    # Iteration i has u*k = p_{i+1}(q) * p_i(q) edges, so an over-cap
    # request is refused before GF(q) and its squares are built.
    for i in range(1, n + 1):
        edges = p_n(q, i + 1) * p_n(q, i)
        if edges > cap:
            raise ResourceLimit(f"(q={q}, n={i}) needs {edges} edges, cap is {cap}")
    f = field_new(q)
    mols = generate_mols(f)
    d = _seed_design(q)
    for _ in range(n):
        d = _expand_design(f, mols, d)
    return d


def build_regular_cage(q: int, max_edges: int | None = None) -> BipartiteDesign:
    """Equal-degree case: k = l = q+1 with |X| = |Y| = q*q + q + 1."""
    return build_scaled_cage(q, 1, max_edges=max_edges)


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
    layer-3 group.  The result has regular-cage parameters."""
    if d.n is None or d.n < 2:
        raise ValueError("b_h_subgraph requires a design built with n >= 2")
    if d.x_tags is None or d.y_tags is None:
        raise ValueError("design carries no layer structure")
    if not 0 <= h < len(d.input_blocks):
        raise IndexOutOfRange(f"h must be in [0, {len(d.input_blocks)}), got {h}")
    q = d.q
    block = d.input_blocks[h]

    y_old: list[int] = [0]
    for pos, j in enumerate(block):
        y_old.extend(1 + j * q + m for m in range(q))
    y_map = {old: new for new, old in enumerate(y_old)}
    y_tags = ((0,),) + tuple((2, pos, m) for pos in range(len(block)) for m in range(q))

    layer1 = {tag[1]: cid for cid, tag in enumerate(d.x_tags) if tag[0] == 1}
    x_entries: list[tuple[tuple[int, ...], tuple]] = []
    for pos, j in enumerate(block):
        old = layer1[j]
        nbrs = tuple(sorted(y_map[g] for g in d.x_neighbors[old]))
        x_entries.append((nbrs, (1, pos)))
    group = sorted(
        (cid, tag) for cid, tag in enumerate(d.x_tags) if tag[0] == 3 and tag[1] == h
    )
    for cid, tag in group:
        nbrs = tuple(sorted(y_map[g] for g in d.x_neighbors[cid]))
        x_entries.append((nbrs, (3, 0, tag[2], tag[3])))

    size = q * q + q + 1
    return BipartiteDesign(
        q=q,
        n=1,
        k=q + 1,
        l=q + 1,
        u=size,
        v=size,
        x_neighbors=tuple(nbrs for nbrs, _ in x_entries),
        y_tags=y_tags,
        x_tags=tuple(tag for _, tag in x_entries),
        input_blocks=(),
    )


def to_dot(d: BipartiteDesign, name: str = "design") -> str:
    """Graphviz rendering; Y vertices are y<i>, X vertices x<j>.

    Layers are derived from root adjacency, which matches the tags of a
    constructed design: the root Y vertex (id 0) is layer 0, other Y
    vertices layer 2, X vertices linked to the root layer 1, the rest 3.
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
