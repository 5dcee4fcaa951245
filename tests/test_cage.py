"""Cage construction: sizes, golden tables, subgraphs, determinism."""

import tracemalloc

import pytest

from frcage import (
    BlockCollection,
    InvalidDesign,
    InvalidParameter,
    NotPrimePower,
    ResourceLimit,
    build_scaled_cage,
    check_steiner_exact,
    chunks_per_iteration,
    expand,
    from_json,
    p_n,
    partial_fill,
    to_dot,
    to_json,
)
from conftest import GOLDEN_S237, GOLDEN_S2315_T, X_SIDE_RELABEL_Q2
import helpers


def test_p_n_values():
    assert p_n(2, 2) == 7
    assert p_n(2, 3) == 15
    assert p_n(3, 2) == 13
    assert p_n(2, 0) == 1
    assert p_n(5, 1) == 6
    with pytest.raises(ValueError):
        p_n(1, 2)
    with pytest.raises(ValueError):
        p_n(2, -1)


def test_regular_cage_q2_golden():
    d = build_scaled_cage(2, 1)
    assert (d.u, d.v, d.k, d.l) == (7, 7, 3, 3)
    assert [list(r) for r in d.nodes] == GOLDEN_S237
    # the X-side list carries the same system under the documented relabeling
    relabeled = sorted(
        tuple(sorted(X_SIDE_RELABEL_Q2[e] for e in b)) for b in d.x_neighbors
    )
    assert relabeled == sorted(tuple(b) for b in GOLDEN_S237)


def test_regular_cage_q3_sizes():
    d = build_scaled_cage(3, 1)
    assert d.u == d.v == 13
    assert d.k == d.l == 4
    assert all(len(b) == 4 for b in d.x_neighbors)


def test_regular_cage_q4_degrees_and_girth():
    d = build_scaled_cage(4, 1)
    assert d.u == d.v == 21
    assert all(len(b) == 5 for b in d.x_neighbors)
    assert helpers.naive_no_four_cycles(d)


def test_regular_cage_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        build_scaled_cage(6, 1)


def test_scaled_cage_q2_n2_parameters():
    d = build_scaled_cage(2, 2)
    assert (d.v, d.u, d.k, d.l) == (15, 35, 3, 7)


def test_scaled_cage_q3_n2():
    d = build_scaled_cage(3, 2)
    assert d.v == p_n(3, 3) == 40
    assert d.u == 40 * 13 // 4 == 130
    assert helpers.naive_no_four_cycles(build_scaled_cage(2, 2))


def test_scaled_cage_rejects_bad_n():
    with pytest.raises(ValueError):
        build_scaled_cage(2, 0)


def test_build_refuses_non_int_arguments():
    # True would write "n": true, which from_json refuses; 1.0 used to raise a bare TypeError
    for n in (True, False, 1.0, 2.5, "1", None):
        with pytest.raises(InvalidParameter, match="n must be an integer"):
            build_scaled_cage(2, n)
    for q in (True, 2.0, 4.0, "4", None):
        with pytest.raises(NotPrimePower, match="q must be an integer"):
            build_scaled_cage(q, 1)
    for cap in ("x", 1e9, True, 10.0):
        with pytest.raises(InvalidParameter, match="max_edges must be an integer or None"):
            build_scaled_cage(2, 1, max_edges=cap)
    # expand resolves the cap the same way
    with pytest.raises(InvalidParameter, match="max_edges"):
        expand(build_scaled_cage(2, 1), max_edges="x")


def test_resource_limit():
    with pytest.raises(ResourceLimit):
        build_scaled_cage(2, 2, max_edges=50)
    # n=1 fits under the same cap
    assert build_scaled_cage(2, 1, max_edges=50).u == 7


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1)])
def test_blocks_sides_are_mutual_transposes(q, n):
    d = build_scaled_cage(q, n)
    bx = d.x_neighbors
    by = d.nodes
    for x, ys in enumerate(bx):
        for y in ys:
            assert x in by[y]
    for y, xs in enumerate(by):
        for x in xs:
            assert y in bx[x]


def layer1_ids(q, n):
    """Closed-form chunk ids of the layer-1 rows: id 0 (j = 0), then
    the rows j in [p_{i-1}(q), p_i(q)) appended first by iteration i."""
    ids = [0]
    for i in range(1, n + 1):
        u = chunks_per_iteration(q, i - 1)
        ids.extend(range(u, u + p_n(q, i) - p_n(q, i - 1)))
    return ids


def layer1_row(q, j):
    return (0,) + tuple(1 + j * q + m for m in range(q))


def test_layer_tags_partition():
    for q, n in [(3, 2), (2, 3)]:
        d = build_scaled_cage(q, n)
        on_root = [c for c, ys in enumerate(d.x_neighbors) if 0 in ys]
        assert len(on_root) == d.l
        assert on_root == layer1_ids(q, n)
        # the rows on the root are x_0, x_1, ... in id order
        assert [d.x_neighbors[c] for c in on_root] == [layer1_row(q, j) for j in range(d.l)]
        # every other Y vertex is a layer-2 child of exactly one of them
        assert sorted(y for c in on_root for y in d.x_neighbors[c][1:]) == list(range(1, d.v))


@pytest.mark.parametrize(
    "q, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)]
)
def test_growth_appends(q, n):
    small, big = build_scaled_cage(q, n), build_scaled_cage(q, n + 1)
    u = chunks_per_iteration(q, n)
    assert small.u == u
    assert small.x_neighbors == big.x_neighbors[:u]
    # the first ids appended are the new layer-1 rows, in order
    new_layer1 = range(p_n(q, n), p_n(q, n + 1))
    appended = big.x_neighbors[u : u + len(new_layer1)]
    assert appended == tuple(layer1_row(q, j) for j in new_layer1)
    assert all(0 not in ys for ys in big.x_neighbors[u + len(new_layer1) :])


@pytest.mark.parametrize(
    "q, n",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
     (5, 2), (8, 1), (9, 1)],
)
def test_build_matches_reference_rows(q, n):
    # the library reads its rows through group_columns and itemgetter
    # streams; the oracle follows the cage docstring one row at a time
    assert build_scaled_cage(q, n).x_neighbors == tuple(helpers.reference_chunk_rows(q, n))


def test_determinism():
    a = build_scaled_cage(3, 2)
    b = build_scaled_cage(3, 2)
    assert a == b


def test_build_shares_one_int_per_node_id():
    # Chunk rows look their node ids up in one shared table, so a row
    # adds no int objects of its own.  Peak traced memory on (13, 2):
    # 24.7 MiB when every slot computed a fresh int, 12.9 MiB shared.
    tracemalloc.start()
    try:
        build_scaled_cage(13, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20, peak


def test_build_frees_group_columns():
    # The q + 1 column lookups hold q**3 symbols; the build frees them
    # before the transpose.  Peak traced memory on (64, 1): 7.65 MiB
    # with them freed, 9.69 MiB with them held through the transpose.
    tracemalloc.start()
    try:
        build_scaled_cage(64, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20, peak


def test_golden_q2_n2_table():
    sd = build_scaled_cage(2, 2)
    assert [list(r) for r in sd.nodes] == GOLDEN_S2315_T


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------

def b_h_design(d, h):
    return helpers.incidence_from_blocks(helpers.b_h_blocks(d, h), d.q**2 + d.q + 1)


def test_b_h_subgraph_isomorphic_to_regular_cage():
    d = build_scaled_cage(2, 2)
    cage = build_scaled_cage(2, 1)
    for h in range(7):
        sub = b_h_design(d, h)
        assert (sub.u, sub.v, sub.k, sub.l) == (7, 7, 3, 3)
        assert helpers.bipartite_isomorphic(sub, cage)


def test_b_h_subgraph_block_zero_is_literal():
    # the first driving block is 0..q, so its subgraph is the cage itself
    for q in (2, 3):
        cage = build_scaled_cage(q, 1)
        assert helpers.b_h_blocks(build_scaled_cage(q, 2), 0) == list(cage.x_neighbors)


def test_b_h_subgraph_q3():
    d = build_scaled_cage(3, 2)
    cage = build_scaled_cage(3, 1)
    for h in range(13):
        sub = b_h_design(d, h)
        assert (sub.u, sub.v) == (13, 13)
        assert helpers.bipartite_isomorphic(sub, cage)


# ---------------------------------------------------------------------------
# projective geometry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_designs_satisfy_veblen_young(q, n):
    # Steiner exact plus the Veblen-Young axiom: the design is PG(n+1, q)
    d = build_scaled_cage(q, n)
    assert helpers.is_steiner_exact(d.x_neighbors, d.v)
    assert helpers.veblen_young_violation(d.x_neighbors, d.v) is None


@pytest.mark.parametrize("q", [2, 3])
def test_b_h_subgraphs_are_projective_planes(q):
    d = build_scaled_cage(q, 2)
    for h in range(p_n(q, 2)):
        blocks, v = helpers.b_h_blocks(d, h), q * q + q + 1
        assert len(blocks) == v
        assert helpers.is_steiner_exact(blocks, v)
        assert helpers.veblen_young_violation(blocks, v) is None


def test_veblen_young_tells_pg32_from_bose_sts15():
    # both are S(2, 3, 15); only PG(3, 2) is a projective space
    bose = helpers.bose_sts15()
    assert helpers.is_steiner_exact(bose, 15)
    assert check_steiner_exact(BlockCollection(15, tuple(bose))) == (True, None)
    assert helpers.veblen_young_violation(bose, 15) is not None
    pg32 = build_scaled_cage(2, 2)
    assert check_steiner_exact(BlockCollection(15, pg32.x_neighbors)) == (True, None)
    assert helpers.veblen_young_violation(pg32.x_neighbors, 15) is None


def test_to_dot():
    d = build_scaled_cage(2, 1)
    dot = to_dot(d, name="g")
    assert dot.startswith("graph g {")
    assert "y0 -- x0;" in dot
    assert dot.count("--") == d.u * d.k
    assert to_dot(d, name="g") == dot
    with pytest.raises(InvalidDesign, match="partially filled"):
        to_dot(partial_fill(build_scaled_cage(2, 2), 30))


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2), (9, 1)])
def test_neighbor_lists_strictly_ascend(q, n):
    d = build_scaled_cage(q, n)
    for rows in (d.x_neighbors, d.nodes):
        for row in rows:
            assert all(a < b for a, b in zip(row, row[1:])), row


def test_to_dot_derived_layers_match_tags():
    d = build_scaled_cage(2, 2)
    rebuilt = from_json(to_json(d))
    assert rebuilt == d  # no layer structure is lost on the round trip
    assert to_dot(rebuilt) == to_dot(d)
    # the rendered layers are the construction's: the root is layer 0,
    # every other Y vertex layer 2, the closed-form layer-1 ids layer 1
    for q, n in [(2, 1), (2, 3), (3, 2), (4, 1)]:
        d = build_scaled_cage(q, n)
        layer1 = set(layer1_ids(q, n))
        want = [f'  y{g} [shape=circle, layer="{0 if g == 0 else 2}"];' for g in range(d.v)]
        want += [
            f'  x{c} [shape=box, layer="{1 if c in layer1 else 3}"];' for c in range(d.u)
        ]
        lines = to_dot(d).splitlines()
        assert lines[1 : 1 + d.v + d.u] == want
