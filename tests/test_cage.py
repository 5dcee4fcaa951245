"""Cage construction: sizes, golden tables, subgraphs, determinism."""

import pytest

from frcage import (
    IndexOutOfRange,
    NotPrimePower,
    ResourceLimit,
    b_h_subgraph,
    blocks_from_graph,
    build_regular_cage,
    build_scaled_cage,
    p_n,
    to_dot,
    to_storage_design,
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
    d = build_regular_cage(2)
    assert (d.u, d.v, d.k, d.l) == (7, 7, 3, 3)
    assert [list(r) for r in to_storage_design(d).nodes] == GOLDEN_S237
    # the X-side list carries the same system under the documented relabeling
    relabeled = sorted(
        tuple(sorted(X_SIDE_RELABEL_Q2[e] for e in b)) for b in d.x_neighbors
    )
    assert relabeled == sorted(tuple(b) for b in GOLDEN_S237)


def test_regular_cage_q3_sizes():
    d = build_regular_cage(3)
    assert d.u == d.v == 13
    assert d.k == d.l == 4
    assert all(len(b) == 4 for b in d.x_neighbors)


def test_regular_cage_q4_degrees_and_girth():
    d = build_regular_cage(4)
    assert d.u == d.v == 21
    assert all(len(b) == 5 for b in d.x_neighbors)
    assert helpers.naive_no_four_cycles(d)


def test_regular_cage_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        build_regular_cage(6)


def test_scaled_cage_q2_n2_parameters():
    d = build_scaled_cage(2, 2)
    assert (d.v, d.u, d.k, d.l) == (15, 35, 3, 7)


def test_scaled_cage_n1_equals_regular_cage():
    for q in (2, 3, 4):
        assert build_scaled_cage(q, 1) == build_regular_cage(q)


def test_scaled_cage_q3_n2():
    d = build_scaled_cage(3, 2)
    assert d.v == p_n(3, 3) == 40
    assert d.u == 40 * 13 // 4 == 130
    assert helpers.naive_no_four_cycles(build_scaled_cage(2, 2))


def test_scaled_cage_rejects_bad_n():
    with pytest.raises(ValueError):
        build_scaled_cage(2, 0)


def test_resource_limit():
    with pytest.raises(ResourceLimit):
        build_scaled_cage(2, 2, max_edges=50)
    # n=1 fits under the same cap
    assert build_scaled_cage(2, 1, max_edges=50).u == 7


def test_blocks_from_graph_sides():
    d1 = build_regular_cage(2)
    bx = blocks_from_graph(d1, "X")
    assert bx.num_elements == 7 and bx.block_size == 3 and len(bx.blocks) == 7
    d2 = build_scaled_cage(2, 2)
    by = blocks_from_graph(d2, "Y")
    assert by.num_elements == 35 and by.block_size == 7
    assert list(by.blocks[0]) == [0, 1, 2, 7, 8, 9, 10]
    with pytest.raises(ValueError):
        blocks_from_graph(d1, "Z")


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1)])
def test_blocks_sides_are_mutual_transposes(q, n):
    d = build_scaled_cage(q, n)
    bx = blocks_from_graph(d, "X").blocks
    by = blocks_from_graph(d, "Y").blocks
    for x, ys in enumerate(bx):
        for y in ys:
            assert x in by[y]
    for y, xs in enumerate(by):
        for x in xs:
            assert y in bx[x]


def test_layer_tags_partition():
    d = build_scaled_cage(3, 2)
    layer1 = [t for t in d.x_tags if t[0] == 1]
    layer3 = [t for t in d.x_tags if t[0] == 3]
    assert len(layer1) == d.l and len(layer3) == d.u - d.l
    assert d.y_tags[0] == (0,)
    assert all(t[0] == 2 for t in d.y_tags[1:])
    assert len(d.input_blocks) == 13  # chunk count of the previous iteration


def test_determinism():
    a = build_scaled_cage(3, 2)
    b = build_scaled_cage(3, 2)
    assert a == b
    assert to_storage_design(a) == to_storage_design(b)


def test_golden_q2_n2_table():
    sd = to_storage_design(build_scaled_cage(2, 2))
    assert [list(r) for r in sd.nodes] == GOLDEN_S2315_T


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------

def test_b_h_subgraph_isomorphic_to_regular_cage():
    d = build_scaled_cage(2, 2)
    cage = build_regular_cage(2)
    for h in range(7):
        sub = b_h_subgraph(d, h)
        assert (sub.u, sub.v, sub.k, sub.l) == (7, 7, 3, 3)
        assert helpers.bipartite_isomorphic(sub, cage)


def test_b_h_subgraph_block_zero_is_literal():
    # the first driving block is 0..q, so its subgraph is the cage itself
    d = build_scaled_cage(2, 2)
    assert b_h_subgraph(d, 0).x_neighbors == build_regular_cage(2).x_neighbors


def test_b_h_subgraph_errors():
    d = build_scaled_cage(2, 2)
    with pytest.raises(IndexOutOfRange):
        b_h_subgraph(d, 7)
    with pytest.raises(IndexOutOfRange):
        b_h_subgraph(d, -1)
    with pytest.raises(ValueError):
        b_h_subgraph(build_regular_cage(2), 0)


def test_b_h_subgraph_q3():
    d = build_scaled_cage(3, 2)
    cage = build_regular_cage(3)
    for h in (0, 5, 12):
        sub = b_h_subgraph(d, h)
        assert (sub.u, sub.v) == (13, 13)
        assert helpers.bipartite_isomorphic(sub, cage)


def test_to_dot():
    d = build_regular_cage(2)
    dot = to_dot(d, name="g")
    assert dot.startswith("graph g {")
    assert "y0 -- x0;" in dot
    assert dot.count("--") == d.u * d.k
    assert to_dot(d, name="g") == dot


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2), (9, 1)])
def test_neighbor_lists_strictly_ascend(q, n):
    d = build_scaled_cage(q, n)
    for rows in (d.x_neighbors, d.y_neighbor_lists()):
        for row in rows:
            assert all(a < b for a, b in zip(row, row[1:])), row


def test_to_dot_derived_layers_match_tags():
    from frcage import incidence_design

    d = build_scaled_cage(2, 2)
    rebuilt = incidence_design(to_storage_design(d))
    assert rebuilt.x_tags is None
    assert to_dot(rebuilt) == to_dot(d)
    # the layers rendered from root adjacency are the construction's tags
    for q, n in [(2, 1), (2, 3), (3, 2), (4, 1)]:
        d = build_scaled_cage(q, n)
        want = [f'  y{g} [shape=circle, layer="{t[0]}"];' for g, t in enumerate(d.y_tags)]
        want += [f'  x{c} [shape=box, layer="{t[0]}"];' for c, t in enumerate(d.x_tags)]
        lines = to_dot(d).splitlines()
        assert lines[1 : 1 + d.v + d.u] == want
