"""Orthogonal square families."""

import random

import pytest

from frcage import field_new, generate_mols
from frcage.mols import group_columns
from conftest import GOLDEN_MOLS_Q3
import helpers

SWEEP_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def test_generate_mols_q3_golden():
    squares = generate_mols(field_new(3))
    assert [[list(r) for r in sq] for sq in squares] == GOLDEN_MOLS_Q3


def test_generate_mols_q2():
    squares = generate_mols(field_new(2))
    assert [list(map(list, sq)) for sq in squares] == [
        [[0, 0], [1, 1]],
        [[0, 1], [1, 0]],
    ]


def test_generate_mols_q4_pairwise_orthogonal():
    squares = generate_mols(field_new(4))
    for a in range(4):
        for b in range(a + 1, 4):
            pairs = {
                (squares[a][i][j], squares[b][i][j])
                for i in range(4)
                for j in range(4)
            }
            assert len(pairs) == 16


def test_check_latin():
    squares = generate_mols(field_new(3))
    assert helpers.check_latin(squares[1])
    assert not helpers.check_latin(squares[0])
    assert not helpers.check_latin(((0, 0), (1, 1)))


def test_check_orthogonal():
    l0, l1, l2 = generate_mols(field_new(3))
    assert helpers.check_orthogonal(l1, l2)
    assert not helpers.check_orthogonal(l1, l1)
    assert helpers.check_orthogonal(l0, l1)
    with pytest.raises(ValueError):
        helpers.check_orthogonal(l1, generate_mols(field_new(2))[1])


def test_zeroth_column_only_overlap():
    squares3 = generate_mols(field_new(3))
    assert helpers.check_zeroth_column_only_overlap(squares3)
    squares2 = generate_mols(field_new(2))
    assert helpers.check_zeroth_column_only_overlap(squares2)
    # constructed violation: copy square 1's column 1 into square 2
    bad_cells = tuple(
        tuple(squares3[1][i][j] if j == 1 else squares3[2][i][j] for j in range(3))
        for i in range(3)
    )
    bad = (squares3[0], squares3[1], bad_cells)
    assert not helpers.check_zeroth_column_only_overlap(bad)


@pytest.mark.parametrize("q", SWEEP_Q)
def test_family_properties(q):
    grids = generate_mols(field_new(q))
    assert len(grids) == q
    for sq in grids:
        assert all(0 <= s < q for row in sq for s in row)
        assert [row[0] for row in sq] == list(range(q))
    # square 0 repeats the natural column everywhere
    for j in range(q):
        assert [grids[0][i][j] for i in range(q)] == list(range(q))
    for cells in grids[1:]:
        assert helpers.check_latin(cells)
    for a in range(q):
        for b in range(a + 1, q):
            assert helpers.check_orthogonal(grids[a], grids[b])
    assert helpers.check_zeroth_column_only_overlap(grids)


@pytest.mark.parametrize("q", [16, 25, 27, 32, 49, 64])
def test_cells_match_field_oracle(q):
    """Cell (i, j) of L(m) is the position of e_i + e_m * e_j, with the
    sums, products and powers of alpha taken by schoolbook arithmetic
    modulo the field's modulus, not from the field's tables.  The cage's
    group columns hold the same cells, in the build's row order."""
    f = field_new(q)
    oracle = helpers.FieldOracle(f.p, f.m, f.modulus)
    e = [0, 1]
    while len(e) < q:
        e.append(oracle.mul(e[-1], f.alpha))
    assert sorted(e) == list(range(q))  # alpha is primitive
    pos = {a: i for i, a in enumerate(e)}
    scaled = [[oracle.mul(em, ej) for ej in e] for em in e]
    shifted = [[pos[oracle.add(ei, b)] for b in range(q)] for ei in e]
    oracle_squares = [tuple(tuple(row[b] for b in scaled[m]) for row in shifted) for m in range(q)]
    for m, sq in enumerate(generate_mols(f)):
        assert sq == oracle_squares[m], m
    # the cage's group rows (m,) + L(m)[i], ordered by (L(m)[i][1], i), as columns
    rows = sorted(((m,) + row for m, sq in enumerate(oracle_squares) for row in sq),
                  key=lambda r: (r[2], r[1]))
    assert group_columns(f) == list(zip(*rows))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_orthogonality_invariant_under_simultaneous_row_permutation(q):
    squares = generate_mols(field_new(q))
    perm = list(range(q))
    random.Random(q).shuffle(perm)
    shuffled = [tuple(sq[perm[i]] for i in range(q)) for sq in squares]
    for a in range(1, q):
        assert helpers.check_latin(shuffled[a])
        for b in range(a + 1, q):
            assert helpers.check_orthogonal(shuffled[a], shuffled[b])
    # resorting rows by column 0 recovers the normalized family
    for cells, orig in zip(shuffled, squares):
        rows = sorted(cells, key=lambda r: r[0])
        assert tuple(rows) == orig
