"""Families of q mutually-orthogonal q x q squares over GF(q).

The family holds squares L(0), L(1), ..., L(q-1), where cell (i, j) of
L(m) is the position of e_i + e_m * e_j in the field's element
sequence.  Square L(0) repeats the natural-order column in every column
and is not Latin; squares L(1)..L(q-1) are Latin and pairwise
orthogonal.  Every zeroth column reads 0, 1, ..., q-1 top to bottom.

`_cells` is the one place the cell formula is evaluated.  It gives the
family as the q+1 columns that a layer-3 group of the cage reads, which
`generate_mols` views as q grids and `column_orders` inverts.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .gf import Field

__all__ = ["group_columns", "column_orders", "generate_mols"]


def _cells(f: Field, inverse: bool = False):
    """Per group column (a, b), per s, the q-tuple pos(a * e_s + b * e_i) over i;
    inverse reads (-a, 1) / b instead and leaves out column 2 (b = 0)."""
    e, add, mul = f.elements, f.add, f.mul
    pos = sorted(range(f.q), key=e.__getitem__)  # pos[a] is a's position in the sequence
    shifted = [tuple(map(pos.__getitem__, row)) for row in add]  # shifted[c][b] = pos(c + b)
    # column 0 is e_s - e_i; column j+1 pairs e_j with 1 - e_j (the c with e_j + c = 1)
    pairs = [(1, add[1].index(0))] + [(a, add[a].index(1)) for a in e]
    if inverse:
        pairs = [(mul[add[a].index(0)][mul[b].index(1)], mul[b].index(1)) for a, b in pairs if b]
    for a, b in pairs:  # shifted[a * e_s] read at b * e_i for each i
        read = itemgetter(*map(mul[b].__getitem__, e))
        yield map(read, map(shifted.__getitem__, map(mul[a].__getitem__, e)))


def group_columns(f: Field) -> list[tuple[int, ...]]:
    """The q+1 columns of the q**2 rows (m, L(m)[i][0], ..., L(m)[i][q-1]).

    Rows are ordered by (L(m)[i][1], i): row s*q + i has e_m = e_s - e_i,
    so column 0 reads m, column 1 reads i, column 2 reads s, and column
    j+1 reads the position of e_i + e_m * e_j = e_j * e_s + (1 - e_j) * e_i.
    """
    return [tuple(chain.from_iterable(cells)) for cells in _cells(f)]


def column_orders(f: Field) -> list[tuple[int, ...]]:
    """column_orders(f)[j][a*q + c] is the a-th row, ascending, where
    group_columns(f)[j] reads c: c*q + a for column 2 (it reads s), else
    a*q + i with e_i = (e_c - a' * e_a) / b', (a', b') its pair in _cells."""
    rows = list(zip(*[iter(range(f.q**2))] * f.q))  # rows[a][i] is row a*q + i, one int each
    orders = [tuple(chain.from_iterable(itemgetter(*c)(r) for c, r in zip(cells, rows)))
              for cells in _cells(f, inverse=True)]
    orders.insert(2, tuple(chain.from_iterable(zip(*rows))))  # row c*q + a at a*q + c
    return orders


def generate_mols(f: Field) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The family as q grids: generate_mols(f)[m][i][j] is L(m)[i][j]."""
    q = f.q
    rows = sorted(zip(*group_columns(f)))  # by (m, i)
    return tuple(tuple(r[1:] for r in rows[m * q : m * q + q]) for m in range(q))
