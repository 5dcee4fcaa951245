"""Families of q mutually-orthogonal q x q squares over GF(q).

The family holds squares L(0), L(1), ..., L(q-1), where cell (i, j) of
L(m) is the position of e_i + e_m * e_j in the field's element
sequence.  Square L(0) repeats the natural-order column in every column
and is not Latin; squares L(1)..L(q-1) are Latin and pairwise
orthogonal.  Every zeroth column reads 0, 1, ..., q-1 top to bottom.

`group_columns` is the one place the cell formula is evaluated: it
gives the family as the q+1 columns that a layer-3 group of the cage
reads.  `generate_mols` is a view of those columns as q grids.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .gf import Field

__all__ = ["group_columns", "generate_mols"]


def group_columns(f: Field) -> list[tuple[int, ...]]:
    """The q+1 columns of the q**2 rows (m, L(m)[i][0], ..., L(m)[i][q-1]).

    Rows are ordered by (L(m)[i][1], i): row s*q + i has e_m = e_s - e_i,
    so column 0 reads m, column 1 reads i, column 2 reads s, and column
    j+1 reads the position of e_i + e_m * e_j = e_j * e_s + (1 - e_j) * e_i.
    """
    e, add, mul = f.elements, f.add, f.mul
    pos = [0] * f.q  # pos[a] is a's position in the element sequence
    for i, x in enumerate(e):
        pos[x] = i
    shifted = [tuple(map(pos.__getitem__, row)) for row in add]  # shifted[c][b] = pos(c + b)

    def column(a: int, b: int) -> tuple[int, ...]:
        # pos(a * e_s + b * e_i) at row s*q + i: shifted[a * e_s] read at b * e_i for each i
        read = itemgetter(*map(mul[b].__getitem__, e))
        rows = map(shifted.__getitem__, map(mul[a].__getitem__, e))
        return tuple(chain.from_iterable(map(read, rows)))

    # column 0 is e_s - e_i; column j+1 pairs e_j with 1 - e_j (the c with e_j + c = 1)
    return [column(1, add[1].index(0))] + [column(a, add[a].index(1)) for a in e]


def generate_mols(f: Field) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The family as q grids: generate_mols(f)[m][i][j] is L(m)[i][j]."""
    q = f.q
    rows = sorted(zip(*group_columns(f)))  # by (m, i)
    return tuple(tuple(r[1:] for r in rows[m * q : m * q + q]) for m in range(q))
