"""Families of q mutually-orthogonal q x q squares over GF(q).

The family holds squares L(0), L(1), ..., L(q-1).  Square L(0) repeats
the natural-order column in every column and is not Latin; squares
L(1)..L(q-1) are Latin and pairwise orthogonal.  Cell symbols are
positions in the field's element sequence, and every zeroth column
reads 0, 1, ..., q-1 top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import Field

__all__ = ["Square", "MolsSet", "generate_mols"]


@dataclass(frozen=True)
class Square:
    """One q x q square; cells[i][j] is the symbol in row i, column j."""

    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MolsSet:
    """The family; squares[m] is L(m)."""

    squares: tuple[Square, ...]


def generate_mols(f: Field) -> MolsSet:
    """Build the q-square family for GF(q).

    Cell (i, j) of square m is the sequence index of e_i + e_m * e_j,
    so column 0 (e_j = 0) reads 0, 1, ..., q-1.
    """
    q, e = f.q, f.elements
    squares = []
    for m in range(q):
        rows = [
            tuple(f.sequence_index(f.add(e[i], f.mul(e[m], e[j]))) for j in range(q))
            for i in range(q)
        ]
        squares.append(Square(cells=tuple(rows)))
    return MolsSet(squares=tuple(squares))
