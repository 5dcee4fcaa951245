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
    e = f.elements
    pos = [0] * f.q  # pos[a] is a's position in the element sequence
    for i, a in enumerate(e):
        pos[a] = i
    # shifted[i][b] is the position of e_i + b, so a row is one lookup per cell
    shifted = [tuple(map(pos.__getitem__, f.add[a])) for a in e]
    squares = []
    for em in e:
        scaled = tuple(map(f.mul[em].__getitem__, e))  # e_m * e_j for every j
        rows = tuple(tuple(map(row.__getitem__, scaled)) for row in shifted)
        squares.append(Square(cells=rows))
    return MolsSet(squares=tuple(squares))
