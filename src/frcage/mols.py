"""Families of q mutually-orthogonal q x q squares over GF(q).

The family holds squares L(0), L(1), ..., L(q-1).  Square L(0) repeats
the natural-order column in every column and is not Latin; squares
L(1)..L(q-1) are Latin and pairwise orthogonal.  Cell symbols are
positions in the field's element sequence, and every zeroth column
reads 0, 1, ..., q-1 top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderMismatch
from .gf import Field

__all__ = [
    "Square",
    "MolsSet",
    "generate_mols",
    "check_latin",
    "check_orthogonal",
    "check_zeroth_column_only_overlap",
]


@dataclass(frozen=True)
class Square:
    """One q x q square; `index` records which member of the family it is."""

    order: int
    index: int
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MolsSet:
    q: int
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
        squares.append(Square(order=q, index=m, cells=tuple(rows)))
    return MolsSet(q=q, squares=tuple(squares))


def check_latin(s: Square) -> bool:
    """True when every row and every column is a permutation of 0..q-1."""
    q = s.order
    full = set(range(q))
    for row in s.cells:
        if set(row) != full:
            return False
    for j in range(q):
        if {s.cells[i][j] for i in range(q)} != full:
            return False
    return True


def check_orthogonal(a: Square, b: Square) -> bool:
    """True when cellwise catenation of a and b yields all q**2 symbol pairs."""
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    q = a.order
    pairs = {(a.cells[i][j], b.cells[i][j]) for i in range(q) for j in range(q)}
    return len(pairs) == q * q


def check_zeroth_column_only_overlap(mset: MolsSet) -> bool:
    """True when any two distinct squares agree exactly on column 0."""
    q = mset.q
    for m in range(q):
        for mp in range(m + 1, q):
            a, b = mset.squares[m].cells, mset.squares[mp].cells
            for i in range(q):
                for j in range(q):
                    if (a[i][j] == b[i][j]) != (j == 0):
                        return False
    return True
