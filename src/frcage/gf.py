"""Arithmetic for GF(q) with q = p**m a prime or prime power.

The element with polynomial coordinates (c_0, ..., c_{m-1}) over GF(p)
is the integer sum(c_i * p**i).  This integer order is the canonical
enumeration used whenever a "smallest element" is selected, so every
choice made here is deterministic and reproducible.

Both tables are built row by row from earlier entries, the same way for
every m (a prime field is m = 1):

  * add[a][b] = (a + b) % p + p * add[a // p][b // p]  (digit-wise);
  * mul[a][b] = add[mul[a][b-1]][a] for b < p, and otherwise
    add[xtimes[mul[a][b // p]]][mul[a][b % p]], where xtimes multiplies
    by x: it shifts the digits up and folds x**m back in as -tail.

The modulus x**m + tail has the smallest encoded tail whose table has
no zero divisor.  GF(p)[x]/(f) is a field exactly when f is
irreducible, so this is the lowest monic irreducible of degree m (x for
m = 1); a reducible candidate fails at the row of its smallest factor.

The element sequence e_0 = 0, e_1 = 1, e_i = alpha**(i-1) for i >= 2,
with alpha the smallest primitive element, numbers the symbols of the
square constructions.
"""

from __future__ import annotations

from .errors import NotPrimePower

__all__ = [
    "Field",
    "field_new",
    "find_primitive_element",
    "factor_prime_power",
]


def _check_q(q) -> None:
    """NotPrimePower for a q that is not an int (bool included) or is < 2."""
    if type(q) is not int:
        raise NotPrimePower(f"q must be an integer, got {q!r}")
    if q < 2:
        raise NotPrimePower(f"q must be >= 2, got {q}")


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m, or raise NotPrimePower."""
    _check_q(q)
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, m


def _mul_table(add: list[list[int]], p: int, tail: int) -> list[list[int]] | None:
    """Multiplication table modulo x**m + tail (tail an encoded element),
    or None at the first row holding a zero divisor."""
    q = len(add)
    top = q // p
    neg_tail = add[tail].index(0)
    xtimes = [c * p for c in range(top)]  # x * x**(m-1) = -tail
    for c in range(top, q):
        xtimes.append(add[xtimes[c - top]][neg_tail])
    rows = [[0] * q]
    for a in range(1, q):
        row = [0]
        for _ in range(1, p):
            row.append(add[row[-1]][a])
        low = tuple(row)
        for hi in range(1, top):
            shifted = add[xtimes[row[hi]]]
            row.extend([shifted[c] for c in low])
        if row.count(0) > 1:
            return None
        rows.append(row)
    return rows


class Field:
    """Immutable GF(q) with table-driven arithmetic.

    Attributes mirror the construction inputs: characteristic p,
    extension degree m, modulus (monic, coefficients low to high),
    primitive element alpha, the element sequence and the tables
    add[a][b] and mul[a][b] described in the module docstring.
    Instances are safe to share between threads.
    """

    __slots__ = ("q", "p", "m", "modulus", "alpha", "elements", "add", "mul")

    def __init__(self, q: int):
        p, m = factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m

        add = [list(range(q))]
        for a in range(1, q):
            carry = add[a // p]
            add.append([(a + b) % p + p * carry[b // p] for b in range(q)])
        tail = 0
        while (mul := _mul_table(add, p, tail)) is None:
            tail += 1
        self.modulus = self.coeffs(tail) + (1,)
        self.add = tuple(map(tuple, add))
        self.mul = tuple(map(tuple, mul))

        self.alpha = find_primitive_element(self)
        elements = [0, 1]
        while len(elements) < q:
            elements.append(self.mul[elements[-1]][self.alpha])
        self.elements = tuple(elements)
        if sorted(self.elements) != list(range(q)):
            raise AssertionError("element sequence is not a bijection")

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial coordinates of an element, low degree first."""
        return tuple((a // self.p**i) % self.p for i in range(self.m))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Field(q={self.q}, p={self.p}, m={self.m}, alpha={self.alpha})"


def field_new(q: int) -> Field:
    """Construct GF(q).  Raises NotPrimePower for invalid q."""
    return Field(q)


def find_primitive_element(f: Field) -> int:
    """Smallest element (canonical integer order) of multiplicative order q-1."""
    target = f.q - 1
    for a in range(1, f.q):
        x, o = a, 1
        while x != 1:
            x = f.mul[x][a]
            o += 1
        if o == target:
            return a
    raise AssertionError("no primitive element found")  # unreachable
