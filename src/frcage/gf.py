"""Arithmetic for GF(q) with q a prime or prime power.

Field elements are encoded as integers in [0, q): the element with
polynomial coordinates (c_0, ..., c_{m-1}) over GF(p) is the integer
sum(c_i * p**i).  This integer order is the canonical enumeration used
whenever a "smallest element" is selected, so every choice made here is
deterministic and reproducible.

Each field also fixes an element sequence e_0, e_1, ..., e_{q-1} with
e_0 = 0, e_1 = 1 and e_i = alpha**(i-1) for i >= 2, where alpha is the
smallest primitive element.  The square constructions index symbols by
position in this sequence.
"""

from __future__ import annotations

from .errors import NotPrimePower

__all__ = [
    "Field",
    "field_new",
    "find_primitive_element",
    "factor_prime_power",
    "lowest_irreducible",
]


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"q must be >= 2, got {q}")
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


def _poly_mod(poly: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """Reduce poly (coefficients low to high) modulo a monic modulus."""
    poly = [c % p for c in poly]
    deg_mod = len(modulus) - 1
    for d in range(len(poly) - 1, deg_mod - 1, -1):
        c = poly[d]
        if c:
            poly[d] = 0
            for t in range(deg_mod):
                poly[d - deg_mod + t] = (poly[d - deg_mod + t] - c * modulus[t]) % p
    return poly[:deg_mod]


def _poly_divides(div: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    """True when the monic polynomial div divides poly over GF(p)."""
    rem = list(poly)
    while len(rem) >= len(div):
        c = rem[-1]
        if c:
            off = len(rem) - len(div)
            for t in range(len(div)):
                rem[off + t] = (rem[off + t] - c * div[t]) % p
        rem.pop()
    return all(c == 0 for c in rem)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of lower half degree."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            coeffs, t = [], enc
            for _ in range(d):
                coeffs.append(t % p)
                t //= p
            if _poly_divides(tuple(coeffs) + (1,), poly, p):
                return False
    return True


def lowest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree m over GF(p) with the
    smallest integer-encoded tail of non-leading coefficients."""
    if m == 1:
        return (0, 1)  # the polynomial x
    for enc in range(p**m):
        coeffs, t = [], enc
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        poly = tuple(coeffs) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """Immutable GF(q) with table-driven arithmetic.

    Attributes mirror the construction inputs: characteristic p,
    extension degree m, modulus (monic, coefficients low to high),
    primitive element alpha, and the element sequence described in the
    module docstring.  Instances are safe to share between threads.
    """

    __slots__ = ("q", "p", "m", "modulus", "alpha", "elements", "_index", "_add", "_mul")

    def __init__(self, q: int):
        p, m = factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        self.modulus = lowest_irreducible(p, m)

        if m == 1:
            self._add = tuple(tuple((a + b) % p for b in range(q)) for a in range(q))
            self._mul = tuple(tuple((a * b) % p for b in range(q)) for a in range(q))
        else:
            def decode(e: int) -> list[int]:
                return [(e // p**i) % p for i in range(m)]

            def encode(cs: list[int]) -> int:
                return sum(c * p**i for i, c in enumerate(cs))

            def pmul(a: int, b: int) -> int:
                ca, cb = decode(a), decode(b)
                prod = [0] * (2 * m - 1)
                for i, ai in enumerate(ca):
                    if ai:
                        for j, bj in enumerate(cb):
                            prod[i + j] = (prod[i + j] + ai * bj) % p
                return encode(_poly_mod(prod, self.modulus, p))

            self._add = tuple(
                tuple(encode([(x + y) % p for x, y in zip(decode(a), decode(b))]) for b in range(q))
                for a in range(q)
            )
            self._mul = tuple(tuple(pmul(a, b) for b in range(q)) for a in range(q))

        self.alpha = find_primitive_element(self)
        elements = [0, 1]
        x = self.alpha
        while len(elements) < q:
            elements.append(x)
            x = self._mul[x][self.alpha]
        self.elements = tuple(elements)
        if sorted(self.elements) != list(range(q)):
            raise AssertionError("element sequence is not a bijection")
        self._index = {e: i for i, e in enumerate(self.elements)}

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial coordinates of an element, low degree first."""
        return tuple((a // self.p**i) % self.p for i in range(self.m))

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.m or any(not 0 <= c < self.p for c in cs):
            raise ValueError(f"need {self.m} coefficients in [0, {self.p})")
        return sum(c * self.p**i for i, c in enumerate(cs))

    def sequence_index(self, a: int) -> int:
        """Position of an element in the e_0..e_{q-1} sequence."""
        return self._index[a]

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
            x = f._mul[x][a]
            o += 1
        if o == target:
            return a
    raise AssertionError("no primitive element found")  # unreachable
