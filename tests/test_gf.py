"""Field construction and arithmetic."""

import random

import pytest

from frcage import NotPrimePower, field_new, find_primitive_element
from frcage.gf import factor_prime_power
import helpers

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                   37, 41, 43, 47, 49, 53, 59, 61, 64]
EXTENSION_FIELDS_256 = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256]


def brute_order_mod_p(a: int, p: int) -> int:
    """Independent multiplicative-order computation for prime fields."""
    x, o = a % p, 1
    while x != 1:
        x = (x * a) % p
        o += 1
    return o


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_field_new_gf3():
    f = field_new(3)
    assert (f.p, f.m, f.q) == (3, 1, 3)
    assert f.elements == (0, 1, 2)
    # oracle: 2 is the only element of order q-1 = 2 in GF(3)
    assert brute_order_mod_p(2, 3) == 2
    assert f.alpha == 2


def test_field_new_gf4():
    f = field_new(4)
    assert (f.p, f.m) == (2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1
    # alpha = x (encoded 2); x**2 reduced by x^2+x+1 is x+1 (encoded 3)
    assert f.alpha == 2
    assert f.mul[f.alpha][f.alpha] == 3
    assert f.coeffs(3) == (1, 1)


@pytest.mark.parametrize("bad", [0, 1, 6, 10, 12, 15, 18, 100])
def test_field_new_rejects_non_prime_powers(bad):
    with pytest.raises(NotPrimePower):
        field_new(bad)


@pytest.mark.parametrize("bad", [True, 4.0, 2.0, "4", None])
def test_field_new_rejects_non_int_q(bad):
    with pytest.raises(NotPrimePower, match="q must be an integer"):
        field_new(bad)
    with pytest.raises(NotPrimePower, match="q must be an integer"):
        factor_prime_power(bad)


def test_modulus_is_irreducible_by_trial_division():
    # independent check: no monic polynomial of degree 1..m/2 divides it
    for q in EXTENSION_FIELDS_256:
        f = field_new(q)
        assert not helpers.has_monic_factor(f.modulus, f.p), f"GF({q}) modulus has a factor"


@pytest.mark.parametrize("q", EXTENSION_FIELDS_256)
def test_modulus_is_the_lowest_irreducible(q):
    f = field_new(q)
    p, m = f.p, f.m
    assert len(f.modulus) == m + 1 and f.modulus[-1] == 1
    tail = sum(c * p**i for i, c in enumerate(f.modulus[:-1]))
    for enc in range(tail):
        smaller = [(enc // p**i) % p for i in range(m)] + [1]
        assert helpers.has_monic_factor(smaller, p), f"GF({q}): tail {enc} is irreducible"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def test_add_examples():
    assert field_new(3).add[1][2] == 0
    f4 = field_new(4)
    assert f4.add[f4.alpha][f4.alpha] == 0
    assert field_new(2).add[1][1] == 0


def test_mul_examples():
    assert field_new(3).mul[2][2] == 1
    f4 = field_new(4)
    assert f4.mul[f4.alpha][f4.alpha] == 3  # alpha + 1
    for q in (2, 3, 4, 5):
        f = field_new(q)
        assert all(f.mul[0][a] == 0 for a in range(q))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_tables_match_schoolbook_oracle_exhaustive(q):
    f = field_new(q)
    oracle = helpers.FieldOracle(f.p, f.m, f.modulus)
    for a in range(q):
        for b in range(q):
            assert f.add[a][b] == oracle.add(a, b), (a, b)
            assert f.mul[a][b] == oracle.mul(a, b), (a, b)


@pytest.mark.parametrize("q", [81, 125, 128, 243, 256])
def test_tables_match_schoolbook_oracle_sampled(q):
    f = field_new(q)
    oracle = helpers.FieldOracle(f.p, f.m, f.modulus)
    rng = random.Random(q)
    for _ in range(3000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.add[a][b] == oracle.add(a, b), (a, b)
        assert f.mul[a][b] == oracle.mul(a, b), (a, b)


def test_find_primitive_element_examples():
    # oracles: brute-force orders in the prime fields
    assert brute_order_mod_p(2, 5) == 4
    assert find_primitive_element(field_new(5)) == 2
    assert find_primitive_element(field_new(2)) == 1
    assert brute_order_mod_p(2, 7) == 3 and brute_order_mod_p(3, 7) == 6
    assert find_primitive_element(field_new(7)) == 3


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_field_axioms_exhaustive(q):
    f = field_new(q)
    els = range(q)
    for a in els:
        for b in els:
            assert f.add[a][b] == f.add[b][a]
            assert f.mul[a][b] == f.mul[b][a]
    for a in els:
        for b in els:
            for c in els:
                assert f.add[f.add[a][b]][c] == f.add[a][f.add[b][c]]
                assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]
                assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_alpha_order_and_element_sequence(q):
    f = field_new(q)
    x = 1
    for j in range(1, q - 1):
        x = f.mul[x][f.alpha]
        assert x != 1, f"alpha has order {j} < q-1"
    assert f.mul[x][f.alpha] == 1
    assert f.elements[0] == 0 and f.elements[1] == 1
    x = 1
    for i in range(2, q):
        x = f.mul[x][f.alpha]
        assert f.elements[i] == x  # alpha ** (i - 1)
    assert sorted(f.elements) == list(range(q))


def test_coeffs_roundtrip():
    f = field_new(9)
    for a in range(9):
        cs = f.coeffs(a)
        assert len(cs) == f.m and all(0 <= c < f.p for c in cs)
        assert helpers.from_coeffs(cs, f.p) == a


def test_supported_range_up_to_64():
    for q in PRIME_POWERS_64:
        f = field_new(q)
        powers = [1]
        while len(powers) < q:
            powers.append(f.mul[powers[-1]][f.alpha])
        # alpha has multiplicative order q - 1: alpha**(q-1) is the first power back at 1
        assert powers[-1] == 1 and 1 not in powers[1:-1]
