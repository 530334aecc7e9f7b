"""Tests for finite field arithmetic."""

import random

import pytest

from chardeg.fields import FiniteField, finite_field


def test_prime_field_matches_modular_arithmetic():
    F = finite_field(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
    assert F.inv(3) == 5


# the modulus of every GF(r^m) with m >= 2 up to 4096 points, ascending
# coefficients (constant term first, monic), as an independent test found
# them: the least f with gcd(x^(r^d) - x, f) = 1 for every d <= m/2
MODULI = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (1, 1, 1),
    27: (1, 0, 2, 1),
    32: (1, 0, 0, 1, 0, 1),
    49: (1, 0, 1),
    64: (1, 0, 0, 0, 0, 1, 1),
    81: (1, 0, 1, 1, 1),
    121: (1, 0, 1),
    125: (1, 0, 1, 1),
    128: (1, 0, 0, 0, 0, 0, 1, 1),
    169: (1, 3, 1),
    243: (1, 0, 0, 0, 2, 1),
    256: (1, 0, 0, 0, 1, 1, 0, 1, 1),
    289: (1, 1, 1),
    343: (1, 0, 1, 1),
    361: (1, 0, 1),
    512: (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    529: (1, 0, 1),
    625: (1, 0, 1, 1, 1),
    729: (1, 0, 0, 0, 1, 1, 1),
    841: (1, 1, 1),
    961: (1, 0, 1),
    1024: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    1331: (1, 0, 4, 1),
    1369: (1, 3, 1),
    1681: (1, 1, 1),
    1849: (1, 0, 1),
    2048: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    2187: (1, 0, 0, 0, 0, 1, 2, 1),
    2197: (1, 0, 4, 1),
    2209: (1, 0, 1),
    2401: (1, 0, 0, 1, 1),
    2809: (1, 1, 1),
    3125: (1, 0, 0, 0, 4, 1),
    3481: (1, 0, 1),
    3721: (1, 5, 1),
    4096: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
}


def test_moduli_are_lexicographically_least():
    assert {q: finite_field(q).modulus for q in MODULI} == MODULI
    assert len(MODULI) == 40


def test_rejects_non_prime_power():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(1)


def test_vector_round_trip():
    F = finite_field(27)
    for a in F.elements:
        v = F.vector(a)
        assert len(v) == 3
        assert F.from_vector(v) == a


def test_field_axioms_random_triples():
    rng = random.Random(0)
    for q in [4, 8, 9, 16, 25, 27, 49]:
        F = finite_field(q)
        for _ in range(150):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0
            assert F.mul(a, F.one) == a
            if a != 0:
                assert F.mul(a, F.inv(a)) == F.one


def test_frobenius_is_additive():
    for q in [8, 9, 27]:
        F = finite_field(q)
        p = F.char
        for a in F.elements:
            for b in F.elements:
                assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_primitive_element_order():
    for q in [4, 5, 8, 9, 11, 16, 25, 27]:
        F = finite_field(q)
        g = F.primitive_element()
        seen = set()
        x = F.one
        for _ in range(q - 1):
            x = F.mul(x, g)
            seen.add(x)
        assert len(seen) == q - 1
        assert x == F.one


def test_finite_field_is_cached():
    assert finite_field(16) is finite_field(16)
