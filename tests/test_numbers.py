"""Tests for primality, factorization, and prime-power utilities."""

import pytest
from hypothesis import given, settings, strategies as st

from chardeg.numbers import (
    FactorizationError,
    factorize,
    is_prime,
    is_prime_power,
    prime_divisors,
    prime_power_decomposition,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_small():
    for n in range(2, 50):
        assert is_prime(n) == (n in SMALL_PRIMES)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(10**9 + 7)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_power_examples():
    assert is_prime_power(8)
    assert not is_prime_power(12)
    assert is_prime_power(343)
    assert not is_prime_power(1)


def test_is_prime_power_more():
    assert is_prime_power(2)
    assert is_prime_power(9)
    assert is_prime_power(121)
    assert is_prime_power(2**20)
    assert not is_prime_power(0)
    assert not is_prime_power(6)
    assert not is_prime_power(100)
    assert not is_prime_power(2 * 3**5)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(343) == (7, 3)
    assert prime_power_decomposition(13) == (13, 1)
    with pytest.raises(ValueError):
        prime_power_decomposition(12)
    with pytest.raises(ValueError):
        prime_power_decomposition(1)


def test_prime_powers_of_primes_beyond_trial_division():
    # 1000003 and 1000033 are primes above the trial-division bound, so no
    # factor of these numbers is found by trial division
    p, q = 1000003, 1000033
    for k in (1, 2, 3):
        assert is_prime_power(p**k)
        assert prime_power_decomposition(p**k) == (p, k)
    assert not is_prime_power(p * q)
    assert not is_prime_power(p**2 * q)
    with pytest.raises(ValueError, match=f"{p * q} is not a prime power"):
        prime_power_decomposition(p * q)


def test_factorize_examples():
    assert factorize(168) == [2, 2, 2, 3, 7]
    assert factorize(1) == []
    assert factorize(2) == [2]
    # order of Sp_4(4): 2^8 * 3^2 * 5^2 * 17
    assert factorize(979200) == [2] * 8 + [3, 3, 5, 5, 17]


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == [p, q]


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_ceiling():
    with pytest.raises(FactorizationError):
        factorize((2**167 - 1) * (2**127 - 1))


def test_prime_divisors():
    assert prime_divisors(360) == [2, 3, 5]
    assert prime_divisors(1) == []
    assert prime_divisors(97) == [97]


@settings(max_examples=300, derandomize=True)
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_round_trip(n):
    fs = factorize(n)
    prod = 1
    for f in fs:
        assert is_prime(f)
        prod *= f
    assert prod == n
    assert fs == sorted(fs)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=2, max_value=10**6))
def test_prime_power_consistency(n):
    if is_prime_power(n):
        p, e = prime_power_decomposition(n)
        assert is_prime(p) and e >= 1 and p**e == n
    else:
        with pytest.raises(ValueError):
            prime_power_decomposition(n)


@settings(max_examples=300, derandomize=True)
@given(
    st.integers(min_value=0, max_value=10**6)
    # perfect powers of prime and composite bases, which uniform draws rarely hit
    | st.builds(pow, st.integers(2, 1000), st.integers(2, 19)).filter(lambda n: n <= 10**6)
)
def test_prime_power_agrees_with_factorize(n):
    assert is_prime_power(n) == (n > 1 and len(set(factorize(n))) == 1)
