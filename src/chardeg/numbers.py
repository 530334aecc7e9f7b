"""Integer number theory helpers: primality, prime powers, factorization.

Factorization uses trial division for small factors and Brent's variant of
Pollard's rho beyond that, with a deterministic retry schedule so repeated
runs factor identically.  A prime power is found through exact integer
roots, so its test is as sound as is_prime.
"""

from __future__ import annotations

from math import gcd

# Below 3.3 * 10^24 these bases make Miller-Rabin a proven primality test;
# beyond that the fixed-base test is heuristic but deterministic.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

TRIAL_DIVISION_BOUND = 10**6
FACTORIZATION_CEILING = 10**40


class FactorizationError(Exception):
    """Raised when a cofactor resists the configured factorization effort."""


class InvariantError(AssertionError):
    """Raised when a computed result breaks an invariant it must satisfy.

    The checks raise it explicitly instead of using ``assert``, so they
    still run under ``python -O``."""


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with fixed bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # a composite below 41^2 has a prime factor of at most 37
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")


def _integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1 (integer Newton iteration from above)."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(n: int) -> tuple[int, int] | None:
    """(r, k) with n = r^k, r prime and k >= 1, or None if n is no prime power.

    r is the exact k-th root of n for the largest such k: every other exact
    root of n is a power of r, so n is a prime power exactly when r is prime.
    """
    if n < 2:
        return None
    for k in range(n.bit_length() - 1, 0, -1):
        r = _integer_root(n, k)
        if r**k == n:
            return (r, k) if is_prime(r) else None
    return None


def is_prime_power(n: int) -> bool:
    """True iff n = r^k for a prime r and k >= 1 (1 is not a prime power)."""
    return _prime_power(n) is not None


def prime_power_decomposition(n: int) -> tuple[int, int]:
    """Write n = r^k with r prime; raise ValueError if n is not a prime power."""
    found = _prime_power(n)
    if found is None:
        raise ValueError(f"{n} is not a prime power")
    return found


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n via Brent-cycle Pollard rho."""
    if n % 2 == 0:
        return 2
    # Deterministic schedule over the increment constant and starting point.
    for c in range(1, 64):
        y, m, g, r, q = 2 + c, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationError(f"rho schedule exhausted on cofactor {n}")


def factorize(n: int) -> list[int]:
    """Sorted prime factors of n with multiplicity; [] for n = 1.

    Trial division to 10^6, then Brent rho on what remains.  A composite
    cofactor above FACTORIZATION_CEILING raises FactorizationError naming it.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors: list[int] = []
    for p in (2, 3, 5):
        while n % p == 0:
            factors.append(p)
            n //= p
    f = 7
    while f <= TRIAL_DIVISION_BOUND and f * f <= n:
        for step in (0, 4, 6, 10, 12, 16, 22, 24):
            d = f + step
            while n % d == 0:
                factors.append(d)
                n //= d
        f += 30
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors.append(m)
            continue
        if m > FACTORIZATION_CEILING:
            raise FactorizationError(
                f"composite cofactor {m} exceeds ceiling {FACTORIZATION_CEILING}"
            )
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors)


def prime_divisors(n: int) -> list[int]:
    """Sorted distinct primes dividing n."""
    return sorted(set(factorize(n)))
