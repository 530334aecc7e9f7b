"""Small finite fields, every operation polynomial arithmetic over GF(r).

Elements of GF(r^m) are encoded as integers in [0, r^m): the base-r digits
of an encoding are the coefficients of a polynomial in the generator, least
degree first.  The modulus is the lexicographically least monic irreducible
polynomial of degree m over GF(r), ordering candidates by their coefficient
tuples in ascending degree, so every field here is reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .numbers import prime_divisors, prime_power_decomposition


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod_r(a, b, r):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % r
    return _poly_trim(tuple(out))


def _poly_mod(a, f, r):
    """a mod f for monic f, coefficients over GF(r)."""
    a = list(a)
    df = len(f) - 1
    for top in range(len(a) - 1, df - 1, -1):
        c = a[top] % r
        if c:
            for i, y in enumerate(f):
                a[top - df + i] = (a[top - df + i] - c * y) % r
    return _poly_trim(tuple(a[:df]))


def _least_irreducible(r: int, m: int) -> tuple[int, ...]:
    """The least monic f of degree m over GF(r) with no monic factor g of
    degree 1 to m//2, which makes f irreducible."""
    for low in product(range(r), repeat=m):
        f = low + (1,)
        if all(
            _poly_mod(f, g + (1,), r)
            for d in range(1, m // 2 + 1)
            for g in product(range(r), repeat=d)
        ):
            return f
    raise RuntimeError("no irreducible polynomial found")


class FiniteField:
    """GF(q) for a prime power q, with integer-encoded elements."""

    def __init__(self, q: int):
        r, m = prime_power_decomposition(q)
        self.q = q
        self.char = r
        self.degree = m
        self.modulus = _least_irreducible(r, m)
        self.one = 1

    def vector(self, a: int) -> tuple[int, ...]:
        """Base-r digit vector of length m, least degree first."""
        out = []
        for _ in range(self.degree):
            out.append(a % self.char)
            a //= self.char
        return tuple(out)

    def from_vector(self, v) -> int:
        a = 0
        for c in reversed(tuple(v)):
            a = a * self.char + c % self.char
        return a

    def add(self, a: int, b: int) -> int:
        va, vb = self.vector(a), self.vector(b)
        return self.from_vector((x + y) % self.char for x, y in zip(va, vb))

    def neg(self, a: int) -> int:
        return self.from_vector((-x) % self.char for x in self.vector(a))

    def mul(self, a: int, b: int) -> int:
        pa = _poly_trim(self.vector(a))
        pb = _poly_trim(self.vector(b))
        prod = _poly_mod(_poly_mulmod_r(pa, pb, self.char), self.modulus, self.char)
        return self.from_vector(prod + (0,) * (self.degree - len(prod)))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.pow(a, self.q - 2)

    @property
    def elements(self) -> range:
        return range(self.q)

    def primitive_element(self) -> int:
        """Least generator of the multiplicative group."""
        n = self.q - 1
        checks = [n // t for t in prime_divisors(n)] if n > 1 else []
        for g in range(1, self.q):
            if all(self.pow(g, c) != self.one for c in checks):
                return g
        raise RuntimeError("no primitive element found")


@lru_cache(maxsize=None)
def finite_field(q: int) -> FiniteField:
    return FiniteField(q)
