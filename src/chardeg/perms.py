"""Permutations on {0, ..., n-1} represented as tuples of images.

A permutation ``p`` sends point ``i`` to ``p[i]``.  Products compose left
to right: ``mult(p, q)`` acts as "apply p, then q", so that the image of
``i`` under the product is ``q[p[i]]``.

Products run in C: ``operator.itemgetter(*p)(q)`` is exactly the tuple of
``q[i]`` for ``i`` in ``p``, without a Python-level loop.  The identity test
compares with a cached identity tuple, which is also a single C comparison.
A single permutation stays a Python tuple rather than a numpy array: at
the degrees used here (at most a few hundred points) numpy's per-call
overhead exceeds the whole product.  Where every element of a group is
needed at once (classes, cosets, class matrices), ``groups`` holds them as
the rows of one integer array and multiplies them with whole-array gathers.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from operator import itemgetter

Perm = tuple[int, ...]


@cache
def identity_perm(n: int) -> Perm:
    """The identity permutation on n points."""
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    """True iff p fixes every point (p may also be a list)."""
    return tuple(p) == identity_perm(len(p))


def mult(p: Perm, q: Perm) -> Perm:
    """Product "p then q": i -> q[p[i]]."""
    if len(p) < 2:
        # itemgetter returns a bare item for one index and raises for none.
        return tuple(q[i] for i in p)
    return itemgetter(*p)(q)


def inverse(p: Perm) -> Perm:
    """The two-sided inverse of p."""
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    """Multiplicative order, the lcm of the cycle lengths."""
    return lcm(*(len(c) for c in cycles(p))) if len(p) else 1


def perm_power(p: Perm, k: int) -> Perm:
    """k-th power of p (k may be negative)."""
    n = len(p)
    if k < 0:
        p, k = inverse(p), -k
    result = identity_perm(n)
    base = p
    while k:
        if k & 1:
            result = mult(result, base)
        base = mult(base, base)
        k >>= 1
    return result


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points, each cycle led by its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def from_cycles(cyclist: list[tuple[int, ...]], n: int) -> Perm:
    """Permutation on n points from disjoint cycles given as point tuples."""
    images = list(range(n))
    for cyc in cyclist:
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def check_bijection(p: Perm) -> None:
    """Raise ValueError unless p is a bijection on {0, ..., len(p)-1}."""
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation of 0..{len(p) - 1}: {p!r}")
