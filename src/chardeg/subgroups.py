"""Subgroup constructions inside a permutation group.

Everything here returns either a plain PermGroup acting on the same points
as the parent, or a SubgroupHandle pairing the subgroup with its parent.
Deterministic behaviour matters: fallbacks enumerate elements in sorted
order, and randomized searches take an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter

from .groups import MAX_POINTS, GroupTooLargeError, PermGroup, orbit
from .numbers import InvariantError
from .perms import (
    Perm,
    commutator,
    conjugate,
    is_identity,
    mult,
    perm_order,
    perm_power,
)

_SYLOW_RANDOM_TRIES = 200
_DERIVED_SERIES_STEPS = 64


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup together with the ambient group it sits in."""

    group: PermGroup
    parent: PermGroup


def subgroup(parent: PermGroup, gens) -> SubgroupHandle:
    return SubgroupHandle(PermGroup(gens, degree=parent.degree), parent)


def normal_closure(G: PermGroup, gens) -> PermGroup:
    """Smallest normal subgroup of G containing the given elements."""
    seed = [tuple(g) for g in gens if not is_identity(tuple(g))]
    K = PermGroup(seed, degree=G.degree)
    while True:
        extra = None
        for k in K.generators:
            for g in G.generators:
                c = conjugate(k, g)
                if not K.contains(c):
                    extra = c
                    break
            if extra is not None:
                break
        if extra is None:
            return K
        K = PermGroup(list(K.generators) + [extra], degree=G.degree)


def derived_subgroup(G: PermGroup) -> SubgroupHandle:
    """Commutator subgroup [G, G]."""
    gens = G.generators
    comms = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = commutator(a, b)
            if not is_identity(c) and c not in comms:
                comms.append(c)
    return SubgroupHandle(normal_closure(G, comms), G)


def derived_series(G: PermGroup) -> list[PermGroup]:
    """G, [G,G], [[G,G],[G,G]], ... until stable or trivial."""
    series = [G]
    while len(series) <= _DERIVED_SERIES_STEPS:
        nxt = derived_subgroup(series[-1]).group
        series.append(nxt)
        if nxt.order == 1 or nxt.order == series[-2].order:
            return series
    raise RuntimeError("derived series did not stabilize")


def is_solvable(G: PermGroup) -> bool:
    return derived_series(G)[-1].order == 1


def _p_parts(n: int, p: int) -> tuple[int, int]:
    """(p-part, p'-part) of n."""
    pp = 1
    while n % p == 0:
        n //= p
        pp *= p
    return pp, n


def sylow(G: PermGroup, p: int, seed: int = 0) -> SubgroupHandle:
    """A Sylow p-subgroup of G.

    Abelian groups take p'-th powers of the generators.  Otherwise p-elements
    are adjoined greedily, first from seeded random sampling and then, if
    needed, from the sorted element list, keeping the closure a p-group.
    """
    pp, _ = _p_parts(G.order, p)
    if pp == 1:
        return SubgroupHandle(PermGroup([], degree=G.degree), G)
    if pp == G.order:
        return SubgroupHandle(G, G)
    if G.is_abelian():
        gens = []
        for g in G.generators:
            _, co = _p_parts(perm_order(g), p)
            h = perm_power(g, co)
            if not is_identity(h):
                gens.append(h)
        H = PermGroup(gens, degree=G.degree)
        if H.order != pp:
            raise InvariantError(f"abelian Sylow {p}-subgroup has order {H.order}, not {pp}")
        return SubgroupHandle(H, G)

    def p_element_from(g: Perm) -> Perm | None:
        _, co = _p_parts(perm_order(g), p)
        h = perm_power(g, co)
        return None if is_identity(h) else h

    rng = random.Random(seed)
    gens: list[Perm] = []
    closure: set[Perm] = {G.identity}

    def try_adjoin(x: Perm) -> bool:
        nonlocal gens, closure
        if x in closure:
            return False
        grown: set[Perm] = set()
        try:
            orbit(G.identity, [itemgetter(*g) for g in gens + [x]], grown, limit=pp)
        except GroupTooLargeError:  # larger than the p-part: not a p-group
            return False
        if pp % len(grown) != 0:
            return False
        gens = gens + [x]
        closure = grown
        return True

    for _ in range(_SYLOW_RANDOM_TRIES):
        if len(closure) == pp:
            break
        x = p_element_from(G.random_element(rng))
        if x is not None:
            try_adjoin(x)
    if len(closure) < pp:
        for g in G.elements():
            if len(closure) == pp:
                break
            x = p_element_from(g)
            if x is not None:
                try_adjoin(x)
    if len(closure) != pp:
        raise InvariantError("Sylow search failed to reach the full p-part")
    return SubgroupHandle(PermGroup(gens, degree=G.degree), G)


def is_normal(G: PermGroup, H: SubgroupHandle) -> bool:
    """Whether the subgroup is normal in G (generator conjugation test)."""
    if G.is_abelian():
        return True
    HG = H.group
    if HG.order in (1, G.order):
        return True
    return all(HG.contains(conjugate(h, g)) for h in HG.generators for g in G.generators)


def p_residual(
    G: PermGroup, p: int, seed: int = 0, sylow_handle: SubgroupHandle | None = None
) -> SubgroupHandle:
    """Smallest normal subgroup whose quotient has order coprime to p: the
    normal closure of a Sylow p-subgroup."""
    P = sylow_handle if sylow_handle is not None else sylow(G, p, seed=seed)
    if G.is_abelian():
        return P
    return SubgroupHandle(normal_closure(G, P.group.generators), G)


def quotient_group(G: PermGroup, N: SubgroupHandle) -> PermGroup:
    """G/N as a permutation group on the left cosets of N.

    Coset keys are the lexicographically least member; the quotient by the
    trivial subgroup is G itself, and the quotient by G is the one-point
    trivial group.
    """
    NG = N.group
    if NG.order == 1:
        return G
    if NG.order == G.order:
        return PermGroup([], degree=1)
    if not is_normal(G, N):
        raise ValueError("quotient by a non-normal subgroup")
    index = G.order // NG.order
    if index > MAX_POINTS:
        raise ValueError(f"coset space of size {index} exceeds the {MAX_POINTS}-point cap")
    n_elems = NG.elements()

    def canon(x: Perm) -> Perm:
        return min(mult(x, n) for n in n_elems)

    maps = [lambda c, a=a: canon(mult(a, c)) for a in G.generators]
    cosets = orbit(canon(G.identity), maps)
    if len(cosets) != index:
        raise InvariantError(f"{len(cosets)} cosets found for index {index}")
    cosets.sort()
    pos = {c: i for i, c in enumerate(cosets)}
    gens = [tuple(pos[canon(mult(a, c))] for c in cosets) for a in G.generators]
    Q = PermGroup(gens, degree=index)
    if Q.order != index:
        raise InvariantError(f"quotient has order {Q.order}, not {index}")
    return Q


def normalizer(G: PermGroup, H: SubgroupHandle) -> SubgroupHandle:
    """N_G(H) by scanning the elements of G; meant for small groups."""
    HG = H.group
    hgens = HG.generators
    members = [
        g for g in G.elements() if all(HG.contains(conjugate(h, g)) for h in hgens)
    ]
    return SubgroupHandle(PermGroup(members, degree=G.degree), G)
