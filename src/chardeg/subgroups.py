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

import numpy as np

from .groups import (
    MAX_POINTS,
    POINT_DTYPE,
    GroupTooLargeError,
    PermGroup,
    index_orbits,
    is_whole_group,
    orbit,
)
from .numbers import InvariantError
from .perms import (
    Perm,
    commutator,
    conjugate,
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
    """Smallest normal subgroup of G containing the given elements.

    Every generator of the closure K is conjugated by each generator of G
    once, from a list that grows while it is walked: a conjugate that lay in
    an earlier K still lies in every larger one.  Each K's chain stops as
    soon as it shows |K| = |G|, and then G itself is returned.
    """
    gens = list(gens)
    if not all(G.contains(g) for g in gens):
        raise ValueError("normal closure of elements outside the group")
    K = PermGroup(gens, degree=G.degree)
    if is_whole_group(K, G):
        return G
    todo = list(K.generators)
    for k in todo:
        for g in G.generators:
            c = conjugate(k, g)
            if not K.contains(c):
                K = PermGroup(K.generators + (c,), degree=G.degree)
                if is_whole_group(K, G):
                    return G
                todo.append(c)
    return K


def derived_subgroup(G: PermGroup) -> SubgroupHandle:
    """Commutator subgroup [G, G]."""
    gens = G.generators
    comms = [commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
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

    Abelian groups take p'-th powers of the generators.  Otherwise the
    p-parts of candidate elements are adjoined greedily, keeping the closure
    a p-group; the candidates are seeded random samples and then, if needed,
    the sorted element list.
    """
    pp, _ = _p_parts(G.order, p)
    if pp == 1:
        return SubgroupHandle(PermGroup([], degree=G.degree), G)
    if pp == G.order:
        return SubgroupHandle(G, G)

    def p_part(g: Perm) -> Perm:
        return perm_power(g, _p_parts(perm_order(g), p)[1])

    if G.is_abelian():
        H = PermGroup([p_part(g) for g in G.generators], degree=G.degree)
        if H.order != pp:
            raise InvariantError(f"abelian Sylow {p}-subgroup has order {H.order}, not {pp}")
        return SubgroupHandle(H, G)

    def candidates():
        rng = random.Random(seed)
        for _ in range(_SYLOW_RANDOM_TRIES):
            yield G.random_element(rng)
        # lazy: G is enumerated only if sampling falls short, and its rows
        # become tuples one at a time
        yield from (tuple(row.tolist()) for row in G.elements())

    gens: list[Perm] = []
    closure: set[Perm] = {G.identity}
    for g in candidates():
        x = p_part(g)
        if x in closure:
            continue
        grown: set[Perm] = set()
        try:
            orbit(G.identity, [itemgetter(*h) for h in gens + [x]], grown, limit=pp)
        except GroupTooLargeError:  # larger than the p-part: not a p-group
            continue
        if pp % len(grown) == 0:
            gens.append(x)
            closure = grown
            if len(closure) == pp:
                return SubgroupHandle(PermGroup(gens, degree=G.degree), G)
    raise InvariantError("Sylow search failed to reach the full p-part")


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

    The cosets xN are the orbits of G's elements under x -> x*n for the
    generators n of N.  The base images of x*n are n[x[b]], so one gather
    and one lookup in G's chain index give each x -> x*n as a map of element
    indices.  G's sorted elements are walked in order, so each coset is
    numbered by its least member.  This enumerates G, so it needs |G|
    within ENUMERATION_CAP.  The quotient by the trivial subgroup is G
    itself, and the quotient by G is the one-point trivial group.
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
    elements, chain = G.elements(), G.chain_index()
    base, images = list(G.base()), chain.images
    by_n = [
        chain.find(np.array(n, dtype=POINT_DTYPE)[images], "a coset member").tolist().__getitem__
        for n in NG.generators
    ]
    coset_of, reps = index_orbits(len(elements), by_n)
    if len(reps) != index:
        raise InvariantError(f"{len(reps)} cosets found for index {index}")
    # the base images of a*r are r[a[b]]
    rep_rows = elements[reps]
    gens = [
        tuple(coset_of[chain.find(rep_rows[:, [a[b] for b in base]], "a product")].tolist())
        for a in G.generators
    ]
    Q = PermGroup(gens, degree=index)
    if Q.order != index:
        raise InvariantError(f"quotient has order {Q.order}, not {index}")
    return Q


def normalizer(G: PermGroup, H: SubgroupHandle) -> SubgroupHandle:
    """N_G(H) by scanning the elements of G; meant for small groups."""
    HG = H.group
    hgens = HG.generators
    rows = (tuple(row.tolist()) for row in G.elements())
    members = [g for g in rows if all(HG.contains(conjugate(h, g)) for h in hgens)]
    return SubgroupHandle(PermGroup(members, degree=G.degree), G)
