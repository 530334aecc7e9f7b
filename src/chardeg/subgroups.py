"""Subgroup constructions inside a permutation group.

Everything here returns either a plain PermGroup acting on the same points
as the parent, or a SubgroupHandle pairing the subgroup with its parent.
Deterministic behaviour matters: fallbacks enumerate elements in sorted
order, and randomized searches take an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from operator import itemgetter

import numpy as np

from .groups import (
    MAX_POINTS,
    POINT_DTYPE,
    GroupTooLargeError,
    PermGroup,
    _chain_order,
    _Component,
    _schreier_sims,
    _sift,
    index_orbits,
    orbit,
)
from .numbers import InvariantError
from .perms import (
    Perm,
    commutator,
    conjugate,
    identity_perm,
    is_identity,
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

    A single element k whose conjugates by the generators of G lie in <k>
    gives <k>, tested as a cyclic group without a chain.  Otherwise every
    generator of the closure K is conjugated by each generator of G once,
    from a list that grows while it is walked: a conjugate that lay in an
    earlier K still lies in every larger one.  K has one stabilizer chain
    (see _schreier_sims), started from the given elements and resumed for
    each conjugate that does not sift through it.  The chain stops as soon
    as it shows |K| = |G|, and then G itself is returned and the partial
    chain dropped; otherwise the complete chain becomes K's.
    """
    gens = list(gens)
    if not all(G.contains(g) for g in gens):
        raise ValueError("normal closure of elements outside the group")
    # the generators PermGroup(gens) keeps, in its order
    todo = list(dict.fromkeys(g for g in map(tuple, gens) if not is_identity(g)))
    if len(todo) == 1:  # <k> is normal when its conjugates lie in it
        K = PermGroup(todo, degree=G.degree)
        if all(K.contains(conjugate(todo[0], g)) for g in G.generators):
            return G if K.order == G.order else K
    levels = _schreier_sims(todo, G.degree, stop_at=G.order)
    if _chain_order(levels) >= G.order:
        return G
    for k in todo:
        for g in G.generators:
            c = conjugate(k, g)
            if not is_identity(_sift(levels, c)[0]):
                _schreier_sims([c], G.degree, stop_at=G.order, levels=levels)
                if _chain_order(levels) >= G.order:
                    return G
                todo.append(c)
    K = PermGroup(todo, degree=G.degree)
    K.adopt_chain(levels)
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
    """A Sylow p-subgroup of G: the product of one Sylow p-subgroup of each
    component of G, since the components commute and move disjoint points
    (see _component_sylow)."""
    pp, _ = _p_parts(G.order, p)
    if pp == 1:
        return SubgroupHandle(PermGroup([], degree=G.degree), G)
    if pp == G.order:
        return SubgroupHandle(G, G)
    gens = [x for comp in G._components for x in _component_sylow(comp, p, seed)]
    P = PermGroup(gens, degree=G.degree)
    if P.order != pp:
        raise InvariantError(f"Sylow {p}-subgroup has order {P.order}, not {pp}")
    return SubgroupHandle(P, G)


def _component_sylow(C: _Component, p: int, seed: int) -> list[Perm]:
    """Generators of a Sylow p-subgroup of one component C of a group.

    An abelian C (a cyclic shortcut included) gives the m-th powers of its
    generators, m the p'-part of |C|.  Otherwise the search runs inside
    C^(j), the stabilizer of the first j base points of C's chain, j the
    first level whose basic orbit has length divisible by p: the index of
    C^(j), the product of the earlier orbit lengths, is prime to p, so
    C^(j) holds a Sylow p-subgroup of C.  The p-parts of the candidates of
    _stabilizer_candidates (their m-th powers, m the p'-part of |C^(j)|)
    are adjoined greedily, keeping the closure a p-group; a full scan
    of C^(j) reaches a whole Sylow p-subgroup.
    """
    order = C.order()
    pp, m = _p_parts(order, p)
    if pp == 1:
        return []
    if pp == order:
        return list(C.gens)
    if C.is_abelian():
        return [perm_power(g, m) for g in C.gens]
    lengths = [len(lv.transversal) for lv in C.levels()]
    start = next(i for i, n in enumerate(lengths) if n % p == 0)
    m = _p_parts(prod(lengths[start:]), p)[1]
    identity = identity_perm(len(C.gens[0]))
    gens: list[Perm] = []
    closure: set[Perm] = {identity}
    for g in _stabilizer_candidates(C, start, seed):
        x = perm_power(g, m)
        if x in closure:
            continue
        grown: set[Perm] = set()
        try:
            orbit(identity, [itemgetter(*h) for h in gens + [x]], grown, limit=pp)
        except GroupTooLargeError:  # larger than the p-part: not a p-group
            continue
        if pp % len(grown) == 0:
            gens.append(x)
            closure = grown
            if len(closure) == pp:
                return gens
    raise InvariantError("Sylow search failed to reach the full p-part")


def _stabilizer_candidates(C: _Component, start: int, seed: int):
    """Elements of the stabilizer of the first start base points of C:
    seeded random ones, then, if the search needs more, every element in
    sorted order, built lazily from the stabilizer's own transversals (no
    element of the rest of the group is listed)."""
    rng = random.Random(seed)
    for _ in range(_SYLOW_RANDOM_TRIES):
        yield C.random_element(rng, start)
    yield from (tuple(row.tolist()) for row in C.stabilizer_elements(start))


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
