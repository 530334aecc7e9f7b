"""Subgroup constructions inside a permutation group.

Everything here returns either a plain PermGroup acting on the same points
as the parent, or a SubgroupHandle wrapping such a PermGroup; only
quotient_group returns a group on other points, the cosets.

Subgroups are built with PermGroup.subgroup from elements of the parent,
which are products of its checked generators, so they are neither checked
as permutations nor split into components again: the elements that lie in
different components of the parent are handed on as different parts, a
part that is a whole component keeps that component and its chain, and a
one-generator part g^m of a component <g> takes its order o(g)/gcd(o(g), m)
rather than walking its cycles.

A normal closure grows one stabilizer chain from its generators and from
each conjugate that does not sift through it, and verifies that chain once
at the end: a partial chain already proves membership for what sifts
through it, and its orbits multiply to at most the closure's order, so a
closure that reaches |G| returns G before any Schreier generator is
sifted.  The normalizer, whose generator list must stay short, resumes a
complete chain for each generator instead (see _extend_chain).
Conjugations and commutators use the inverses of G's generators kept with
G (PermGroup.conjugators).

Deterministic behaviour matters: fallbacks enumerate elements in the order
of their chain coordinates, and randomized searches take an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import prod
from operator import itemgetter

import numpy as np

from .groups import (
    POINT_DTYPE,
    GroupTooLargeError,
    PermGroup,
    _chain_order,
    _Component,
    _grow,
    _Level,
    _place,
    _points,
    _sift,
    _verify,
    index_orbits,
    orbit,
)
from .numbers import InvariantError, _require_prime
from .perms import (
    Perm,
    identity_perm,
    inverse,
    is_identity,
    mult,
    perm_power,
)

_SYLOW_RANDOM_TRIES = 200


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of a group, on the same points."""

    group: PermGroup


def subgroup(parent: PermGroup, gens) -> SubgroupHandle:
    """The subgroup of parent that the given elements generate."""
    gens = [tuple(g) for g in gens]
    if not all(parent.contains(g) for g in gens):
        raise ValueError("subgroup generated by elements outside the group")
    return SubgroupHandle(parent.subgroup(_by_components(parent, gens)))


def _by_components(G: PermGroup, elements: list[Perm]) -> list[list[Perm]]:
    """Elements of G in parts for G.subgroup: an element joins the part of
    the components of G whose points it moves, and one that moves points of
    several components merges their parts."""
    parts: list[tuple[set[int], list[Perm]]] = []
    for g in elements:
        touched = {j for j, c in enumerate(G._components) if any(g[i] != i for i in c.support)}
        merged = [part for part in parts if part[0] & touched]
        for part in merged:
            parts.remove(part)
            touched |= part[0]
        parts.append((touched, [x for _, gens in merged for x in gens] + [g]))
    return [gens for _, gens in parts]


def _extend_chain(levels: list[_Level], g: Perm, degree: int) -> bool:
    """Resume the complete chain levels with g unless g sifts through it:
    g's residue is placed where its one sift stopped, and the levels from
    there up are verified again.  Whether g was added."""
    residue, j = _sift(levels, g)
    if is_identity(residue):
        return False
    _verify(levels, _place(levels, residue, j, degree), degree)
    return True


def normal_closure(G: PermGroup, gens) -> PermGroup:
    """Smallest normal subgroup of G containing the given elements.

    A single element k whose conjugates by the generators of G lie in <k>
    gives <k>, tested as a cyclic group without a chain.  Otherwise every
    generator of the closure K is conjugated by each generator of G once,
    from a list that grows while it is walked: a conjugate that lay in an
    earlier K still lies in every larger one.  K has one stabilizer chain,
    grown (see _grow) from the given elements and from each conjugate that
    does not sift through it, which then joins K's generators; sifting
    through the chain, verified or not, shows that a conjugate lies in K.
    The orbits of that chain multiply to at most |K|, so as soon as they
    reach |G| the closure is G, and G itself is returned with no Schreier
    generator sifted.  Otherwise the chain is verified once, at the end
    (see _verify), and becomes K's; G is returned if it reaches |G| there.
    """
    gens = list(gens)
    if not all(G.contains(g) for g in gens):
        raise ValueError("normal closure of elements outside the group")
    # the generators PermGroup(gens) keeps, in its order
    todo = list(dict.fromkeys(g for g in map(tuple, gens) if not is_identity(g)))
    conjugators = G.conjugators()
    if len(todo) == 1:  # <k> is normal when its conjugates lie in it
        K = G.subgroup([todo])
        k = todo[0]
        if all(K.contains(mult(mult(v, k), g)) for v, g in conjugators):
            return G if K.order == G.order else K
    levels: list[_Level] = []
    for k in todo:
        _grow(levels, k, G.degree)
    if _chain_order(levels) >= G.order:
        return G
    for k in todo:
        for v, g in conjugators:
            c = mult(mult(v, k), g)
            if _grow(levels, c, G.degree):
                if _chain_order(levels) >= G.order:
                    return G
                todo.append(c)
    # the chain was grown from nothing, so every level needs verifying
    if _chain_order(_verify(levels, len(levels) - 1, G.degree, stop_at=G.order)) >= G.order:
        return G
    K = G.subgroup(_by_components(G, todo))
    K.adopt_chain(levels)
    return K


def derived_subgroup(G: PermGroup) -> SubgroupHandle:
    """Commutator subgroup [G, G], the normal closure of the commutators
    a^-1 b^-1 a b of G's generators (inverses from G.conjugators())."""
    comms = [mult(mult(v, w), mult(a, b)) for (v, a), (w, b) in combinations(G.conjugators(), 2)]
    return SubgroupHandle(normal_closure(G, comms))


def derived_series(G: PermGroup) -> list[PermGroup]:
    """G, [G,G], [[G,G],[G,G]], ... until stable or trivial."""
    series = [G]
    while True:
        nxt = derived_subgroup(series[-1]).group
        series.append(nxt)
        if nxt.order == 1 or nxt.order == series[-2].order:
            return series


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
    (see _component_sylow).  Each is one part of G.subgroup, with the
    p-part of its component's order as its order: for a one-generator
    component <g> the part is g^m, m the p'-part of o(g), whose order
    o(g)/gcd(o(g), m) is that p-part, so no cycles of g^m are walked.
    A p that is not a prime is refused with a ValueError."""
    _require_prime(p)
    pp, _ = _p_parts(G.order, p)
    if pp == G.order:
        return SubgroupHandle(G)
    components = G._components
    P = G.subgroup(
        [_component_sylow(comp, p, seed) for comp in components],
        [_p_parts(comp.order(), p)[0] for comp in components],
    )
    if P.order != pp:
        raise InvariantError(f"Sylow {p}-subgroup has order {P.order}, not {pp}")
    return SubgroupHandle(P)


def _component_sylow(C: _Component, p: int, seed: int) -> list[Perm]:
    """Generators of a Sylow p-subgroup of one component C of a group.

    An abelian C (a one-generator C included) gives the m-th powers of its
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
    coordinate order, built from the stabilizer's own transversals (no
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
    if HG.order == G.order:
        return True
    conjugators = G.conjugators()
    return all(HG.contains(mult(mult(v, h), g)) for h in HG.generators for v, g in conjugators)


def p_residual(
    G: PermGroup, p: int, seed: int = 0, sylow_handle: SubgroupHandle | None = None
) -> SubgroupHandle:
    """Smallest normal subgroup whose quotient has order coprime to p: the
    normal closure of a Sylow p-subgroup P.  A normal P, as in every
    abelian G, is its own closure and is returned as it is; only a
    non-normal P has its closure built.  A p that is not a prime is
    refused with a ValueError."""
    _require_prime(p)
    P = sylow_handle if sylow_handle is not None else sylow(G, p, seed=seed)
    if is_normal(G, P):
        return P
    return SubgroupHandle(normal_closure(G, P.group.generators))


def quotient_group(G: PermGroup, N: SubgroupHandle) -> PermGroup:
    """G/N as a permutation group on the left cosets of N.

    The cosets xN are the orbits of G's elements under x -> x*n for the
    generators n of N.  The base images of x*n are n[x[b]], so one gather
    and one lookup in G's chain index give each x -> x*n as a map of element
    indices.  G's element rows are walked in order, so each coset is
    numbered by its first row.  This enumerates G, so it needs |G|
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
    _points(index)
    elements, chain = G.elements(), G.chain_index()
    base, images = list(G.base()), chain.images
    by_n = [
        chain.find(np.array(n, dtype=POINT_DTYPE)[images], "a coset member").tolist()
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
    """N_G(H) by scanning the elements of G in row order; meant for small
    groups.  An abelian G normalizes every subgroup, and is returned
    unscanned.

    A member joins N's generators only when it does not sift through the
    stabilizer chain of those kept so far, and the chain is then resumed
    with it (see _extend_chain), so each generator at least doubles the
    order and N keeps one chain.  Every member must lie in N: |N| is the
    number of members.
    """
    if G.is_abelian():
        return SubgroupHandle(G)
    HG = H.group
    hgens = HG.generators
    levels: list[_Level] = []
    gens: list[Perm] = []
    members = 0
    for row in G.elements():
        g = tuple(row.tolist())
        v = inverse(g)
        if all(HG.contains(mult(mult(v, h), g)) for h in hgens):
            members += 1
            if _extend_chain(levels, g, G.degree):
                gens.append(g)
    N = G.subgroup(_by_components(G, gens))
    N.adopt_chain(levels)
    if N.order != members:
        raise InvariantError(f"normalizer has order {N.order}, not {members}")
    return SubgroupHandle(N)
