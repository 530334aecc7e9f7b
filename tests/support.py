"""Shared helpers for the test suite."""

import random
from dataclasses import replace

from chardeg.constructions import BuiltGroup, build, parse_group_spec
from chardeg.groups import ChainIndex, PermGroup
from chardeg.perms import Perm, from_cycles, identity_perm, inverse, mult


def built_of(spec: str) -> BuiltGroup:
    return build(parse_group_spec(spec))


def group_of(spec: str) -> PermGroup:
    return built_of(spec).group


def conjugate(p: Perm, g: Perm) -> Perm:
    """g^-1 p g, the conjugate of p by g."""
    return mult(mult(inverse(g), p), g)


def commutator(a: Perm, b: Perm) -> Perm:
    """a^-1 b^-1 a b."""
    return mult(mult(inverse(a), inverse(b)), mult(a, b))


def random_element(G: PermGroup, rng: random.Random) -> Perm:
    """A uniform random element of G: the product of one uniform random
    element of each of its components."""
    out = identity_perm(G.degree)
    for comp in G._components:
        out = mult(out, comp.random_element(rng))
    return out


def two_cycle_product() -> PermGroup:
    """S_3 on {0, 1, 2} times a cyclic group of order 6 whose generator has
    two cycles, so the cyclic component contributes two base points."""
    return PermGroup(
        [from_cycles([(0, 1, 2)], 8), from_cycles([(0, 1)], 8), from_cycles([(3, 4), (5, 6, 7)], 8)]
    )


def drop_orbit_point(index: ChainIndex, level: int, point: int) -> ChainIndex:
    """A copy of the index whose given level no longer knows the point as
    part of its orbit, so that no element mapping the level's base point
    there (after the earlier levels are divided off) is found."""
    lv = index.levels[level]
    positions = lv.positions.copy()
    positions[point] = -1
    levels = list(index.levels)
    levels[level] = replace(lv, positions=positions)
    return replace(index, levels=tuple(levels))
