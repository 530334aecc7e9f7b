"""Shared helpers for the test suite."""

from chardeg.constructions import BuiltGroup, build, parse_group_spec
from chardeg.groups import PermGroup
from chardeg.perms import from_cycles


def built_of(spec: str) -> BuiltGroup:
    return build(parse_group_spec(spec))


def group_of(spec: str) -> PermGroup:
    return built_of(spec).group


def two_cycle_product() -> PermGroup:
    """S_3 on {0, 1, 2} times a cyclic group of order 6 whose generator has
    two cycles, so the cyclic component contributes two base points."""
    return PermGroup(
        [from_cycles([(0, 1, 2)], 8), from_cycles([(0, 1)], 8), from_cycles([(3, 4), (5, 6, 7)], 8)]
    )
