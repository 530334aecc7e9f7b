"""Tests for permutation groups: order, membership, conjugacy classes."""

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chardeg import groups
from chardeg.constructions import build, iter_catalog
from chardeg.groups import GroupTooLargeError, PermGroup, conjugacy_classes, orbit
from chardeg.numbers import InvariantError
from chardeg.perms import (
    conjugate,
    from_cycles,
    identity_perm,
    inverse,
    is_identity,
    mult,
    perm_order,
)

from oracle import oracle_classes, oracle_elements
from support import group_of, two_cycle_product


def sym_gens(n):
    return [from_cycles([(0, 1)], n), from_cycles([tuple(range(n))], n)]


def element_tuples(G):
    return list(map(tuple, G.elements().tolist()))


def test_orders_of_standard_groups():
    assert PermGroup([], degree=1).order == 1
    assert group_of("alt:5").order == 60
    assert group_of("agl1:11").order == 110
    for n in range(2, 9):
        assert PermGroup(sym_gens(n)).order == [2, 6, 24, 120, 720, 5040, 40320][n - 2]


def test_alternating_orders():
    for n in range(3, 9):
        G = group_of(f"alt:{n}")
        assert G.order == [3, 12, 60, 360, 2520, 20160][n - 3]


def test_mixed_support_generators():
    # one generator moving {0,1,2}, another moving {3,4} only
    a = from_cycles([(0, 1, 2)], 5)
    b = from_cycles([(3, 4)], 5)
    c = from_cycles([(0, 1)], 5)
    G = PermGroup([a, b, c])
    assert G.order == 12
    assert G.contains(mult(a, b))
    assert not G.contains(from_cycles([(2, 3)], 5))


def test_trivial_group_requires_degree():
    with pytest.raises(ValueError):
        PermGroup([])
    T = PermGroup([], degree=3)
    assert T.order == 1 and not T.generators and T.is_abelian()
    assert element_tuples(T) == [identity_perm(3)]


def test_contains_matches_enumeration():
    G = group_of("frob:7:1:3")
    universe = set(element_tuples(G))
    rng = random.Random(7)
    for _ in range(50):
        p = tuple(rng.sample(range(G.degree), G.degree))
        assert G.contains(p) == (p in universe)
    for x in universe:
        assert G.contains(x)


@pytest.mark.parametrize("spec", ["sym:6", "psl2:7", "agl1:27", "frob:43:1:42", "dihedral:200"])
def test_stabilizer_chain_invariants(spec):
    G = group_of(spec)
    levels = [lv for comp in G._components for lv in comp.levels()]
    assert levels
    for lv in levels:
        assert lv.inverses.keys() == lv.transversal.keys()
        for x, u in lv.transversal.items():
            assert u[lv.point] == x
            assert is_identity(mult(u, lv.inverses[x]))
    universe = set(element_tuples(G))
    assert all(G.contains(x) for x in universe)
    rng = random.Random(11)
    for _ in range(100):
        p = tuple(rng.sample(range(G.degree), G.degree))
        if p not in universe:
            assert not G.contains(p)


def test_random_element_lands_in_group():
    G = group_of("sym:5")
    rng = random.Random(0)
    seen = set()
    for _ in range(200):
        x = G.random_element(rng)
        assert G.contains(x)
        seen.add(x)
    assert len(seen) > 60  # should sample broadly


def test_elements_cross_validates_order():
    for spec in ["cyclic:12", "dihedral:7", "sym:4", "alt:5", "psl2:7"]:
        G = group_of(spec)
        els = element_tuples(G)
        assert len(els) == G.order
        assert els == sorted(set(els))


def test_enumeration_cap(monkeypatch):
    # the cap is read when elements() runs, so setting it applies at once
    monkeypatch.setattr(groups, "ENUMERATION_CAP", 1000)
    G = group_of("sym:8")
    with pytest.raises(GroupTooLargeError):
        G.elements()
    # a group made from generators alone has no order yet: its chain gives
    # one, and that decides before any element is built, exactly at the
    # boundary
    monkeypatch.setattr(groups, "ENUMERATION_CAP", 120)
    assert len(PermGroup(sym_gens(5)).elements()) == 120
    monkeypatch.setattr(groups, "ENUMERATION_CAP", 119)
    with pytest.raises(GroupTooLargeError, match="group of order 120 exceeds cap 119"):
        PermGroup(sym_gens(5)).elements()
    G = group_of("sym:5")
    assert G.order == 120  # known order: refused before enumerating
    with pytest.raises(GroupTooLargeError, match="order 120 exceeds cap 119"):
        G.elements()
    monkeypatch.setattr(groups, "ENUMERATION_CAP", G.order)
    assert len(G.elements()) == G.order
    # once the list is cached, a smaller cap is still refused
    monkeypatch.setattr(groups, "ENUMERATION_CAP", 5)
    with pytest.raises(GroupTooLargeError, match="order 120 exceeds cap 5"):
        G.elements()


def test_orbit_discovery_order_and_limit():
    maps = [lambda x: (x + 1) % 6, lambda x: (x + 3) % 6]
    assert orbit(0, maps) == [0, 1, 3, 2, 4, 5]
    assert orbit(0, maps, limit=6) == [0, 1, 3, 2, 4, 5]
    with pytest.raises(GroupTooLargeError, match="exceeds cap 5"):
        orbit(0, maps, limit=5)
    assert orbit(0, [lambda x: (x + 2) % 6]) == [0, 2, 4]


def test_orbit_shared_seen_partitions_s4_into_classes():
    G = group_of("sym:4")
    maps = [lambda x, g=g: conjugate(x, g) for g in G.generators]
    seen = set()
    classes = [orbit(x, maps, seen) for x in element_tuples(G) if x not in seen]
    assert len(classes) == 5
    assert sorted(map(len, classes)) == [1, 3, 6, 6, 8]
    assert seen == set(element_tuples(G))
    assert sum(map(len, classes)) == len(seen)  # disjoint
    assert [c[0] for c in classes] == list(conjugacy_classes(G).reps)


def test_conjugacy_class_sizes():
    cyc4 = conjugacy_classes(group_of("cyclic:4"))
    assert cyc4.sizes == (1, 1, 1, 1)

    s3 = conjugacy_classes(group_of("sym:3"))
    assert sorted(s3.sizes) == [1, 2, 3]

    a5 = conjugacy_classes(group_of("alt:5"))
    assert sorted(a5.sizes) == [1, 12, 12, 15, 20]
    assert a5.exponent() == 30

    s4 = conjugacy_classes(group_of("sym:4"))
    assert sorted(s4.sizes) == [1, 3, 6, 6, 8]


def test_class_zero_is_identity_and_reps_canonical():
    for spec in ["sym:4", "dihedral:6", "agl1:8"]:
        G = group_of(spec)
        cs = conjugacy_classes(G)
        assert cs.reps[0] == G.identity
        assert cs.sizes[0] == 1
        elements = element_tuples(G)
        for j, r in enumerate(cs.reps):
            assert r == min(el for el, c in zip(elements, cs.class_id) if c == j)
            assert cs.class_id[elements.index(inverse(r))] == cs.inverse_class[j]
            assert cs.sizes[cs.inverse_class[j]] == cs.sizes[j]
        assert sum(cs.sizes) == G.order


def test_classes_agree_with_oracle():
    for spec in ["sym:4", "alt:5", "dihedral:9", "frob:7:1:3"]:
        G = group_of(spec)
        cs = conjugacy_classes(G)
        ocl = oracle_classes(oracle_elements(G.generators, G.degree), G.generators)
        assert sorted(cs.sizes) == sorted(len(c) for c in ocl)
        assert {min(c) for c in ocl} == set(cs.reps)


BASE_PATHS = {
    # a cyclic-shortcut component alone, and beside a stabilizer chain
    "cyclic:12": lambda: group_of("cyclic:12"),
    "sym:3xcyclic:4": lambda: group_of("sym:3xcyclic:4"),
    # a cyclic component with two nontrivial cycles, so two base points
    "two-cycle-product": two_cycle_product,
    # empty bases
    "trivial-degree-3": lambda: PermGroup([], degree=3),
    "degree-1": lambda: PermGroup([], degree=1),
    "degree-0": lambda: PermGroup([], degree=0),
    # a chain of three levels, and a sharply 2-transitive group (two levels)
    "psl2:7": lambda: group_of("psl2:7"),
    "agl1:8": lambda: group_of("agl1:8"),
}


def bfs_closure(G):
    """Every element of G as a word in its generators, breadth first from
    the identity, sorted."""
    seen = {G.identity}
    todo = [G.identity]
    for x in todo:  # the list grows while it is walked
        for g in G.generators:
            y = tuple(g[i] for i in x)  # x, then g
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(seen)


@pytest.mark.parametrize("name", BASE_PATHS)
def test_element_rows_equal_the_generator_closure(name):
    G = BASE_PATHS[name]()
    E = G.elements()
    assert E.dtype == groups.POINT_DTYPE and E.shape == (G.order, G.degree)
    assert element_tuples(G) == bfs_closure(G)


def test_corrupted_transversal_entry_fails_the_closure_check():
    # S_4 on {0..3}, with points 4 and 5 fixed: a transversal entry that
    # also swaps 4 and 5 still maps the base point where it should, and no
    # base image sees the swap, but the products are no longer closed
    G = PermGroup([from_cycles([(0, 1)], 6), from_cycles([(0, 1, 2, 3)], 6)])
    (level, *_) = G._components[0].levels()
    x = next(x for x in level.transversal if x != level.point)
    level.transversal[x] = mult(level.transversal[x], from_cycles([(4, 5)], 6))
    with pytest.raises(InvariantError, match="closure disagrees with the stabilizer chain"):
        G.elements()


def test_enumeration_peak_memory_stays_near_the_element_array():
    # no list of tuples and no full-size intp copy of the rows: either alone
    # would be several times the int16 array
    G = group_of("psl2:27")
    assert G.order == 9828  # the chain is built before tracing
    tracemalloc.start()
    try:
        E = G.elements()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * E.nbytes


@pytest.mark.parametrize("name", BASE_PATHS)
def test_classes_match_oracle_on_every_base_path(name):
    G = BASE_PATHS[name]()
    cs = conjugacy_classes(G)
    ocl = oracle_classes(oracle_elements(G.generators, G.degree), G.generators)
    elements = element_tuples(G)
    members = [[x for x, c in zip(elements, cs.class_id) if c == j] for j in range(len(cs.reps))]
    assert sorted(members) == sorted(ocl)
    assert list(cs.reps) == [m[0] for m in members] == sorted(cs.reps)
    assert list(cs.sizes) == [len(m) for m in members]
    for j, r in enumerate(cs.reps):
        assert inverse(r) in members[cs.inverse_class[j]]


def drop_last_key(table):
    return replace(table, keys=table.keys[:-1], element=table.element[:-1])


def test_missing_conjugate_is_an_invariant_error():
    # a key table that lost its last key after enumeration: the conjugate of
    # that element by any generator's inverse is then looked up and not found
    G = group_of("sym:4")
    G._table = drop_last_key(G.key_table())
    with pytest.raises(InvariantError, match="a conjugate is not an element of the group"):
        conjugacy_classes(G)


def test_missing_product_fails_the_closure_check(monkeypatch):
    # a key table that lost its last key before the closure check: the
    # product of some element with a generator is then not found
    of = groups.KeyTable.of.__func__
    drop_after = classmethod(lambda cls, images: drop_last_key(of(cls, images)))
    monkeypatch.setattr(groups.KeyTable, "of", drop_after)
    with pytest.raises(InvariantError, match="a product is not an element of the group"):
        group_of("sym:4").elements()


def test_shared_base_images_are_an_invariant_error():
    images = np.array([[0, 1], [1, 0], [0, 1]], dtype=np.int32)
    with pytest.raises(InvariantError, match="share their base images"):
        groups.KeyTable.of(images)


def test_class_sizes_divide_order():
    for spec in ["sym:5", "psl2:7", "extraspecial:3", "frob:2:2:3"]:
        G = group_of(spec)
        cs = conjugacy_classes(G)
        for s in cs.sizes:
            assert G.order % s == 0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.permutations(range(6)).map(tuple), min_size=1, max_size=3))
def test_closure_membership_property(gens):
    G = PermGroup(gens, degree=6)
    rng = random.Random(1)
    for _ in range(20):
        x = G.random_element(rng)
        y = G.random_element(rng)
        assert G.contains(mult(x, y))
        assert G.contains(inverse(x))
    assert G.order % perm_order(G.random_element(rng)) == 0
    assert len(G.elements()) == G.order


def separated_by_base(G: PermGroup) -> bool:
    base = G.base()
    return len({tuple(x[b] for b in base) for x in element_tuples(G)}) == G.order


def test_base_concatenates_component_bases():
    G = two_cycle_product()
    assert G.order == 36
    assert G.base() == (0, 1, 3, 5)
    assert separated_by_base(G)
    assert PermGroup([], degree=3).base() == ()


def test_base_images_separate_catalog_groups():
    groups_seen = 0
    for recipe in iter_catalog(60):
        G = build(recipe).group
        if not G.is_abelian():
            groups_seen += 1
            assert separated_by_base(G), recipe.spec
    assert groups_seen > 20


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.permutations(range(5)).map(tuple), min_size=1, max_size=3))
def test_base_images_separate_subgroups_of_sym5(gens):
    assert separated_by_base(PermGroup(gens, degree=5))
