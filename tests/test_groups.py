"""Tests for permutation groups: order, membership, conjugacy classes."""

import itertools
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chardeg import groups
from chardeg.constructions import build, iter_catalog
from chardeg.dixon import _ClassMatrixBuilder
from chardeg.groups import GroupTooLargeError, PermGroup, conjugacy_classes, orbit
from chardeg.numbers import InvariantError
from chardeg.perms import (
    from_cycles,
    identity_perm,
    inverse,
    is_identity,
    mult,
    perm_order,
    perm_power,
)
from chardeg.subgroups import derived_subgroup, quotient_group

from oracle import oracle_classes, oracle_elements
from support import conjugate, drop_orbit_point, group_of, random_element, two_cycle_product


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
    # no levels: the empty base names the one element, row 0
    assert T.chain_index().find(np.zeros((1, 0), dtype=groups.POINT_DTYPE), "x").tolist() == [0]


def test_contains_matches_enumeration():
    G = group_of("frob:7:1:3")
    universe = set(element_tuples(G))
    rng = random.Random(7)
    for _ in range(50):
        p = tuple(rng.sample(range(G.degree), G.degree))
        assert G.contains(p) == (p in universe)
    for x in universe:
        assert G.contains(x)


def test_contains_rejects_points_moved_across_components():
    """A chain component (S_3 on 0-2), a cyclic one ((3 4)(5 6 7)) and the
    fixed points 8 and 9: an element followed by a swap across two
    components, onto a fixed point, or of two fixed points is not in G."""
    G = PermGroup(
        [from_cycles([(0, 1, 2)], 10), from_cycles([(0, 1)], 10), from_cycles([(3, 4), (5, 6, 7)], 10)]
    )
    universe = set(element_tuples(G))
    assert len(universe) == 36
    swaps = [(2, 3), (0, 5), (1, 8), (6, 9), (8, 9)]
    for x in sorted(universe):
        assert G.contains(x)
        for swap in swaps:
            p = mult(x, from_cycles([swap], 10))
            assert p not in universe and not G.contains(p), (x, swap)


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
        x = random_element(G, rng)
        assert G.contains(x)
        seen.add(x)
    assert len(seen) > 60  # should sample broadly


def test_elements_cross_validates_order():
    for spec in ["cyclic:12", "dihedral:7", "sym:4", "alt:5", "psl2:7"]:
        G = group_of(spec)
        els = element_tuples(G)
        assert len(els) == G.order
        assert sorted(els) == oracle_elements(G.generators, G.degree)


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
        assert cs.reps[0] == identity_perm(G.degree)
        assert cs.sizes[0] == 1
        elements = element_tuples(G)
        for j, r in enumerate(cs.reps):
            assert r == next(el for el, c in zip(elements, cs.class_id) if c == j)
            assert cs.class_id[elements.index(inverse(r))] == cs.inverse_class[j]
            assert cs.sizes[cs.inverse_class[j]] == cs.sizes[j]
        assert sum(cs.sizes) == G.order


def test_classes_agree_with_oracle():
    for spec in ["sym:4", "alt:5", "dihedral:9", "frob:7:1:3"]:
        G = group_of(spec)
        cs = conjugacy_classes(G)
        ocl = oracle_classes(oracle_elements(G.generators, G.degree), G.generators)
        assert sorted(cs.sizes) == sorted(len(c) for c in ocl)
        row = {x: i for i, x in enumerate(element_tuples(G))}
        assert {min(c, key=row.__getitem__) for c in ocl} == set(cs.reps)


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
    todo = [identity_perm(G.degree)]
    seen = set(todo)
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
    assert sorted(element_tuples(G)) == bfs_closure(G)


@pytest.mark.parametrize("name", ["two-cycle-product", "sym:3xcyclic:4", "psl2:7"])
def test_row_x_is_the_element_whose_transversal_digits_spell_x(name):
    G = BASE_PATHS[name]()
    factors = [T for comp in G._components for T in comp.factors()]
    radices = [len(T) for T in factors]
    E = G.elements()
    identity = identity_perm(G.degree)
    assert tuple(E[0].tolist()) == identity
    assert conjugacy_classes(G).reps[0] == identity
    for x in random.Random(0).sample(range(G.order), min(G.order, 30)) + [G.order - 1]:
        digits, rest = [], x
        for radix in reversed(radices):  # the first level is the most significant
            rest, digit = divmod(rest, radix)
            digits.insert(0, digit)
        # later levels applied first: x[p] = u_0[u_1[..u_m[p]..]]
        product = identity
        for T, digit in zip(factors, digits):
            product = mult(tuple(T[digit].tolist()), product)
        assert tuple(E[x].tolist()) == product, (name, x, digits)


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
    assert sorted(map(sorted, members)) == sorted(ocl)
    # each rep is the first row of its class, and classes are numbered by it
    first_rows = [elements.index(r) for r in cs.reps]
    assert list(cs.reps) == [m[0] for m in members]
    assert first_rows == sorted(first_rows)
    assert list(cs.sizes) == [len(m) for m in members]
    for j, r in enumerate(cs.reps):
        assert inverse(r) in members[cs.inverse_class[j]]


def last_orbit_point(index, level):
    return int(np.flatnonzero(index.levels[level].positions >= 0)[-1])


def test_missing_conjugate_is_an_invariant_error():
    # an index whose second level lost an orbit point after enumeration:
    # every element is a conjugate, so the lost ones are looked up and not found
    G = group_of("sym:4")
    index = G.chain_index()
    G._index = drop_orbit_point(index, 1, last_orbit_point(index, 1))
    with pytest.raises(InvariantError, match="a conjugate is not an element of the group"):
        conjugacy_classes(G)


def test_missing_product_fails_the_closure_check(monkeypatch):
    # an index whose first level lost an orbit point before the closure
    # check: the product of some element with a generator is then not found
    of = groups.ChainIndex.of.__func__

    def dropping(cls, *args):
        index = of(cls, *args)
        return drop_orbit_point(index, 0, last_orbit_point(index, 0))

    monkeypatch.setattr(groups.ChainIndex, "of", classmethod(dropping))
    with pytest.raises(InvariantError, match="a product is not an element of the group"):
        group_of("sym:4").elements()


def test_shared_base_images_are_an_invariant_error(monkeypatch):
    # an index that records the base images of row 0 for row 1 too: the
    # closure check reads the products themselves and passes, but row 1's
    # recorded images then find row 0
    of = groups.ChainIndex.of.__func__

    def sharing(cls, *args):
        index = of(cls, *args)
        images = index.images.copy()
        images[1] = images[0]
        return replace(index, images=images)

    monkeypatch.setattr(groups.ChainIndex, "of", classmethod(sharing))
    with pytest.raises(InvariantError, match="share their base images"):
        group_of("sym:4").elements()


STRUCTURE_LARGE = ["psl2:27", "psl2:25", "psl2:23", "sym:7", "alt:7", "agl1:49"]


@pytest.mark.parametrize("name", [*BASE_PATHS, *STRUCTURE_LARGE])
def test_index_finds_every_row_from_its_base_images(name):
    G = BASE_PATHS[name]() if name in BASE_PATHS else group_of(name)
    E = G.elements()
    found = G.chain_index().find(E[:, list(G.base())], "a row")
    assert found.tolist() == list(range(G.order))


def test_index_keeps_no_inverses_after_a_components_last_level():
    # a one-generator group of order 500 has one level: 500 x 500 inverses
    # would be read at no column, so none are kept
    index = PermGroup([from_cycles([tuple(range(500))], 500)]).chain_index()
    assert [lv.inverses.shape for lv in index.levels] == [(500, 0)]
    G = two_cycle_product()  # S_3 levels (3, 2), then the cyclic levels (2, 3)
    shapes = [lv.inverses.shape for lv in G.chain_index().levels]
    assert shapes == [(3, 8), (2, 0), (2, 8), (3, 0)]


def test_cyclic_levels_are_powers_of_the_generator():
    # <g> with g = (0 1)(2 3 4 5)(6 7 8): the stabilizer of 0 is <g^2>, on
    # whose orbit of 2 the transversal has 2 rows, then <g^4> moves 6 in 3
    g = from_cycles([(0, 1), (2, 3, 4, 5), (6, 7, 8)], 9)
    (comp,) = PermGroup([g])._components
    assert PermGroup([g]).base() == (0, 2, 6)
    assert [len(T) for T in comp.factors()] == [2, 2, 3]
    for T, s in zip(comp.factors(), [1, 2, 4]):
        powers = [identity_perm(9)]
        for _ in range(len(T) - 1):
            powers.append(mult(powers[-1], perm_power(g, s)))
        assert list(map(tuple, T.tolist())) == powers
    # a cycle that the stabilizer of the earlier base points already fixes
    # gets no level
    (comp,) = PermGroup([from_cycles([(0, 1), (2, 3)], 4)])._components
    assert [len(T) for T in comp.factors()] == [2]


@st.composite
def cycle_types(draw):
    """Cycles on at most 12 points, in a random placement: nontrivial cycle
    lengths with at least one repeat, and at least one fixed point."""
    lengths = draw(
        st.lists(st.integers(2, 4), min_size=2, max_size=4).filter(
            lambda ls: len(set(ls)) < len(ls) and sum(ls) < 12
        )
    )
    n = sum(lengths) + draw(st.integers(1, 12 - sum(lengths)))
    points = draw(st.permutations(range(n)))
    starts = itertools.accumulate(lengths, initial=0)
    return [tuple(points[a : a + m]) for a, m in zip(starts, lengths)], n


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cycle_types(), st.randoms(use_true_random=False))
def test_one_generator_groups_are_the_powers_of_the_generator(cycle_type, rng):
    cyc, n = cycle_type
    g = from_cycles(cyc, n)
    G = PermGroup([g])
    powers = [perm_power(g, k) for k in range(perm_order(g))]
    assert G.order == perm_order(g)
    assert sorted(element_tuples(G)) == sorted(set(powers))
    rows = np.array(powers, dtype=groups.POINT_DTYPE)
    found = G.chain_index().find(rows[:, list(G.base())], "a power")
    assert np.array_equal(G.elements()[found], rows)
    # probes that turn each cycle by its own power of g: members exactly
    # when the exponents agree modulo the cycle lengths
    power_set = set(powers)
    for _ in range(20):
        probe = list(range(n))
        for c in cyc:
            k = rng.randrange(len(c))
            for i, x in enumerate(c):
                probe[x] = c[(i + k) % len(c)]
        assert G.contains(probe) == (tuple(probe) in power_set)
        shuffled = rng.sample(range(n), n)
        assert G.contains(shuffled) == (tuple(shuffled) in power_set)


def s4_fixing_4_and_5():
    return PermGroup([from_cycles([(0, 1)], 6), from_cycles([(0, 1, 2, 3)], 6)])


@pytest.mark.parametrize(
    "group, outsider",
    [
        # 4 is off the orbit of the first base point 0
        (s4_fixing_4_and_5, (4, 1, 2)),
        # the identity at level 0, then 0 is off the orbit of 1 under S_4's stabilizer of 0
        (s4_fixing_4_and_5, (0, 0, 2)),
    ],
)
def test_non_members_are_not_found(group, outsider):
    G = group()
    index = G.chain_index()
    members = index.images[:2]
    probe = np.concatenate([members, np.array([outsider], dtype=groups.POINT_DTYPE)])
    assert index.find(probe[:2], "a member").tolist() == [0, 1]
    with pytest.raises(InvariantError, match="an outsider is not an element of the group"):
        index.find(probe, "an outsider")
    # three-dimensional probes, as the class-matrix builder makes them
    assert index.find(np.stack([members, members[::-1]]), "a member").tolist() == [[0, 1], [1, 0]]
    with pytest.raises(InvariantError, match="an outsider is not an element of the group"):
        index.find(np.stack([probe, probe[::-1]]), "an outsider")


def test_no_searchsorted_on_the_element_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.searchsorted called")

    monkeypatch.setattr(np, "searchsorted", refuse)
    G = group_of("sym:4")
    G.elements()
    cs = conjugacy_classes(G)
    assert quotient_group(G, derived_subgroup(G)).order == 2
    builder = _ClassMatrixBuilder(cs)
    for i in range(len(cs.reps)):
        builder.matrix(i)


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
        x = random_element(G, rng)
        y = random_element(G, rng)
        assert G.contains(mult(x, y))
        assert G.contains(inverse(x))
    assert G.order % perm_order(random_element(G, rng)) == 0
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
