"""Tests for subgroup operations: derived series, Sylow subgroups, quotients."""

import random
from math import prod
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chardeg import constructions, groups, perms, subgroups
from chardeg.constructions import iter_catalog
from chardeg.dixon import degree_spectrum
from chardeg.groups import GroupTooLargeError, PermGroup, conjugacy_classes, orbit
from chardeg.numbers import factorize, prime_divisors
from chardeg.perms import (
    from_cycles,
    identity_perm,
    is_identity,
    mult,
    perm_order,
    perm_power,
)
from chardeg.subgroups import (
    derived_series,
    derived_subgroup,
    is_normal,
    is_solvable,
    normal_closure,
    normalizer,
    p_residual,
    quotient_group,
    subgroup,
    sylow,
)

from support import commutator, conjugate, group_of, random_element


def test_derived_subgroup():
    assert derived_subgroup(group_of("sym:4")).group.order == 12
    assert derived_subgroup(group_of("alt:5")).group.order == 60
    assert derived_subgroup(group_of("cyclic:12")).group.order == 1
    assert derived_subgroup(group_of("dihedral:6")).group.order == 3
    assert derived_subgroup(group_of("frob:7:1:3")).group.order == 7


def test_derived_subgroup_is_normal_with_abelian_quotient():
    for spec in ["sym:4", "dihedral:10", "frob:5:1:4", "agl1:9"]:
        G = group_of(spec)
        D = derived_subgroup(G)
        assert is_normal(G, D)
        Q = quotient_group(G, D)
        assert Q.is_abelian()
        assert Q.order * D.group.order == G.order


def test_derived_series_strictly_decreases_until_stable():
    G = group_of("sym:4")
    series = derived_series(G)
    orders = [H.order for H in series]
    assert orders == [24, 12, 4, 1]

    P = group_of("alt:5")
    assert [H.order for H in derived_series(P)][-1] == 60


def test_is_solvable():
    assert is_solvable(group_of("sym:4"))
    assert is_solvable(group_of("extraspecial:3"))
    assert is_solvable(group_of("frob:13:1:4"))
    assert not is_solvable(group_of("alt:5"))
    assert not is_solvable(group_of("psl2:7"))
    assert not is_solvable(group_of("sym:5"))


def test_sylow_for_a_prime_not_dividing_the_order_is_trivial():
    for spec, p in [("sym:4", 5), ("psl2:7", 5), ("sym:3xcyclic:4", 7), ("cyclic:1", 2)]:
        G = group_of(spec)
        P = sylow(G, p)
        assert P.group.order == 1 and not P.group.generators, spec
        assert is_normal(G, P), spec


def test_sylow_orders():
    assert sylow(group_of("cyclic:6"), 3).group.order == 3
    assert sylow(group_of("sym:4"), 2).group.order == 8
    assert sylow(group_of("alt:5"), 5).group.order == 5
    assert sylow(group_of("alt:5"), 2).group.order == 4
    assert sylow(group_of("psl2:7"), 7).group.order == 7
    assert sylow(group_of("psl2:7"), 2).group.order == 8
    assert sylow(group_of("sym:4"), 5).group.order == 1


def test_sylow_is_p_subgroup_and_seed_stable():
    for spec, p in [("sym:5", 2), ("sym:5", 3), ("agl1:8", 2), ("frob:11:1:5", 5)]:
        G = group_of(spec)
        P0 = sylow(G, p, seed=0)
        P1 = sylow(G, p, seed=1)
        assert P0.group.order == P1.group.order
        n = G.order
        while n % p == 0:
            n //= p
        assert P0.group.order * n == G.order
        for x in map(tuple, P0.group.elements().tolist()):
            assert G.contains(x)


@pytest.mark.parametrize("spec", ["psl2:7", "sym:6"])
def test_sylow_rejects_oversized_closures_and_still_reaches_full_order(spec, monkeypatch):
    refused = []

    def counting_orbit(*args, **kwargs):
        try:
            return orbit(*args, **kwargs)
        except GroupTooLargeError:
            refused.append(kwargs.get("limit"))
            raise

    monkeypatch.setattr(subgroups, "orbit", counting_orbit)
    G = group_of(spec)
    for p in prime_divisors(G.order):
        pp = p ** factorize(G.order).count(p)
        assert sylow(G, p).group.order == pp
    assert refused  # some adjoined element generated more than the p-part


@pytest.mark.parametrize("spec", ["sym:5", "psl2:7", "agl1:8"])
def test_sylow_samples_without_enumerating_the_group(spec, monkeypatch):
    G = group_of(spec)  # a fresh group: nothing enumerated yet
    calls = []
    enumerate_elements = PermGroup.elements

    def counting_elements(self):
        calls.append(self)
        return enumerate_elements(self)

    monkeypatch.setattr(PermGroup, "elements", counting_elements)
    for p in prime_divisors(G.order):
        assert sylow(G, p).group.order == p ** factorize(G.order).count(p)
    assert calls == []


@pytest.mark.parametrize("spec", ["sym:5", "psl2:7"])
def test_sylow_coordinate_scan_alone_reaches_the_full_p_part(spec, monkeypatch):
    monkeypatch.setattr(subgroups, "_SYLOW_RANDOM_TRIES", 0)
    G = group_of(spec)
    for p in prime_divisors(G.order):
        assert sylow(G, p).group.order == p ** factorize(G.order).count(p)


@pytest.mark.parametrize(
    "spec, p", [("psl2:27", 3), ("psl2:25", 5), ("sym:7", 3), ("agl1:49", 2)]
)
@pytest.mark.parametrize("tries", [subgroups._SYLOW_RANDOM_TRIES, 0])
def test_sylow_searches_inside_the_stabilizer_of_p_prime_index(spec, p, tries, monkeypatch):
    monkeypatch.setattr(subgroups, "_SYLOW_RANDOM_TRIES", tries)
    G = group_of(spec)
    (C,) = G._components
    drawn = []
    stabilizer_candidates = subgroups._stabilizer_candidates

    def recording(comp, start, seed):
        for g in stabilizer_candidates(comp, start, seed):
            drawn.append((comp.base()[:start], g))
            yield g

    monkeypatch.setattr(subgroups, "_stabilizer_candidates", recording)
    pp = p ** factorize(G.order).count(p)
    assert sylow(G, p).group.order == pp
    skipped = drawn[0][0]
    lengths = [len(lv.transversal) for lv in C.levels()]
    # every earlier orbit length is prime to p, so the index is too
    assert skipped and all(n % p for n in lengths[: len(skipped)])
    assert lengths[len(skipped)] % p == 0
    assert all(fixed == skipped for fixed, _ in drawn)
    assert all(g[b] == b for _, g in drawn for b in skipped)


@pytest.mark.parametrize("spec", ["sym:5", "psl2:7", "agl1:9", "sym:3xsym:3"])
def test_stabilizer_elements_are_the_rows_fixing_earlier_base_points(spec):
    G = group_of(spec)
    C = G._components[0]
    base = C.base()
    for start in range(len(base) + 1):
        rows = C.stabilizer_elements(start)
        elements = G.elements()
        # the rows of G that fix the skipped points and the other components
        fixed = [b for b in G.base() if b not in base[start:]]
        expected = elements[(elements[:, fixed] == fixed).all(axis=1)]
        assert np.array_equal(rows, expected), (spec, start)


@pytest.mark.parametrize("spec", ["sym:4xcyclic:6", "sym:3xsym:3", "extraspecial:3xcyclic:3"])
def test_sylow_of_a_product_takes_one_sylow_subgroup_per_component(spec, monkeypatch):
    G = group_of(spec)
    assert len(G._components) > 1
    calls = []
    component_sylow = subgroups._component_sylow

    def recording(comp, p, seed):
        gens = component_sylow(comp, p, seed)
        calls.append((comp, p, gens))
        return gens

    monkeypatch.setattr(subgroups, "_component_sylow", recording)
    for p in prime_divisors(G.order):
        calls.clear()
        pp = p ** factorize(G.order).count(p)
        P = sylow(G, p).group
        assert P.order == pp
        if pp == G.order:
            assert P is G and calls == []
            continue
        assert [comp for comp, *_ in calls] == G._components
        for comp, _, gens in calls:
            comp_pp = p ** factorize(comp.order()).count(p)
            assert all(i in comp.support for g in gens for i, j in enumerate(g) if i != j)
            part = PermGroup(gens, degree=G.degree).order if gens else 1
            assert part == comp_pp


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sylow_of_psl2_64_does_not_enumerate_the_group(seed, monkeypatch):
    G = constructions.psl2(64)
    assert G.order == 262_080 > groups.ENUMERATION_CAP
    monkeypatch.setattr(PermGroup, "elements", lambda self: pytest.fail("G was enumerated"))
    P = sylow(G, 2, seed=seed).group
    assert P.order == 64
    assert all(G.contains(g) for g in P.generators)


def test_sylow_normality_matches_the_p_power_classes():
    """The Sylow p-subgroup is normal exactly when it is the set of
    p-elements, that is when the classes of p-power order make up |G|_p."""
    checked = 0
    for r in iter_catalog(200):
        G = group_of(r.spec)
        if G.is_abelian():
            continue
        classes = conjugacy_classes(G)
        for p in prime_divisors(G.order):
            pp = p ** factorize(G.order).count(p)
            p_elements = sum(
                size
                for rep, size in zip(classes.reps, classes.sizes)
                if pp % perm_order(rep) == 0
            )
            assert is_normal(G, sylow(G, p)) == (p_elements == pp), (r.spec, p)
            checked += 1
    assert checked > 100


def test_is_normal():
    A4 = group_of("frob:2:2:3")
    V = derived_subgroup(A4)
    assert V.group.order == 4
    assert is_normal(A4, V)

    S4 = group_of("sym:4")
    P2 = sylow(S4, 2)
    assert not is_normal(S4, P2)
    assert is_normal(S4, subgroup(S4, [identity_perm(S4.degree)]))


def test_subgroup_refuses_elements_outside_the_parent():
    # S_3 on 5 points: <(3 4)> is no subgroup of it, yet its generator's
    # conjugates stay in it, so is_normal would accept it
    S3 = PermGroup([from_cycles([(0, 1)], 5), from_cycles([(0, 1, 2)], 5)])
    with pytest.raises(ValueError, match="outside the group"):
        subgroup(S3, [from_cycles([(3, 4)], 5)])
    assert subgroup(S3, [from_cycles([(0, 2)], 5)]).group.order == 2


def test_p_residual():
    C6 = group_of("cyclic:6")
    R = p_residual(C6, 3)
    assert R.group.order == 3

    S4 = group_of("sym:4")
    R2 = p_residual(S4, 2)
    assert R2.group.order == 24

    A5 = group_of("alt:5")
    assert p_residual(A5, 5).group.order == 60


def test_p_residual_is_normal_with_coprime_quotient():
    cases = [("sym:3", 3), ("cyclic:12", 2), ("frob:7:1:3", 7), ("agl1:11", 11)]
    for spec, p in cases:
        G = group_of(spec)
        R = p_residual(G, p)
        assert is_normal(G, R)
        q = G.order // R.group.order
        assert q % p != 0
        # no proper subgroup between R and G has p'-index: the quotient of G
        # by R is the largest p'-quotient reachable through a Sylow closure
        assert R.group.order % p == 0 or R.group.order == 1


def test_p_residual_is_the_sylow_exactly_when_it_is_normal():
    """Over iter_catalog(300): a normal Sylow p-subgroup is returned as its
    own p-residual, and a non-normal one gives the group its normal closure
    gives, by order and by sampled members of each."""
    rng = random.Random(24)
    closures = 0
    for r in iter_catalog(300):
        G = group_of(r.spec)
        for p in prime_divisors(G.order):
            P = sylow(G, p)
            R = p_residual(G, p, sylow_handle=P)
            assert (R is P) == is_normal(G, P), (r.spec, p)
            if R is P:
                continue
            closures += 1
            K = normal_closure(G, P.group.generators)
            assert R.group.order == K.order, (r.spec, p)
            for _ in range(3):
                assert K.contains(random_element(R.group, rng))
                assert R.group.contains(random_element(K, rng))
    assert closures > 100


@pytest.mark.parametrize("p", [4, 6, 0, -2, 1])
def test_sylow_and_p_residual_refuse_a_p_that_is_not_prime(p, monkeypatch):
    # unchecked, p = 4 gives a subgroup of order 4, p = 6 raises
    # StopIteration, p = 0 ZeroDivisionError, p = -2 InvariantError, and
    # p = 1 never returns from _p_parts, which must not run at all
    G = group_of("sym:4")
    P = sylow(G, 2)
    monkeypatch.setattr(subgroups, "_p_parts", lambda n, p: pytest.fail("p reached _p_parts"))
    for call in (lambda: sylow(G, p), lambda: p_residual(G, p), lambda: p_residual(G, p, sylow_handle=P)):
        with pytest.raises(ValueError, match=f"^p = {p} is not a prime$"):
            call()


def test_quotient_group():
    S4 = group_of("sym:4")
    V = derived_subgroup(derived_subgroup(S4).group)
    assert V.group.order == 4
    Q = quotient_group(S4, subgroup(S4, V.group.generators))
    assert Q.order == 6
    assert not Q.is_abelian()

    C6 = group_of("cyclic:6")
    C3 = sylow(C6, 3)
    Q2 = quotient_group(C6, C3)
    assert Q2.order == 2

    # quotient by the trivial subgroup is the group itself
    T = subgroup(S4, [identity_perm(S4.degree)])
    assert quotient_group(S4, T) is S4

    # quotient by the whole group is trivial
    W = subgroup(S4, S4.generators)
    assert quotient_group(S4, W).order == 1


def test_quotient_refuses_a_coset_space_above_the_point_cap():
    # |G| = 9,900 and N = <g^50> has order 2, so G/N would act on 4,950 cosets
    G = group_of("cyclic:100xcyclic:99")
    N = subgroup(G, [perm_power(G.generators[0], 50)])
    assert N.group.order == 2
    with pytest.raises(ValueError, match="degree 4950 exceeds the 4096-point cap"):
        quotient_group(G, N)


def reference_quotient(G, N):
    """G/N on the cosets x*N, each keyed by the row of its least member in
    G.elements() and numbered in key order."""
    n_elems = list(map(tuple, N.elements().tolist()))
    elements = list(map(tuple, G.elements().tolist()))
    row = {x: i for i, x in enumerate(elements)}

    def key(x):
        return min(row[mult(x, n)] for n in n_elems)

    cosets = sorted({key(x) for x in elements})
    pos = {c: i for i, c in enumerate(cosets)}
    gens = [[pos[key(mult(a, elements[c]))] for c in cosets] for a in G.generators]
    return PermGroup(gens, degree=len(cosets))


@pytest.mark.parametrize(
    "spec",
    ["sym:4", "dihedral:12", "frob:7:1:6", "agl1:9", "sym:3xcyclic:4", "psl2:7xcyclic:3"],
)
def test_quotient_generators_match_the_least_member_reference(spec):
    G = group_of(spec)
    N = derived_subgroup(G)
    if spec == "sym:4":  # the Klein four group V_4 = A_4'
        N = subgroup(G, derived_subgroup(N.group).group.generators)
    assert 1 < N.group.order < G.order
    Q = quotient_group(G, N)
    assert Q.degree == G.order // N.group.order
    assert Q.generators == reference_quotient(G, N.group).generators


def test_quotient_class_count_not_above_parent():
    G = group_of("sym:4")
    N = derived_subgroup(G)
    Q = quotient_group(G, N)
    assert len(conjugacy_classes(Q).reps) <= len(conjugacy_classes(G).reps)


def test_normal_closure():
    S4 = group_of("sym:4")
    # closure of a single transposition is all of S4
    elements = map(tuple, S4.elements().tolist())
    t = next(g for g in elements if sorted(i for i, j in enumerate(g) if i != j) == [0, 1])
    assert normal_closure(S4, [t]).order == 24
    # closure of a double transposition is the Klein four group
    d = (1, 0, 3, 2)
    K = normal_closure(S4, [d])
    assert K.order == 4
    for x in map(tuple, K.elements().tolist()):
        for g in S4.generators:
            assert K.contains(conjugate(x, g))


def record_chains(monkeypatch) -> list:
    """Record (step, the levels, their orbit product after the step) for
    every call of _grow, _verify and _schreier_sims, in either module."""
    built = []

    def recording(name, fn):
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            levels = out if name == "_schreier_sims" else args[0]
            built.append((name, levels, prod(len(lv.transversal) for lv in levels)))
            return out

        return step

    for name in ("_grow", "_verify", "_schreier_sims"):
        step = recording(name, getattr(groups, name))
        for module in (groups, subgroups):
            if hasattr(module, name):  # subgroups imports no _schreier_sims
                monkeypatch.setattr(module, name, step)
    return built


def sifted_schreier_generators(monkeypatch) -> list:
    """Every element sifted from below the top level: only the
    Schreier-generator loop of _verify sifts from there."""
    tests = []
    sift = groups._sift

    def counting(levels, p, start=0):
        if start > 0:
            tests.append(p)
        return sift(levels, p, start)

    monkeypatch.setattr(groups, "_sift", counting)
    return tests


def test_normal_closure_that_is_whole_returns_the_group_itself(monkeypatch):
    S5 = group_of("sym:5")
    S5.elements()  # chain, elements and index built once, here
    built = record_chains(monkeypatch)
    assert normal_closure(S5, [(1, 0, 2, 3, 4)]) is S5
    # one chain was grown, never verified, and its last step reached |G|
    assert built and {name for name, *_ in built} == {"_grow"}
    assert all(levels is built[0][1] for _, levels, _ in built)
    assert built[-1][2] == 120
    A5 = group_of("alt:5")
    assert derived_subgroup(A5).group is A5
    # a proper closure keeps its complete chain, verified once at the end
    built.clear()
    K = normal_closure(S5, [(1, 2, 0, 3, 4)])
    assert K is not S5 and K.order == 60
    assert [name for name, *_ in built].count("_verify") == 1 and built[-1][0] == "_verify"
    assert [lv for comp in K._components for lv in comp._levels] == built[-1][1]
    assert K.elements().shape == (60, 5)


def test_a_closure_inverts_each_generator_of_the_group_once(monkeypatch):
    G = group_of("psl2:7")
    G.order
    k = sylow(G, 7).group.generators[0]
    inverted, placed = [], []
    inverse, grow = perms.inverse, groups._grow

    def counting(p):
        inverted.append(p)
        return inverse(p)

    def growing(levels, g, degree):
        grown = grow(levels, g, degree)
        placed.extend([g] if grown else [])
        return grown

    for module in (perms, groups, subgroups):
        monkeypatch.setattr(module, "inverse", counting)
    monkeypatch.setattr(subgroups, "_grow", growing)
    assert normal_closure(G, [k]) is G
    # G's generators once, then one inverse per residue placed; no
    # conjugate inverts its conjugator again
    assert len(inverted) == len(G.generators) + len(placed)
    assert inverted[: len(G.generators)] == list(G.generators)
    # the inverses are kept with G, for every later conjugation test
    inverted.clear()
    placed.clear()
    assert normal_closure(G, [mult(k, k)]) is G
    assert len(inverted) == len(placed)


def test_normal_closure_refuses_elements_outside_the_group():
    A4 = group_of("alt:4")
    with pytest.raises(ValueError, match="outside the group"):
        normal_closure(A4, [(1, 0, 2, 3)])


def test_partial_chain_stops_at_the_given_order(monkeypatch):
    gens = [from_cycles([(0, 1)], 7), from_cycles([tuple(range(7))], 7)]
    products = []

    def counted(stop_at):
        # the chain of <(0 1)>, with the 7-cycle's residue placed where its
        # sift stops and the chain verified from there
        levels = groups._schreier_sims(gens[:1], 7)
        products.clear()
        residue, j = groups._sift(levels, gens[1])
        assert groups._verify(levels, groups._place(levels, residue, j, 7), 7, stop_at) is levels
        return levels, len(products)

    monkeypatch.setattr(groups, "mult", lambda p, q: products.append(1) or mult(p, q))
    full, full_products = counted(None)
    assert prod(len(lv.transversal) for lv in full) == 5040
    partial, partial_products = counted(5040)
    assert prod(len(lv.transversal) for lv in partial) == 5040
    # the Schreier generators of the top level are never sifted
    assert partial_products < full_products / 2
    # a bound above the order is never reached, and the chain is complete
    again, again_products = counted(5041)
    assert [lv.transversal for lv in again] == [lv.transversal for lv in full]
    assert again_products == full_products


def test_resumed_chain_matches_a_chain_built_from_scratch():
    S6 = group_of("sym:6")
    gens = [from_cycles([(0, 1)], 6), from_cycles([(0, 1, 2)], 6), from_cycles([(2, 3, 4, 5)], 6)]
    levels = groups._schreier_sims(gens[:1], 6)
    for g in gens[1:]:
        assert subgroups._extend_chain(levels, g, 6)
    assert groups._chain_order(levels) == PermGroup(gens).order == 720
    for x in map(tuple, S6.elements().tolist()):
        assert is_identity(groups._sift(levels, x)[0])
    # an element already in the group leaves the chain as it was
    before = [dict(lv.transversal) for lv in levels]
    assert not subgroups._extend_chain(levels, S6.generators[0], 6)
    assert [lv.transversal for lv in levels] == before


def tree_edges(levels) -> int:
    """The edges of the Schreier trees: one per orbit point but the base point."""
    return sum(len(lv.transversal) - 1 for lv in levels)


def test_each_schreier_generator_is_tested_until_it_sifts_and_then_never_again(monkeypatch):
    tests = sifted_schreier_generators(monkeypatch)
    gens = [from_cycles([(0, 1)], 7), from_cycles([tuple(range(7))], 7)]
    levels = groups._schreier_sims(gens[:1], 7)
    for g in [from_cycles([(1, 2)], 7), from_cycles([(5, 6)], 7), gens[1]]:
        subgroups._extend_chain(levels, g, 7)
    assert groups._chain_order(levels) == 5040
    placed = sum(len(lv.gens) for lv in levels)
    pairs = sum(
        len(lv.transversal) * sum(len(deeper.gens) for deeper in levels[i:])
        for i, lv in enumerate(levels)
    )
    assert sum(len(lv.checked) for lv in levels) == pairs
    # every pair passes once, but a tree edge's Schreier generator is the
    # identity and is never sifted, and a test fails only where a residue
    # was placed
    assert len(tests) <= pairs - tree_edges(levels) + placed


@pytest.mark.parametrize("spec", ["sym:7", "psl2:13", "agl1:27", "sym:3xalt:5", "extraspecial:5"])
def test_a_fresh_chain_sifts_only_schreier_generators_off_its_trees(monkeypatch, spec):
    tests = sifted_schreier_generators(monkeypatch)
    for comp in group_of(spec)._components:
        tests.clear()
        levels = groups._schreier_sims(comp.gens, len(comp.gens[0]))
        placed = sum(len(lv.gens) for lv in levels)
        pairs = sum(
            len(lv.transversal) * sum(len(deeper.gens) for deeper in levels[i:])
            for i, lv in enumerate(levels)
        )
        # every pair, tree edges included, ends up checked, but only the
        # pairs off the trees are sifted, plus one failed test per residue
        assert tree_edges(levels) > 0
        assert sum(len(lv.checked) for lv in levels) == pairs
        assert len(tests) <= pairs - tree_edges(levels) + placed, spec


def closure_cases(bound: int):
    """(G, element) for every class representative of every nonabelian
    group of iter_catalog(bound)."""
    for r in iter_catalog(bound):
        G = group_of(r.spec)
        if not G.is_abelian():
            for rep in conjugacy_classes(G).reps:
                yield G, rep


def test_each_normal_closure_starts_at_most_one_chain_and_then_extends_it(monkeypatch):
    cases = list(closure_cases(60))
    for G, _ in cases:
        G.order  # the groups' own chains, built before counting
    built = record_chains(monkeypatch)
    for G, rep in cases:
        built.clear()
        K = normal_closure(G, [rep])
        if not built:  # <rep> was normal, and no chain was needed
            continue
        names = [name for name, *_ in built]
        # one chain, grown step by step and verified at most once, last;
        # no chain is built from scratch
        assert "_schreier_sims" not in names, (G, rep)
        assert "_verify" not in names[:-1], (G, rep)
        assert all(levels is built[0][1] for _, levels, _ in built), (G, rep)
        assert K is G or K.order == built[-1][2], (G, rep)


def test_a_chain_stopped_at_the_group_order_is_never_kept(monkeypatch):
    built = record_chains(monkeypatch)
    stopped = 0
    for G, rep in closure_cases(60):
        G.order
        built.clear()
        K = normal_closure(G, [rep])
        kept = [comp._levels for H in (G, K) for comp in H._components]
        for _, levels, n in built:
            if n >= G.order:
                stopped += 1
                assert K is G and all(levels is not chain for chain in kept)
        if K is not G and built:  # a proper closure keeps its complete chain
            assert built[-1][0] == "_verify"
            assert K.order == built[-1][2] < G.order
    assert stopped


def test_a_closure_that_reaches_the_group_sifts_no_schreier_generator(monkeypatch):
    A5, L = group_of("alt:5"), group_of("psl2:7")
    sylows = [sylow(L, p) for p in (2, 3, 7)]
    for P in sylows:
        P.group.order  # every chain outside the closures, built first
        assert not is_normal(L, P)
    A5.order
    tests = sifted_schreier_generators(monkeypatch)
    assert derived_subgroup(A5).group is A5
    for p, P in zip((2, 3, 7), sylows):
        assert p_residual(L, p, sylow_handle=P).group is L
    assert tests == []
    # a proper closure does verify its chain
    normal_closure(group_of("sym:5"), [(1, 2, 0, 3, 4)])
    assert tests


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.lists(st.permutations(range(6)).map(tuple), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**32),
)
def test_normal_closure_order_matches_a_chain_built_from_scratch(gens, seed):
    G = PermGroup(gens, degree=6)
    rng = random.Random(seed)
    x = random_element(G, rng)
    for elements in ([x], [commutator(x, random_element(G, rng))], list(G.generators[1:])):
        K = normal_closure(G, elements)
        assert K.order == PermGroup(K.generators, degree=6).order
        assert all(K.contains(e) for e in elements)
        assert K.elements().shape == (K.order, 6)  # the adopted chain lists K


def test_each_class_closure_to_order_300_is_normal_and_agrees_with_a_fresh_chain():
    """A chain grown without verifying, then verified once, gives the
    closure's true order, and its generators are closed under conjugation."""
    cases = 0
    for G, rep in closure_cases(300):
        K = normal_closure(G, [rep])
        assert K.contains(rep), (G, rep)
        assert K.order == PermGroup(K.generators, degree=G.degree).order, (G, rep)
        assert all(K.contains(conjugate(k, g)) for k in K.generators for g in G.generators)
        cases += 1
    assert cases == 8860


def test_normal_closure_of_each_class_rep_is_generated_by_its_class():
    groups = {r.spec: group_of(r.spec) for r in iter_catalog(60)}
    nonabelian = {spec: G for spec, G in groups.items() if not G.is_abelian()}
    assert len(nonabelian) > 10
    for spec, G in nonabelian.items():
        classes = conjugacy_classes(G)
        for j, r in enumerate(classes.reps):
            elements = map(tuple, G.elements().tolist())
            members = [x for x, c in zip(elements, classes.class_id) if c == j]
            brute = orbit(identity_perm(G.degree), [itemgetter(*x) for x in members])
            K = normal_closure(G, [r])
            assert K.order == len(brute), (spec, r)
            # the closure's own chain against one built from scratch
            assert K.order == PermGroup(K.generators, degree=G.degree).order, (spec, r)


def test_normalizer():
    S4 = group_of("sym:4")
    P = sylow(S4, 3)
    N = normalizer(S4, P)
    assert N.group.order == 6  # S_3 normalizes each Sylow 3-subgroup
    P2 = sylow(S4, 2)
    assert normalizer(S4, P2).group.order == 8

    A5 = group_of("alt:5")
    assert normalizer(A5, sylow(A5, 5)).group.order == 10


def test_normalizer_contains_subgroup_and_fixes_it():
    G = group_of("dihedral:6")
    H = sylow(G, 3)
    N = normalizer(G, H)
    for x in map(tuple, H.group.elements().tolist()):
        assert N.group.contains(x)
    for n in N.group.generators:
        for h in H.group.generators:
            assert H.group.contains(conjugate(h, n))


def test_normalizer_of_an_abelian_group_is_the_group_unscanned(monkeypatch):
    G = group_of("cyclic:1200")
    P = sylow(G, 2)
    calls = []
    enumerate_elements = PermGroup.elements

    def counting_elements(self):
        calls.append(self)
        return enumerate_elements(self)

    monkeypatch.setattr(PermGroup, "elements", counting_elements)
    assert normalizer(G, P).group is G
    assert calls == []


@pytest.mark.parametrize("spec", ["cyclic:1200", "dihedral:600", "sym:4"])
def test_normalizer_keeps_only_generators_that_grow_it(spec):
    # each kept generator lies outside the group of the earlier ones, so it
    # at least doubles the order
    G = group_of(spec)
    N = normalizer(G, sylow(G, 2)).group
    assert len(N.generators) <= N.order.bit_length()
    assert N.order == {"cyclic:1200": 1200, "dihedral:600": 16, "sym:4": 8}[spec]


def record_subgroups(monkeypatch) -> list:
    """Record (parent, parts, subgroup) for every PermGroup.subgroup call."""
    made = []
    construct = PermGroup.subgroup

    def recording(self, parts, orders=None):
        H = construct(self, parts, orders)
        made.append((self, [list(part) for part in parts], H))
        return H

    monkeypatch.setattr(PermGroup, "subgroup", recording)
    return made


def test_subgroups_built_from_parts_agree_with_their_generators_as_input(monkeypatch):
    """Every subgroup the constructor builds over iter_catalog(300) has the
    order, generators, commutativity and members of PermGroup(gens), gens
    its parts' elements in order."""
    made = record_subgroups(monkeypatch)
    for r in iter_catalog(300):
        G = group_of(r.spec)
        degree_spectrum(G)
        derived_subgroup(G)
        for p in prime_divisors(G.order):
            P = sylow(G, p)
            p_residual(G, p, sylow_handle=P)
            if G.order <= 120 and not G.is_abelian():
                normalizer(G, P)
    rng = random.Random(23)
    members = outsiders = 0
    for G, parts, H in made:
        R = PermGroup([g for part in parts for g in part], degree=G.degree)
        assert (H.order, H.generators, H.is_abelian()) == (R.order, R.generators, R.is_abelian())
        for _ in range(3):
            h = random_element(H, rng)
            assert H.contains(h) and R.contains(h)
            g = random_element(G, rng)
            inside = R.contains(g)
            assert H.contains(g) == inside
            members += inside
            outsiders += not inside
    assert len(made) > 2000 and members and outsiders > 1000


@pytest.mark.parametrize("spec", ["sym:3xcyclic:4", "dihedral:12"])
def test_subgroups_are_neither_checked_nor_split_again(spec, monkeypatch):
    G = group_of(spec)

    def refuse(*args):
        raise AssertionError("a subgroup went through the outside-input checks")

    monkeypatch.setattr(groups, "check_bijection", refuse)
    monkeypatch.setattr(groups, "_split_components", refuse)
    assert sum(m * d * d for d, m in degree_spectrum(G).pairs) == G.order
    assert derived_subgroup(G).group.order in (3, 6)
    for p in prime_divisors(G.order):
        P = sylow(G, p)
        assert P.group.order == p ** factorize(G.order).count(p)
        assert p_residual(G, p, sylow_handle=P).group.order % P.group.order == 0


def test_a_sylow_part_of_a_cyclic_component_walks_no_cycles(monkeypatch):
    G = group_of("cyclic:2xcyclic:1000")
    G.order
    monkeypatch.setattr(groups, "perm_order", lambda g: pytest.fail("cycles walked"))
    for p, order in [(2, 16), (5, 125)]:
        P = sylow(G, p).group
        assert P.order == order
        # each part g^m of <g> has order o(g)/gcd(o(g), m)
        assert [comp.order() for comp in P._components] == ([2, 8] if p == 2 else [125])


def test_a_whole_component_keeps_its_chain(monkeypatch):
    G = group_of("sym:4xcyclic:6")
    S4 = G._components[0]
    levels = S4.levels()
    made = record_subgroups(monkeypatch)
    degree_spectrum(G)
    assert [H._components for _, _, H in made] == [[comp] for comp in G._components]
    assert made[0][2]._components[0].levels() is levels


def test_normal_closure_merges_the_components_an_element_spans():
    G = group_of("sym:3xsym:3")  # points 0..2 and 3..5
    x = from_cycles([(0, 1), (3, 4)], 6)
    K = normal_closure(G, [x])
    # A_3 x A_3 with the diagonal transpositions
    assert K.order == 18 == PermGroup(K.generators, degree=6).order
    assert len(K._components) == 1 and K._components[0].support == frozenset(range(6))
    assert K.contains(x) and not K.contains(from_cycles([(0, 1)], 6))
    assert subgroup(G, [x]).group.order == 2
    # a later element that spans both merges the parts of the earlier ones
    a, b = from_cycles([(0, 1, 2)], 6), from_cycles([(3, 4, 5)], 6)
    assert subgroups._by_components(G, [a, b]) == [[a], [b]]
    assert subgroups._by_components(G, [a, b, x]) == [[a, b, x]]
    assert normal_closure(G, [a, b, x]).order == 18
