"""Tests for group recipes: parsing, construction, and the catalog."""

import re
from itertools import product
from math import factorial

import numpy as np
import pytest

from chardeg import constructions, groups
from chardeg.constructions import (
    _KINDS,
    agl1,
    build,
    dihedral_class_count,
    direct_product,
    iter_catalog,
    numeral_text,
    parse_group_spec,
    psl2,
    spectrum_of,
)
from chardeg.fields import finite_field
from chardeg.groups import PermGroup, conjugacy_classes
from chardeg.perms import mult, perm_order
from chardeg.subgroups import is_normal, subgroup, sylow

from support import built_of, conjugate, group_of


def test_parse_atoms():
    r = parse_group_spec("sym:4")
    assert r.kind == "sym" and r.params == (4,) and r.order == 24
    assert parse_group_spec("cyclic:12").order == 12
    assert parse_group_spec("dihedral:6").order == 12
    assert parse_group_spec("alt:5").order == 60
    assert parse_group_spec("agl1:8").order == 56
    assert parse_group_spec("frob:7:1:3").order == 21
    assert parse_group_spec("psl2:9").order == 360
    assert parse_group_spec("extraspecial:5").order == 125


def test_parse_products():
    r = parse_group_spec("sym:3xcyclic:2")
    assert r.kind == "product" and r.order == 12
    assert [f.spec for f in r.factors] == ["sym:3", "cyclic:2"]
    triple = parse_group_spec("cyclic:2xcyclic:2xcyclic:2")
    assert triple.order == 8 and len(triple.factors) == 3


def test_parse_rejects_malformed():
    for bad, message in [
        ("", "empty group spec"),
        ("sym", "malformed group spec atom 'sym'"),
        ("sym:", "malformed group spec atom 'sym:'"),
        ("sym:4:5", "sym takes 1 parameter(s), got 'sym:4:5'"),
        ("nope:3", "unknown group kind 'nope'"),
        ("sym:x", "malformed group spec atom 'sym:x'"),
        ("cyclic:0", "cyclic order must be positive"),
        ("sym:0", "symmetric index must be positive"),
        ("dihedral:2", "dihedral index must be at least 3"),
        ("alt:2", "alternating index must be at least 3"),
        ("agl1:6", "agl1 requires a prime power, got 6"),
        ("frob:4:1:3", "frob base 4 is not prime"),
        ("frob:3:1:5", "frob order 5 must divide 3^1 - 1"),
        ("psl2:3", "psl2 requires a prime power q >= 4"),
        ("psl2:6", "psl2 requires a prime power q >= 4"),
        ("extraspecial:7", "extraspecial recipe supports p in {3, 5}"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_group_spec(bad)


# the least parameters each kind accepts, with the order they declare
SMALLEST = {
    "cyclic": ("cyclic:1", 1),
    "dihedral": ("dihedral:3", 6),
    "sym": ("sym:1", 1),
    "alt": ("alt:3", 3),
    "agl1": ("agl1:2", 2),
    "frob": ("frob:2:1:1", 2),
    "psl2": ("psl2:4", 60),
    "extraspecial": ("extraspecial:3", 27),
}


def test_cyclic_1_is_the_trivial_group_on_one_point():
    G = constructions.cyclic(1)
    assert G.degree == 1 and G.generators == () and G.order == 1


def test_smallest_recipes_cover_every_kind():
    assert SMALLEST.keys() == _KINDS.keys()


@pytest.mark.parametrize("kind", sorted(SMALLEST))
def test_smallest_recipe_of_each_kind_builds(kind):
    spec, order = SMALLEST[kind]
    recipe = parse_group_spec(spec)
    assert recipe.kind == kind and recipe.order == order
    built = build(recipe)
    assert built.group.order == order
    assert (built.split is not None) == (kind in ("agl1", "frob"))


def test_built_orders_match_declared():
    for spec in ["cyclic:7", "dihedral:9", "sym:5", "alt:6", "agl1:9",
                 "frob:2:2:3", "frob:3:2:8", "psl2:8", "extraspecial:3",
                 "sym:4xcyclic:3"]:
        built = built_of(spec)
        assert built.group.order == built.recipe.order, spec


def test_agl1_small():
    assert group_of("agl1:3").order == 6
    assert spectrum_of(built_of("agl1:3")).degrees == (1, 1, 2)  # same as sym:3
    assert group_of("agl1:4").order == 12
    assert group_of("agl1:11").order == 110


def test_frobenius_structure():
    built = built_of("frob:7:1:3")
    G, split = built.group, built.split
    assert G.order == 21 and not G.is_abelian()
    assert split.r == 7 and split.m == 1

    K = subgroup(G, split.kernel_gens)
    assert K.group.order == 7
    assert is_normal(G, K)
    assert K.group.is_abelian()
    for g in split.kernel_gens:
        assert perm_order(g) == 7

    H = subgroup(G, split.complement_gens)
    assert H.group.order == 3
    assert not is_normal(G, H)


def test_frobenius_kernel_v4():
    built = built_of("frob:2:2:3")  # the alternating group on 4 points
    G, split = built.group, built.split
    assert G.order == 12
    K = subgroup(G, split.kernel_gens)
    assert K.group.order == 4 and K.group.is_abelian()
    for g in split.kernel_gens:
        assert perm_order(g) == 2
    assert spectrum_of(built).degrees == (1, 1, 1, 3)


def test_complement_matrices_match_action():
    # conjugating kernel translation i by a complement generator must land on
    # the product of translations given by column i of the stored matrix
    for spec in ["frob:3:2:8", "frob:2:2:3", "agl1:9", "agl1:8"]:
        built = built_of(spec)
        split = built.split
        r, m = split.r, split.m
        for h, M in zip(split.complement_gens, split.complement_matrices):
            for i, t in enumerate(split.kernel_gens):
                image = conjugate(t, h)
                acc = tuple(range(len(t)))
                for j in range(m):
                    for _ in range(M[j][i] % r):
                        acc = mult(acc, split.kernel_gens[j])
                assert acc == image, spec


def test_psl2_orders_and_support():
    assert group_of("psl2:4").order == 60
    assert group_of("psl2:5").order == 60
    assert group_of("psl2:7").order == 168
    assert group_of("psl2:8").order == 504
    assert group_of("psl2:9").order == 360
    assert group_of("psl2:11").order == 660
    with pytest.raises(ValueError):
        psl2(6)
    # q + 1 = 4097 points: the point cap refuses it before the field is built
    with pytest.raises(ValueError, match="degree 4097 exceeds the 4096-point cap"):
        psl2(4096)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_psl2_is_every_unimodular_moebius_map(q):
    # point 0 is infinity and point 1 + x is x in GF(q); x -> (ax + b)/(cx + d)
    # with ad - bc = 1 sends infinity to a/c (infinity if c = 0) and x to
    # infinity where cx + d = 0
    F = finite_field(q)

    def moebius(a, b, c, d):
        def image(x):
            if x is None:
                return None if c == 0 else F.mul(a, F.inv(c))
            den = F.add(F.mul(c, x), d)
            return None if den == 0 else F.mul(F.add(F.mul(a, x), b), F.inv(den))

        return tuple(0 if y is None else 1 + y for y in map(image, [None, *range(q)]))

    maps = {
        moebius(a, b, c, d)
        for a, b, c, d in product(range(q), repeat=4)
        if F.add(F.mul(a, d), F.neg(F.mul(b, c))) == 1
    }
    G = psl2(q)
    assert set(map(tuple, G.elements().tolist())) == maps
    assert len(maps) == G.order


def psl2_closed_form(q: int) -> list[int]:
    """The degrees of PSL(2, q) from its generic character table, ascending."""
    if q % 2 == 0:
        rest = [q + 1] * ((q - 2) // 2) + [q - 1] * (q // 2)
    elif q % 4 == 1:
        rest = [(q + 1) // 2] * 2 + [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4)
    else:
        rest = [(q - 1) // 2] * 2 + [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4)
    return sorted([1, q] + rest)


@pytest.mark.parametrize("q", [29, 31, 32, 49, 53])
def test_psl2_beyond_the_catalog_has_the_closed_form_spectrum(q):
    built = build(parse_group_spec(f"psl2:{q}"))
    assert built.group.order == q * (q * q - 1) // (2 if q % 2 else 1)
    assert list(spectrum_of(built).degrees) == psl2_closed_form(q)


def test_psl2_simplicity_witness():
    # PSL_2(7): no nontrivial proper normal Sylow and perfect derived subgroup
    from chardeg.subgroups import derived_subgroup

    G = group_of("psl2:7")
    assert derived_subgroup(G).group.order == G.order
    assert not is_normal(G, sylow(G, 2))
    assert not is_normal(G, sylow(G, 7))


def test_extraspecial():
    for p in (3, 5):
        G = group_of(f"extraspecial:{p}")
        assert G.order == p**3
        assert not G.is_abelian()
        cs = conjugacy_classes(G)
        assert all(perm_order(r) in (1, p) for r in cs.reps)  # exponent p
        sp = spectrum_of(built_of(f"extraspecial:{p}"))
        assert sp.degrees == (1,) * (p * p) + (p,) * (p - 1)


def test_direct_product_order_and_commuting_factors():
    A = group_of("sym:3")
    B = group_of("cyclic:4")
    P = direct_product([A, B])
    assert P.order == 24
    assert P.degree == A.degree + B.degree


def shifted_point_by_point(factors) -> PermGroup:
    """The direct product of the factors as outside input: each generator
    copied point by point onto its factor's points, then checked and split
    by the PermGroup constructor."""
    degree = sum(G.degree for G in factors)
    gens, offset = [], 0
    for G in factors:
        for g in G.generators:
            images = list(range(degree))
            for i, x in enumerate(g):
                images[offset + i] = offset + x
            gens.append(tuple(images))
        offset += G.degree
    return PermGroup(gens, degree=degree)


# factors with no components, on one point each
_TRIVIAL_FACTOR_PRODUCTS = ("cyclic:1xsym:3", "sym:3xcyclic:1", "cyclic:1xcyclic:1", "sym:1xalt:4xcyclic:2")


def test_a_built_product_is_its_factors_shifted_point_by_point():
    recipes = [r for r in iter_catalog(2000) if r.kind == "product"]
    recipes += map(parse_group_spec, _TRIVIAL_FACTOR_PRODUCTS)
    for r in recipes:
        G = build(r).group
        H = shifted_point_by_point([build(f).group for f in r.factors])
        assert G.degree == H.degree == r.degree, r.spec
        assert G.generators == H.generators, r.spec
        assert G.order == H.order == r.order, r.spec
        assert [c.support for c in G._components] == [c.support for c in H._components], r.spec
        if r.order <= 300:
            assert np.array_equal(G.elements(), H.elements()), r.spec


@pytest.mark.parametrize(
    "spec", ["sym:3xcyclic:4", "cyclic:2xcyclic:1000", "psl2:7xcyclic:5xalt:4", *_TRIVIAL_FACTOR_PRODUCTS]
)
def test_a_product_of_built_factors_is_neither_checked_split_nor_cycle_walked(spec, monkeypatch):
    recipe = parse_group_spec(spec)
    factors = [build(f).group for f in recipe.factors]  # each checked, its order known

    def refuse(*args):
        raise AssertionError("a product went through the outside-input checks")

    for name in ("check_bijection", "_split_components", "perm_order"):
        monkeypatch.setattr(groups, name, refuse)
    G = direct_product(factors)
    assert G.order == recipe.order and G.degree == recipe.degree


def test_dihedral_class_count():
    for n in range(3, 40):
        G = group_of(f"dihedral:{n}")
        assert len(conjugacy_classes(G).reps) == dihedral_class_count(n)


def test_catalog_contents():
    only_trivial = list(iter_catalog(1))
    assert [r.spec for r in only_trivial] == ["cyclic:1"]

    specs30 = {r.spec for r in iter_catalog(30)}
    assert "cyclic:30" in specs30
    assert "sym:4" in specs30
    assert "frob:7:1:3" in specs30
    assert "cyclic:2xcyclic:2" in specs30
    # the product pool up to order 30, apart from the abelian pairs
    products30 = {s for s in specs30 if parse_group_spec(s).kind == "product"}
    assert {s for s in products30 if not s.startswith("cyclic:")} == {
        "alt:4xcyclic:2",
        "dihedral:4xcyclic:2",
        "dihedral:4xcyclic:3",
        "dihedral:5xcyclic:2",
        "dihedral:5xcyclic:3",
        "sym:3xcyclic:2",
        "sym:3xcyclic:3",
        "sym:3xcyclic:4",
        "sym:3xcyclic:5",
    }
    assert all(parse_group_spec(s).order <= 30 for s in specs30)

    specs200 = [r.spec for r in iter_catalog(200)]
    assert len(specs200) == len(set(specs200))  # no duplicates
    for must in ["psl2:5", "alt:5", "sym:5", "agl1:11", "extraspecial:3",
                 "dihedral:50", "agl1:13", "frob:11:1:5"]:
        assert must in specs200, must


@pytest.mark.parametrize("max_order", [0, 60, 150])
def test_catalog_parses_no_agl1_or_frob_spec_beyond_the_bound(max_order, monkeypatch):
    parsed = []

    def counting_parse(spec):
        parsed.append(spec)
        return parse_group_spec(spec)

    monkeypatch.setattr(constructions, "parse_group_spec", counting_parse)
    kept = list(iter_catalog(max_order))
    assert len(parsed) >= len(kept)
    for spec in parsed:
        kind, *params = spec.split(":")
        if kind == "agl1":
            q = int(params[0])
            assert q * (q - 1) <= max_order, spec
        elif kind == "frob":
            r, m, _ = map(int, params)
            assert 2 * r**m <= max_order, spec


def test_catalog_sorted_and_buildable():
    rs = list(iter_catalog(60))
    keys = [(r.order, r.spec) for r in rs]
    assert keys == sorted(keys)
    for r in rs:
        built = build(r)
        assert built.group.order == r.order


# each spec with the degree its refusal names: q points for agl1:q, q + 1
# for psl2:q and r^m for frob:r:m:d, which is not formed past the cap, and
# the sum of its factors' degrees for a product, refused before either is
# built
_OVER_THE_CAP = {
    "sym:3xcyclic:4094": "4097",
    "psl2:4093xpsl2:4093": "8188",
    "cyclic:4097": "4097",
    "dihedral:4097": "4097",
    "sym:4097": "4097",
    "alt:4097": "4097",
    "agl1:4099": "4099",
    "psl2:4096": "4097",
    "psl2:4099": "4100",
    "frob:3:8:2": "3^8",
    "frob:4099:1:2": "4099",
    "frob:3:1000000:2": "3^1000000",
}


@pytest.mark.parametrize("spec", _OVER_THE_CAP)
def test_parse_refuses_a_degree_above_the_point_cap(spec, monkeypatch):
    # the cap is tested first: no primality test sees a number above it
    def small_only(test):
        def checked(n):
            assert n <= 4096, f"{test.__name__}({n}) ran before the point cap"
            return test(n)

        return checked

    monkeypatch.setattr(constructions, "is_prime", small_only(constructions.is_prime))
    monkeypatch.setattr(constructions, "is_prime_power", small_only(constructions.is_prime_power))
    message = f"degree {_OVER_THE_CAP[spec]} exceeds the 4096-point cap"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_group_spec(spec)


def decimal(n: int) -> str:
    """n in decimal, converted 600 digits at a time, below the 4300 that
    Python converts at once."""
    chunks = []
    while n >= 10**600:
        n, low = divmod(n, 10**600)
        chunks.append(f"{low:0600d}")
    return str(n) + "".join(reversed(chunks))


@pytest.mark.parametrize(
    "n",
    [102660, 10**640 - 1, 10**640, 10**641 - 1, 2**20000 - 1, 2**20000, factorial(4096)],
    ids=["102660", "10^640-1", "10^640", "10^641-1", "2^20000-1", "2^20000", "4096!"],
)
def test_numeral_text_shortens_a_long_number_as_a_long_numeral_is_shown(n):
    digits = decimal(n)
    expected = digits if len(digits) <= 640 else f"{digits[:8]}... ({len(digits)} digits)"
    assert numeral_text(n) == expected


def test_agl1_validates_like_its_recipe():
    with pytest.raises(ValueError, match="agl1 requires a prime power, got 6"):
        agl1(6)
    with pytest.raises(ValueError, match="degree 4099 exceeds the 4096-point cap"):
        agl1(4099)


@pytest.mark.parametrize("max_order", [4097, 10000])
def test_catalog_above_the_point_cap_lists_only_what_builds(max_order):
    specs = [r.spec for r in iter_catalog(max_order)]
    assert "cyclic:4096" in specs and "cyclic:4097" not in specs
    pairs = [re.fullmatch(r"cyclic:(\d+)xcyclic:(\d+)", s) for s in specs]
    sizes = [int(m[1]) + int(m[2]) for m in pairs if m]
    assert sizes and max(sizes) <= 4096
    if max_order == 10000:
        assert "cyclic:2xcyclic:4094" in specs and "cyclic:2xcyclic:4095" not in specs
