"""Named finite groups, a recipe grammar, and a deterministic catalog.

Recipes are strings like "sym:4", "frob:7:1:3", or "extraspecial:3xcyclic:2"
(direct products join atoms with "x").  Parsing validates parameters and
records the declared order and degree; building returns the permutation
group together with split-extension data for the affine and Frobenius
constructions, which downstream orbit computations consume.  A product is
assembled from its built factors' components (see direct_product).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from math import factorial, isqrt, prod

from .dixon import CLASS_CAP, DegreeSpectrum, degree_spectrum
from .fields import finite_field
from .groups import MAX_POINTS, PermGroup, _points, past_the_point_cap
from .numbers import InvariantError, is_prime, is_prime_power, prime_power_decomposition
from .perms import Perm, from_cycles

ABELIAN_PAIR_CAP = 32
FROBENIUS_FIELD_CAP = 128
_PRODUCT_POOL_LEFT = (
    "sym:3",
    "sym:4",
    "alt:4",
    "alt:5",
    "dihedral:4",
    "dihedral:5",
    "extraspecial:3",
    "psl2:7",
)
_PRODUCT_POOL_EXTRA = ("sym:3xsym:3", "sym:3xalt:4", "sym:3xsym:4")
_EXTRASPECIAL_PRIMES = (3, 5)
# the least limit Python can be set to on converting a decimal string
_NUMERAL_DIGITS = 640


@dataclass(frozen=True)
class SplitExtensionData:
    """A split extension V . H with V elementary abelian of rank m over GF(r).

    kernel_gens are the translations spanning V and complement_gens generate
    H.  complement_matrices[i] describes conjugation by complement_gens[i]
    on exponent column vectors: conjugating kernel_gens[j] sends it to the
    product of kernel generators with exponents in column j of the matrix.
    """

    r: int
    m: int
    kernel_gens: tuple[Perm, ...]
    complement_gens: tuple[Perm, ...]
    complement_matrices: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class GroupRecipe:
    """A validated group description with its declared order and degree."""

    spec: str
    kind: str
    params: tuple[int, ...]
    order: int
    degree: int
    factors: tuple["GroupRecipe", ...] = ()


@dataclass(frozen=True)
class BuiltGroup:
    recipe: GroupRecipe
    group: PermGroup
    split: SplitExtensionData | None = None


def _cyclic_order(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    return _points(n), n


def _dihedral_order(n: int) -> tuple[int, int]:
    if n < 3:
        raise ValueError("dihedral index must be at least 3")
    return 2 * _points(n), n


def _sym_order(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("symmetric index must be positive")
    return factorial(_points(n)), n


def _alt_order(n: int) -> tuple[int, int]:
    if n < 3:
        raise ValueError("alternating index must be at least 3")
    return factorial(_points(n)) // 2, n


def _agl1_order(q: int) -> tuple[int, int]:
    if not is_prime_power(_points(q)):
        raise ValueError(f"agl1 requires a prime power, got {q}")
    return q * (q - 1), q


def _frob_order(r: int, m: int, d: int) -> tuple[int, int]:
    q = _points(r, m)
    if not is_prime(r):
        raise ValueError(f"frob base {r} is not prime")
    if m < 1 or d < 1 or (q - 1) % d != 0:
        raise ValueError(f"frob order {d} must divide {r}^{m} - 1")
    return q * d, q


def _psl2_order(q: int) -> tuple[int, int]:
    degree = _points(q + 1)
    if not is_prime_power(q) or q < 4:
        raise ValueError("psl2 requires a prime power q >= 4")
    return q * (q * q - 1) // (2 if q % 2 else 1), degree


def _extraspecial_order(p: int) -> tuple[int, int]:
    if p not in _EXTRASPECIAL_PRIMES:
        raise ValueError("extraspecial recipe supports p in {3, 5}")
    return p**3, p**3


def cyclic(n: int) -> PermGroup:
    _cyclic_order(n)
    return PermGroup([from_cycles([tuple(range(n))], n)], degree=n)


def dihedral(n: int) -> PermGroup:
    """Symmetries of a regular n-gon, order 2n, n >= 3."""
    _dihedral_order(n)
    rotation = from_cycles([tuple(range(n))], n)
    reflection = tuple((n - i) % n for i in range(n))
    return PermGroup([rotation, reflection])


def dihedral_class_count(n: int) -> int:
    return n // 2 + 3 if n % 2 == 0 else (n + 3) // 2


def sym(n: int) -> PermGroup:
    _sym_order(n)
    if n == 1:
        return PermGroup([], degree=1)
    gens = [from_cycles([(0, 1)], n)]
    if n > 2:
        gens.append(from_cycles([tuple(range(n))], n))
    return PermGroup(gens)


def alt(n: int) -> PermGroup:
    _alt_order(n)
    gens = [from_cycles([(0, 1, 2)], n)]
    if n > 3:
        if n % 2 == 1:
            gens.append(from_cycles([tuple(range(n))], n))
        else:
            gens.append(from_cycles([tuple(range(1, n))], n))
    return PermGroup(gens)


def _translation_perm(F, basis_elt: int) -> Perm:
    return tuple(F.add(x, basis_elt) for x in F.elements)


def _multiplier_perm(F, s: int) -> Perm:
    return tuple(F.mul(s, x) for x in F.elements)


def _multiplier_matrix(F, s: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of x -> s*x in the power basis 1, a, .., a^(m-1), row-major."""
    cols = [F.vector(F.mul(s, F.char**j)) for j in range(F.degree)]
    return tuple(tuple(cols[j][i] for j in range(F.degree)) for i in range(F.degree))


def frobenius(r: int, m: int, d: int) -> tuple[PermGroup, SplitExtensionData]:
    """GF(r^m)+ extended by the order-d subgroup of the multiplicative group.

    d must divide r^m - 1; d = 1 gives the elementary abelian kernel alone
    and d = r^m - 1 recovers the full one-dimensional affine group.
    """
    order, q = _frob_order(r, m, d)
    F = finite_field(q)
    kernel = tuple(_translation_perm(F, r**i) for i in range(m))
    if d > 1:
        s = F.pow(F.primitive_element(), (q - 1) // d)
        complement = (_multiplier_perm(F, s),)
        matrices = (_multiplier_matrix(F, s),)
    else:
        complement = ()
        matrices = ()
    G = PermGroup(list(kernel) + list(complement), degree=q)
    if G.order != order:
        raise InvariantError(f"affine group has order {G.order}, not {order}")
    return G, SplitExtensionData(r, m, kernel, complement, matrices)


def agl1(q: int) -> tuple[PermGroup, SplitExtensionData]:
    """One-dimensional affine group x -> ax + b over GF(q), order q(q-1)."""
    _agl1_order(q)
    r, m = prime_power_decomposition(q)
    return frobenius(r, m, q - 1)


def psl2(q: int) -> PermGroup:
    """PSL_2(q) acting on the q + 1 points of the projective line, point 0
    being infinity and point 1 + x being x in GF(q).  It is generated by the
    translations x -> x + r^i (r the characteristic, i below the degree of
    GF(q)) and by x -> -1/x, which swaps 0 and infinity."""
    expected, _ = _psl2_order(q)
    F = finite_field(q)
    gens = [
        (0,) + tuple(1 + y for y in _translation_perm(F, F.char**i)) for i in range(F.degree)
    ]
    gens.append((1, 0) + tuple(1 + F.neg(F.inv(x)) for x in range(1, q)))
    G = PermGroup(gens, degree=q + 1)
    if G.order != expected:
        raise InvariantError(f"PSL(2, {q}) has order {G.order}, not {expected}")
    return G


def extraspecial(p: int) -> PermGroup:
    """Extraspecial group of order p^3 and exponent p, for p in {3, 5}."""
    cube, _ = _extraspecial_order(p)

    def idx(a: int, b: int, c: int) -> int:
        return (a * p + b) * p + c

    def right_mult(da: int, db: int, dc: int) -> Perm:
        images = [0] * cube
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    images[idx(a, b, c)] = idx(
                        (a + da) % p, (b + db) % p, (c + dc + a * db) % p
                    )
        return tuple(images)

    G = PermGroup([right_mult(1, 0, 0), right_mult(0, 1, 0)], degree=cube)
    if G.order != cube:
        raise InvariantError(f"extraspecial group has order {G.order}, not {cube}")
    return G


def direct_product(groups: list[PermGroup]) -> PermGroup:
    """Internal direct product on the disjoint union of the point sets.

    Each factor's components are shifted onto its points (see
    _Component.shifted) and joined as they are, so the generators of built
    groups are neither checked, split nor cycle-walked again; the product's
    generators are its factors', in their order."""
    degree = _points(sum(G.degree for G in groups))
    gens, components, offset = [], [], 0
    for G in groups:
        shifted = [comp.shifted(offset, degree) for comp in G._components]
        moved = {g: h for c, s in zip(G._components, shifted) for g, h in zip(c.gens, s.gens)}
        gens += [moved[g] for g in G.generators]
        components += shifted
        offset += G.degree
    return PermGroup.__new__(PermGroup)._assemble(degree, gens, components)


@dataclass(frozen=True)
class _Kind:
    """One recipe kind: its parameter count, its order function, which
    rejects bad parameters with the recipe error text and returns |G| and
    the number of points G acts on, and its constructor, which returns the
    group or the group and split data."""

    arity: int
    order: Callable[..., int]
    make: Callable[..., PermGroup | tuple[PermGroup, SplitExtensionData]]


_KINDS: dict[str, _Kind] = {
    "cyclic": _Kind(1, _cyclic_order, cyclic),
    "dihedral": _Kind(1, _dihedral_order, dihedral),
    "sym": _Kind(1, _sym_order, sym),
    "alt": _Kind(1, _alt_order, alt),
    "agl1": _Kind(1, _agl1_order, agl1),
    "frob": _Kind(3, _frob_order, frobenius),
    "psl2": _Kind(1, _psl2_order, psl2),
    "extraspecial": _Kind(1, _extraspecial_order, extraspecial),
}


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise ValueError(f"unknown group kind {name!r}")
    return _KINDS[name]


def _parse_atom(text: str) -> GroupRecipe:
    parts = text.split(":")
    kind, raw = parts[0], parts[1:]
    if not raw or not all(re.fullmatch(r"[0-9]+", x) for x in raw):
        raise ValueError(f"malformed group spec atom {text!r}")
    params = tuple(map(_numeral, raw))
    entry = _kind(kind)
    if len(params) != entry.arity:
        raise ValueError(f"{kind} takes {entry.arity} parameter(s), got {text!r}")
    order, degree = entry.order(*params)
    return GroupRecipe(spec=text, kind=kind, params=params, order=order, degree=degree)


def _numeral(text: str) -> int:
    """The value of a recipe numeral, whose leading zeros do not count
    toward its length.  A numeral longer than _NUMERAL_DIGITS is far past
    the point cap that bounds every parameter, and is refused as such
    before Python is asked to convert it."""
    digits = text.lstrip("0") or "0"
    if len(digits) > _NUMERAL_DIGITS:
        raise past_the_point_cap(f"{digits[:8]}... ({len(digits)} digits)")
    return int(digits)


def numeral_text(n: int) -> str:
    """n in decimal, shortened past _NUMERAL_DIGITS digits as _numeral shows
    a long numeral, and never converted whole (Python refuses 4300 digits)."""
    if n < 10**_NUMERAL_DIGITS:
        return str(n)
    length = n.bit_length() * 30102 // 100000  # 0.30102 < log10(2)
    while 10**length <= n:
        length += 1
    return f"{n // 10 ** (length - 8)}... ({length} digits)"


def parse_group_spec(text: str) -> GroupRecipe:
    """Parse a recipe string; products join atoms with "x" between a digit
    and a letter, as in "sym:3xalt:4".  A product acts on the sum of its
    factors' degrees, which is refused past the point cap here, before
    any factor is built."""
    text = text.strip()
    if not text:
        raise ValueError("empty group spec")
    parts = re.split(r"(?<=\d)x(?=[a-z])", text)
    atoms = tuple(_parse_atom(p) for p in parts)
    if len(atoms) == 1:
        return atoms[0]
    return GroupRecipe(
        spec="x".join(a.spec for a in atoms),
        kind="product",
        params=(),
        order=prod(a.order for a in atoms),
        degree=_points(sum(a.degree for a in atoms)),
        factors=atoms,
    )


def build(recipe: GroupRecipe) -> BuiltGroup:
    """Construct the permutation group a recipe describes."""
    if recipe.kind == "product":
        made = direct_product([build(f).group for f in recipe.factors])
    else:
        made = _kind(recipe.kind).make(*recipe.params)
    G, split = made if isinstance(made, tuple) else (made, None)
    if G.order != recipe.order:
        raise InvariantError(f"{recipe.kind} recipe declares order {recipe.order}, built {G.order}")
    return BuiltGroup(recipe, G, split)


def spectrum_of(built: BuiltGroup) -> DegreeSpectrum:
    """Character degree spectrum of a built group: degree_spectrum of its
    group, which splits products itself.  Kept as the one call a recipe's
    spectrum goes through, so that a traced run can time it by name."""
    return degree_spectrum(built.group)


def iter_catalog(max_order: int):
    """Yield catalog recipes with order at most max_order, sorted by
    (order, spec).  The catalog covers cyclic groups and abelian pairs
    within the point cap (cyclic:a x cyclic:b acts on a + b points),
    dihedral groups within the class cap, small symmetric and alternating
    groups, affine and Frobenius groups, PSL_2, extraspecial groups, and a
    fixed pool of direct products."""
    specs: list[str] = []
    specs.extend(f"cyclic:{n}" for n in range(1, min(max_order, MAX_POINTS) + 1))
    for a in range(2, ABELIAN_PAIR_CAP + 1):
        for b in range(a, min(max_order // a, MAX_POINTS - a) + 1):
            specs.append(f"cyclic:{a}xcyclic:{b}")
    for n in range(4, max_order // 2 + 1):
        if dihedral_class_count(n) <= CLASS_CAP:
            specs.append(f"dihedral:{n}")
    specs.extend(f"sym:{n}" for n in range(3, 8))
    specs.extend(f"alt:{n}" for n in range(4, 9))
    # agl1:q has order q(q - 1) <= max_order iff 2q - 1 <= isqrt(4 max_order + 1);
    # frob:r:m:d has order r^m d >= 2 r^m
    agl1_top = (isqrt(4 * max(max_order, 0) + 1) + 1) // 2
    specs.extend(
        f"agl1:{q}" for q in range(3, min(agl1_top + 1, MAX_POINTS)) if is_prime_power(q)
    )
    for q in range(3, min(FROBENIUS_FIELD_CAP, max_order // 2) + 1):
        if not is_prime_power(q):
            continue
        r, m = prime_power_decomposition(q)
        specs.extend(f"frob:{r}:{m}:{d}" for d in range(2, q - 1) if (q - 1) % d == 0)
    specs.extend(f"psl2:{q}" for q in (4, 5, 7, 8, 9, 11, 13))
    specs.extend(f"extraspecial:{p}" for p in _EXTRASPECIAL_PRIMES)
    specs.extend(f"{left}xcyclic:{m}" for left in _PRODUCT_POOL_LEFT for m in range(2, 8))
    specs.extend(_PRODUCT_POOL_EXTRA)

    recipes = [parse_group_spec(s) for s in sorted(set(specs))]
    recipes = [r for r in recipes if r.order <= max_order]
    recipes.sort(key=lambda r: (r.order, r.spec))
    yield from recipes

