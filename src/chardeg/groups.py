"""Finite permutation groups with a base-and-strong-generating-set index.

A PermGroup is generated by permutations of {0, .., degree-1}.  The order
and membership tests come from a deterministic Schreier-Sims chain.  Two
shortcuts keep large but structurally simple inputs cheap: generators are
split into support-disjoint components (a direct product internally), and
a component with a single generator is handled as an explicit cyclic group
instead of building transversals.

The elements, when a computation needs all of them, are one sorted int16
array built from the chain, one row per element, with a key table that
finds any element from its base images.  Conjugacy classes and cosets are
orbits of index maps on those rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .numbers import InvariantError
from .perms import (
    Perm,
    check_bijection,
    cycles,
    identity_perm,
    inverse,
    is_identity,
    mult,
    perm_order,
    perm_power,
)

MAX_POINTS = 4096
ENUMERATION_CAP = 100_000
# Points fit in 16 bits below MAX_POINTS; element rows and base images use it.
POINT_DTYPE = np.int16
# Gathers run over blocks of about this many entries, so that numpy's intp
# copy of an index block stays small beside the element array.
_BLOCK_ITEMS = 1 << 15


class GroupTooLargeError(Exception):
    """Raised when an operation needs more elements than the configured cap."""


def orbit(start, maps, seen: set | None = None, limit: int | None = None) -> list:
    """start and every point reachable from it under the callables in maps,
    in breadth-first discovery order.

    Points are added to seen (a fresh set when None), so one set shared over
    several calls partitions a set into orbits.  An orbit of more than limit
    points raises GroupTooLargeError.
    """
    if seen is None:
        seen = set()
    seen.add(start)
    points = [start]
    for x in points:  # the list grows while it is walked
        for f in maps:
            y = f(x)
            if y not in seen:
                seen.add(y)
                points.append(y)
        if limit is not None and len(points) > limit:
            raise GroupTooLargeError(f"orbit exceeds cap {limit}")
    return points


def index_orbits(n: int, maps) -> tuple[np.ndarray, list[int]]:
    """The orbits of range(n) under maps (callables on indices), numbered in
    the order of their least points: the orbit number of every index, and
    the least index of every orbit."""
    orbit_id = np.empty(n, dtype=np.intp)
    seen: set[int] = set()
    least: list[int] = []
    for x in range(n):  # x is the least of its orbit when first unseen
        if x not in seen:
            orbit_id[orbit(x, maps, seen)] = len(least)
            least.append(x)
    return orbit_id, least


class _Level:
    """One level of a stabilizer chain: base point, generators, transversal.

    ``transversal[x]`` maps the base point to x, and ``inverses[x]`` is its
    inverse, stored beside it (same keys) so that sifting multiplies by a
    kept permutation rather than inverting one at every step.
    """

    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point: int, identity: Perm):
        self.point = point
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {point: identity}
        self.inverses: dict[int, Perm] = {point: identity}


def _schreier_sims(gens: list[Perm], degree: int) -> list[_Level]:
    """Deterministic Schreier-Sims; returns the verified stabilizer chain."""
    identity = identity_perm(degree)
    levels: list[_Level] = []

    def chain_gens(idx: int) -> list[Perm]:
        # Level idx is generated by the residues stored at idx and deeper:
        # deeper residues fix this base point but can still grow its orbit.
        return [g for lv in levels[idx:] for g in lv.gens]

    def rebuild_orbit(idx: int, gens_here: list[Perm]) -> list[int]:
        level = levels[idx]
        trans = {level.point: identity}
        invs = {level.point: identity}
        pairs = [(s, inverse(s)) for s in gens_here]
        queue = [level.point]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            ux, vx = trans[x], invs[x]
            for s, s_inv in pairs:
                y = s[x]
                if y not in trans:
                    trans[y] = mult(ux, s)
                    invs[y] = mult(s_inv, vx)  # (ux s)^-1 = s^-1 ux^-1
                    queue.append(y)
        level.transversal = trans
        level.inverses = invs
        return queue

    def sift(p: Perm, start: int) -> tuple[Perm, int]:
        for idx in range(start, len(levels)):
            lv = levels[idx]
            u_inv = lv.inverses.get(p[lv.point])
            if u_inv is None:
                return p, idx
            p = mult(p, u_inv)
        return p, len(levels)

    def place(p: Perm, idx: int) -> int:
        """Append residue p at level idx, extending the base if needed."""
        if idx == len(levels):
            b = min(i for i in range(degree) if p[i] != i)
            levels.append(_Level(b, identity))
        levels[idx].gens.append(p)
        return idx

    for g in gens:
        residue, j = sift(g, 0)
        if not is_identity(residue):
            place(residue, j)

    # Verify levels bottom-up; adding a residue at level j restarts from j.
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        gens_here = chain_gens(i)
        orbit = rebuild_orbit(i, gens_here)
        restart = -1
        for x in orbit:
            ux = level.transversal[x]
            for s in gens_here:
                sg = mult(mult(ux, s), level.inverses[s[x]])
                residue, j = sift(sg, i + 1)
                if not is_identity(residue):
                    restart = place(residue, j)
                    break
            if restart >= 0:
                break
        i = restart if restart >= 0 else i - 1
    return levels


class _Component:
    """Generators whose supports form one connected block.

    A single generator g is handled as the cyclic group it generates, whose
    order (the order of g) is worked out once, here.
    """

    __slots__ = ("gens", "support", "_levels", "_cyclic_order")

    def __init__(self, gens: list[Perm], support: frozenset[int]):
        self.gens = gens
        self.support = support
        self._levels: list[_Level] | None = None
        self._cyclic_order = perm_order(gens[0]) if len(gens) == 1 else None

    @property
    def is_cyclic_shortcut(self) -> bool:
        return len(self.gens) == 1

    def order(self) -> int:
        if self.is_cyclic_shortcut:
            return self._cyclic_order
        out = 1
        for lv in self.levels():
            out *= len(lv.transversal)
        return out

    def levels(self) -> list[_Level]:
        if self._levels is None:
            self._levels = _schreier_sims(self.gens, len(self.gens[0]))
        return self._levels

    def contains(self, p: Perm) -> bool:
        """Membership of p looking only at this component's support."""
        if self.is_cyclic_shortcut:
            g = self.gens[0]
            b = min(self.support)
            # p[b] pins the exponent modulo the length of b's orbit; the
            # other cycles of g then leave order/orbit_len residues to try.
            k, x = 0, b
            target = p[b]
            while x != target:
                x = g[x]
                k += 1
                if x == b:
                    return False
            orbit_len = k + 1
            while g[x] != b:
                x = g[x]
                orbit_len += 1
            candidate = perm_power(g, k)
            step = perm_power(g, orbit_len)
            for _ in range(self._cyclic_order // orbit_len):
                if all(candidate[i] == p[i] for i in self.support):
                    return True
                candidate = mult(candidate, step)
            return False
        for lv in self.levels():
            u_inv = lv.inverses.get(p[lv.point])
            if u_inv is None:
                return False
            p = mult(p, u_inv)
        return all(p[i] == i for i in self.support)

    def factors(self) -> list[np.ndarray]:
        """Arrays of permutations, one row taken from each, whose products
        (the row of a later array applied first) are the component's
        elements, each exactly once: the transversals of the chain levels,
        or the powers of a cyclic component's generator."""
        if not self.is_cyclic_shortcut:
            return [
                np.array(list(lv.transversal.values()), dtype=POINT_DTYPE) for lv in self.levels()
            ]
        g = np.array(self.gens[0], dtype=POINT_DTYPE)
        powers = np.empty((self._cyclic_order, len(g)), dtype=POINT_DTYPE)
        powers[0] = np.arange(len(g))
        done = 1
        while done < len(powers):  # g^(done+a) is g^a then g^done
            step = min(done, len(powers) - done)
            power = g[powers[done - 1]]
            powers[done : done + step] = _products(power[None, :], powers[:step])
            done += step
        return [powers]

    def random_element(self, rng: random.Random) -> Perm:
        if self.is_cyclic_shortcut:
            return perm_power(self.gens[0], rng.randrange(self._cyclic_order))
        out = identity_perm(len(self.gens[0]))
        for lv in self.levels():
            pts = sorted(lv.transversal)
            out = mult(out, lv.transversal[rng.choice(pts)])
        return out


def _products(outer: np.ndarray, inner: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Row r of the result is inner[r % len(inner)] then outer[r // len(inner)],
    that is outer[r // len(inner)][inner[r % len(inner)]], for r in rows
    (every r below len(outer) * len(inner) when rows is None).

    One gather per block of rows: numpy indexes with an intp copy of the
    index, and a block keeps that copy small."""
    m, n = inner.shape
    if rows is None:
        rows = np.arange(len(outer) * m)
    flat, degree = outer.reshape(-1), outer.shape[1]
    out = np.empty((len(rows), n), dtype=POINT_DTYPE)
    step = max(1, _BLOCK_ITEMS // max(n, 1))
    for start in range(0, len(rows), step):
        a, c = np.divmod(rows[start : start + step], m)
        # row a of outer starts at a * degree in flat
        out[start : start + len(a)] = flat[inner[c] + (a * degree)[:, None]]
    return out


def _sorted_products(factors: list[np.ndarray], degree: int, width: int) -> np.ndarray:
    """Every product of one row per factor (later factors applied first), in
    lexicographic order, given that the first width columns of the products
    are already pairwise distinct."""
    identity = np.arange(degree, dtype=POINT_DTYPE)[None, :]
    if not factors:
        return identity
    top, *rest = factors
    products = rest.pop() if rest else identity
    for T in reversed(rest):
        products = _products(T, products)
    prefix = _products(top, products[:, :width])
    return _products(top, products, np.lexsort(prefix.T[::-1]))


def _split_components(gens: list[Perm]) -> list[_Component]:
    """Partition generators into support-connected components."""
    supports = [frozenset(i for i, j in enumerate(g) if i != j) for g in gens]
    remaining = list(range(len(gens)))
    components = []
    while remaining:
        block = [remaining.pop(0)]
        points = set(supports[block[0]])
        grew = True
        while grew:
            grew = False
            for idx in remaining[:]:
                if supports[idx] & points:
                    block.append(idx)
                    points |= supports[idx]
                    remaining.remove(idx)
                    grew = True
        components.append(_Component([gens[i] for i in sorted(block)], frozenset(points)))
    return components


class PermGroup:
    """Group generated by permutations, all of the same degree."""

    def __init__(self, generators, degree: int | None = None):
        gens: list[Perm] = []
        for g in generators:
            g = tuple(g)
            check_bijection(g)
            if not is_identity(g) and g not in gens:
                gens.append(g)
        if degree is None:
            if not gens:
                raise ValueError("degree required for a group with no moving generators")
            degree = len(gens[0])
        if degree > MAX_POINTS:
            raise ValueError(f"degree {degree} exceeds the {MAX_POINTS}-point cap")
        if any(len(g) != degree for g in gens):
            raise ValueError("generators act on different point sets")
        self.degree = degree
        self.generators = tuple(gens)
        self._components = _split_components(gens)
        moved = frozenset().union(*(comp.support for comp in self._components))
        self._fixed_points = tuple(i for i in range(degree) if i not in moved)
        self._order: int | None = None
        self._elements: np.ndarray | None = None
        self._table: KeyTable | None = None
        self._abelian: bool | None = None

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    @property
    def order(self) -> int:
        if self._order is None:
            out = 1
            for comp in self._components:
                out *= comp.order()
            self._order = out
        return self._order

    def is_abelian(self) -> bool:
        if self._abelian is None:
            gens = self.generators
            self._abelian = all(
                mult(a, b) == mult(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
            )
        return self._abelian

    def contains(self, p) -> bool:
        p = tuple(p)
        if len(p) != self.degree:
            return False
        if any(p[i] != i for i in self._fixed_points):
            return False
        for comp in self._components:
            if any(p[i] not in comp.support for i in comp.support):
                return False
            if not comp.contains(p):
                return False
        return True

    def base(self) -> tuple[int, ...]:
        """Points whose images determine every element of G.

        Components move disjoint points, so their bases concatenate: a
        stabilizer chain's base points, or for a cyclic component <g> one
        point of every nontrivial cycle of g (a power of g that fixes a
        point of a cycle fixes that whole cycle).
        """
        points: list[int] = []
        for comp in self._components:
            if comp.is_cyclic_shortcut:
                points.extend(c[0] for c in cycles(comp.gens[0]) if len(c) > 1)
            else:
                points.extend(lv.point for lv in comp.levels())
        return tuple(points)

    def random_element(self, rng: random.Random) -> Perm:
        out = self.identity
        for comp in self._components:
            out = mult(out, comp.random_element(rng))
        return out

    def elements(self) -> np.ndarray:
        """All elements as one (order, degree) array of POINT_DTYPE rows in
        lexicographic order; error beyond ENUMERATION_CAP.

        An element is a product of one transversal element per level of its
        component's stabilizer chain, or a power of a cyclic component's
        generator, and the components commute (Holt, Eick & O'Brien,
        Handbook of Computational Group Theory, 4.4).  The rows are those
        products, built with gathers; the order of the rows is found from
        the columns up to the last base point, which already separate them.
        The transversal products lie in G and the key table shows them to be
        distinct, so they are G exactly when every product with a generator
        is again one of them; that is checked row for row.
        """
        if self.order > ENUMERATION_CAP:
            raise GroupTooLargeError(f"group of order {self.order} exceeds cap {ENUMERATION_CAP}")
        if self._elements is None:
            base = list(self.base())
            factors = [f for comp in self._components for f in comp.factors()]
            elements = _sorted_products(factors, self.degree, max(base, default=-1) + 1)
            table = KeyTable.of(elements[:, base])
            gens = np.array(self.generators, dtype=POINT_DTYPE)
            gens = gens.reshape(len(self.generators), self.degree)
            step = max(1, _BLOCK_ITEMS // max(1, self.degree * len(gens)))
            for start in range(0, len(elements), step):
                products = _products(gens, elements[start : start + step])
                found = table.find(products[:, base], "a product")
                if not np.array_equal(elements[found], products):
                    raise InvariantError("closure disagrees with the stabilizer chain")
            self._elements, self._table = elements, table
        return self._elements

    def key_table(self) -> KeyTable:
        """The key table of elements(), built with it and kept beside it."""
        if self._table is None:
            self.elements()
        return self._table

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def _row_keys(images: np.ndarray) -> np.ndarray:
    """Each row along the last axis of an integer array as one fixed-width
    void item, so that whole rows sort, compare and search as single values.

    Void rows have no width limit, unlike images packed into one integer.
    """
    width = images.itemsize * images.shape[-1]
    if not width:  # a view cannot make zero-width items
        return np.zeros(images.shape[:-1], dtype="V0")
    return np.ascontiguousarray(images).view(f"V{width}").reshape(images.shape[:-1])


@dataclass(frozen=True, eq=False)
class KeyTable:
    """Every element of G named by its images of a base (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 4.4).

    images[x] holds the base images of G.elements()[x], as POINT_DTYPE
    (probes must use the same dtype, so that keys match).  keys holds those
    rows as fixed-width void items in sorted order, and element[t] is the
    index of the element whose key is keys[t], so one searchsorted finds
    the elements of any array of base images.
    """

    images: np.ndarray
    keys: np.ndarray
    element: np.ndarray

    @classmethod
    def of(cls, images: np.ndarray) -> KeyTable:
        keys = _row_keys(images)
        element = np.argsort(keys, kind="stable")
        keys = keys[element]
        if np.any(keys[1:] == keys[:-1]):
            raise InvariantError("two elements share their base images")
        return cls(images, keys, element)

    def find(self, images: np.ndarray, what: str) -> np.ndarray:
        """Indices of the elements with the given base images (rows along
        the last axis); raises InvariantError naming what was looked up
        when one of them is not an element of the group."""
        probe = _row_keys(images)
        pos = np.minimum(np.searchsorted(self.keys, probe), len(self.keys) - 1)
        if not np.array_equal(self.keys[pos], probe):
            raise InvariantError(f"{what} is not an element of the group")
        return self.element[pos]


@dataclass(frozen=True, eq=False)
class ClassStructure:
    """Conjugacy classes with canonical (lexicographically least) representatives.

    Class 0 is the identity class; classes are sorted by representative.
    class_id[x] is the class of G.elements()[x], and table names those
    elements by their base images.  inverse_class[j] is the class
    containing the inverses of class j.
    """

    group: PermGroup = field(repr=False)
    reps: tuple[Perm, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    order: int
    table: KeyTable = field(repr=False)
    class_id: np.ndarray = field(repr=False)

    def exponent(self) -> int:
        """Group exponent, the lcm of the representative orders."""
        return lcm(*(perm_order(r) for r in self.reps))


def conjugacy_classes(G: PermGroup) -> ClassStructure:
    """Full class partition of G; requires |G| within the enumeration cap.

    The classes are orbits on element indices: the base images of g^-1 x g
    are g[x[g^-1[b]]], so for each generator g one gather over the columns
    of the elements at the points g^-1[b] and one search in the group's key
    table give conjugation by g as a map of indices.  Orbits are walked in
    sorted element order, so each class is found from its least element.
    """
    elements, table = G.elements(), G.key_table()
    n, base = len(elements), G.base()
    inverses = [inverse(g) for g in G.generators]
    conjugations = [
        table.find(np.array(g, dtype=POINT_DTYPE)[elements[:, [h[b] for b in base]]], "a conjugate")
        for g, h in zip(G.generators, inverses)
    ]
    class_id, rows = index_orbits(n, [c.tolist().__getitem__ for c in conjugations])
    sizes = np.bincount(class_id, minlength=len(rows)).tolist()
    reps = list(map(tuple, elements[rows].tolist()))
    inverse_images = np.array([[v[b] for b in base] for v in map(inverse, reps)], dtype=POINT_DTYPE)
    inverse_class = tuple(class_id[table.find(inverse_images, "an inverse")].tolist())
    if inverse_class[0] != 0 or sum(sizes) != G.order:
        raise InvariantError("class sizes do not partition the group")
    if any(inverse_class[inverse_class[j]] != j for j in range(len(reps))):
        raise InvariantError("inverse classes are not an involution")
    return ClassStructure(
        group=G,
        reps=tuple(reps),
        sizes=tuple(sizes),
        inverse_class=inverse_class,
        order=G.order,
        table=table,
        class_id=class_id,
    )
