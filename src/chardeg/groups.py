"""Finite permutation groups with a base-and-strong-generating-set index.

A PermGroup is generated by permutations of {0, .., degree-1}.  The order
and membership tests come from a deterministic Schreier-Sims chain, built
on first use.  A chain is built in two steps: it is grown by sifting
elements and placing the residues of those that do not sift through, and
then verified once by sifting the Schreier generators that are not edges
of its Schreier trees.  A grown chain that is not yet verified already
proves membership for what sifts through it, and its orbits multiply to
at most the group's order, so a normal closure can stop growing as soon
as that product reaches the order of the whole group.  Generators are
split into support-disjoint components (a direct product internally),
each with its own chain.  A component with a single generator g knows
its order (the order of g) and tests membership by walking the cycles of
g, so it builds its chain only when its base or its elements are needed.
Only outside input is checked and split: a subgroup takes its parent's
components, a direct product its factors', shifted (_Component.shifted).

The elements, when a computation needs all of them, are one int16 array
built from the chain, one row per element, in the order of their chain
coordinates: row x is the element whose transversal rows, read as
mixed-radix digits, spell x, and sifting an element's base images through
the chain finds that row.
Conjugacy classes and cosets are orbits of index maps on those rows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import lcm, prod

import numpy as np

from .numbers import InvariantError
from .perms import (
    Perm,
    check_bijection,
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


def _points(base: int, exp: int = 1) -> int:
    """base**exp, the degree of a group on that many points, refused above
    MAX_POINTS before anything of that size is built or counted.  A power
    past the cap is not formed: base >= 2 with exp >= 13 is past it."""
    n = min(base, MAX_POINTS + 1) ** min(exp, MAX_POINTS.bit_length())
    if n > MAX_POINTS:
        raise past_the_point_cap(str(base) if exp == 1 else f"{base}^{exp}")
    return n


def past_the_point_cap(degree: str) -> ValueError:
    """The error that refuses a degree past MAX_POINTS, shown as written in
    degree: every such refusal has this one wording."""
    return ValueError(f"degree {degree} exceeds the {MAX_POINTS}-point cap")


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


def index_orbits(n: int, maps: list[list[int]]) -> tuple[np.ndarray, list[int]]:
    """The orbits of range(n) under maps (lists of indices, map i sending x
    to maps[i][x]), numbered in the order of their least points: the orbit
    number of every index, and the least index of every orbit.  The orbit
    numbers, -1 until found, also mark the indices seen."""
    orbit_id = [-1] * n
    least: list[int] = []
    for x in range(n):  # x is the least of its orbit when first unseen
        if orbit_id[x] < 0:
            k = len(least)
            least.append(x)
            orbit_id[x] = k
            points = [x]
            for y in points:  # the list grows while it is walked
                for m in maps:
                    z = m[y]
                    if orbit_id[z] < 0:
                        orbit_id[z] = k
                        points.append(z)
    return np.array(orbit_id, dtype=np.intp), least


class _Level:
    """One level of a stabilizer chain: base point, generators, transversal.

    ``transversal[x]`` maps the base point to x, and ``inverses[x]`` is its
    inverse, stored beside it (same keys) so that sifting multiplies by a
    kept permutation rather than inverting one at every step; likewise
    ``gen_inverses[i]`` is the inverse of the residue ``gens[i]``.  Entries are
    only ever added, so an element that once sifted through the levels from
    here on still does.  ``checked`` holds the pairs (x, id(s)) whose
    Schreier generator u_x s u_(x s)^-1 has sifted through the deeper
    levels, or is the identity because x -s-> x s is the tree edge that
    set u_(x s) (s is a residue stored here or deeper, and stays alive
    there).
    """

    __slots__ = ("point", "gens", "gen_inverses", "transversal", "inverses", "checked")

    def __init__(self, point: int, identity: Perm):
        self.point = point
        self.gens: list[Perm] = []
        self.gen_inverses: list[Perm] = []
        self.transversal: dict[int, Perm] = {point: identity}
        self.inverses: dict[int, Perm] = {point: identity}
        self.checked: set[tuple[int, int]] = set()


def _chain_order(levels: list[_Level]) -> int:
    """The product of the basic orbit lengths: the order of the group of a
    complete chain, and at most that order for a partial one."""
    return prod(len(lv.transversal) for lv in levels)


def _sift(levels: list[_Level], p: Perm, start: int = 0) -> tuple[Perm, int]:
    """p with the transversal elements of levels start, start+1, .. divided
    off while they can be, and the level where that stopped (len(levels)
    when it went through): p lies in the group of a complete chain exactly
    when sifting it from level 0 leaves the identity."""
    for idx in range(start, len(levels)):
        lv = levels[idx]
        u_inv = lv.inverses.get(p[lv.point])
        if u_inv is None:
            return p, idx
        p = mult(p, u_inv)
    return p, len(levels)


def _schreier_sims(gens: list[Perm], degree: int) -> list[_Level]:
    """Deterministic Schreier-Sims; returns the verified stabilizer chain.

    A chain is built in two steps: growing it by an element places the
    element's residue (_grow), and verifying it runs the Schreier-generator
    loop (_verify).  Here the residue of every generator is placed first,
    with no orbit extended, and the chain is then verified once, from the
    deepest level that gained a residue.

    Verifying a level extends its orbit, keeping the transversal elements
    it has, and tests only the Schreier generators not in its ``checked``
    set: an edge of the Schreier tree is put there as it is found (see
    _extend_orbit), and one that sifted still sifts, because the deeper
    transversals only grow.  So a resumed level, or one revisited after a
    residue was placed deeper, tests only its new points and its new
    generators.
    """
    levels: list[_Level] = []
    i = -1
    for g in gens:
        residue, j = _sift(levels, g)
        if not is_identity(residue):
            i = max(i, _place(levels, residue, j, degree))
    return _verify(levels, i, degree)


def _chain_gens(levels: list[_Level], idx: int) -> list[tuple[Perm, Perm]]:
    """The residues stored at level idx and deeper, each with its inverse:
    they generate level idx's group, since deeper residues fix its base
    point but can still grow its orbit."""
    return [pair for lv in levels[idx:] for pair in zip(lv.gens, lv.gen_inverses)]


def _extend_orbit(level: _Level, pairs: list[tuple[Perm, Perm]]) -> list[int]:
    """The orbit of level under the generators of pairs (each with its
    inverse), in the order found, its new points added to the transversal.
    The edge x -s-> y that adds y sets u_y = u_x s, so its Schreier
    generator u_x s u_y^-1 is the identity: (x, id(s)) goes straight into
    ``checked`` and is never formed or sifted."""
    trans, invs, checked = level.transversal, level.inverses, level.checked
    queue = list(trans)
    for x in queue:
        ux, vx = trans[x], invs[x]
        for s, s_inv in pairs:
            y = s[x]
            if y not in trans:
                trans[y] = mult(ux, s)
                invs[y] = mult(s_inv, vx)  # (ux s)^-1 = s^-1 ux^-1
                checked.add((x, id(s)))
                queue.append(y)
    return queue


def _place(levels: list[_Level], p: Perm, idx: int, degree: int) -> int:
    """Append residue p at level idx, extending the base if needed."""
    if idx == len(levels):
        b = min(i for i in range(degree) if p[i] != i)
        levels.append(_Level(b, identity_perm(degree)))
    levels[idx].gens.append(p)
    levels[idx].gen_inverses.append(inverse(p))
    return idx


def _grow(levels: list[_Level], g: Perm, degree: int) -> bool:
    """Grow the chain levels, complete or not, by g without verifying it:
    unless g sifts through, and so already lies in the group of the
    levels, its residue is placed at the level where the sift stopped, and
    the orbits of that level and of every level above it, which the
    residue also generates, are extended.  Whether g was placed.  The
    levels stay a partial chain until _verify runs."""
    residue, j = _sift(levels, g)
    if is_identity(residue):
        return False
    _place(levels, residue, j, degree)
    for idx in range(j + 1):
        _extend_orbit(levels[idx], _chain_gens(levels, idx))
    return True


def _verify(levels: list[_Level], i: int, degree: int, stop_at: int | None = None) -> list[_Level]:
    """Complete the chain levels, whose levels below i are verified, from
    level i up: each level's orbit is extended, and each of its Schreier
    generators not in ``checked`` is sifted through the deeper levels.  A
    residue left over is placed where its sift stopped, and the loop
    restarts from that level.  With stop_at, the partial chain is returned
    as soon as its orbits multiply to stop_at, which the group's order is
    then at least; it can still be grown, and a later _verify completes it."""
    while i >= 0:
        level = levels[i]
        gens_here = _chain_gens(levels, i)
        orbit = _extend_orbit(level, gens_here)
        if stop_at is not None and _chain_order(levels) >= stop_at:
            return levels
        restart = -1
        checked = level.checked
        for x in orbit:
            ux = level.transversal[x]
            for s, _ in gens_here:
                key = (x, id(s))
                if key in checked:
                    continue
                sg = mult(mult(ux, s), level.inverses[s[x]])
                residue, j = _sift(levels, sg, i + 1)
                if not is_identity(residue):
                    restart = _place(levels, residue, j, degree)
                    break
                checked.add(key)
            if restart >= 0:
                break
        i = restart if restart >= 0 else i - 1
    return levels


class _Component:
    """Generators whose support, the points they move, no other component
    of the group moves; it is found on first use when not given.

    A single generator g generates a cyclic group, whose order (the order
    of g, unless given) is worked out on first use, and whose membership
    test walks the cycles of g; its chain, like any other, is built on
    first use.
    """

    __slots__ = ("gens", "_support", "_levels", "_cyclic_order", "_abelian")

    def __init__(
        self,
        gens: list[Perm],
        support: frozenset[int] | None = None,
        cyclic_order: int | None = None,
    ):
        self.gens = gens
        self._support = support
        self._levels: list[_Level] | None = None
        self._cyclic_order = cyclic_order
        self._abelian: bool | None = None

    @property
    def support(self) -> frozenset[int]:
        if self._support is None:
            self._support = frozenset().union(*map(_moved_points, self.gens))
        return self._support

    @property
    def is_cyclic_shortcut(self) -> bool:
        return len(self.gens) == 1

    def order(self) -> int:
        if self.is_cyclic_shortcut:
            if self._cyclic_order is None:
                self._cyclic_order = perm_order(self.gens[0])
            return self._cyclic_order
        return _chain_order(self.levels())

    def is_abelian(self) -> bool:
        if self._abelian is None:
            gens = self.gens
            self._abelian = all(
                mult(a, b) == mult(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
            )
        return self._abelian

    def shifted(self, offset: int, degree: int) -> _Component:
        """This component placed on points offset.. of a group on degree
        points: point i becomes offset + i, the generators keep their order,
        and the support, any cyclic order already found and the abelian
        flag are kept.  The chain is not; it is built again on first use."""
        e, end = identity_perm(degree), offset + len(self.gens[0])
        gens = [e[:offset] + tuple([offset + x for x in g]) + e[end:] for g in self.gens]
        comp = _Component(gens, frozenset([offset + i for i in self.support]), self._cyclic_order)
        comp._abelian = self._abelian
        return comp

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
            for _ in range(self.order() // orbit_len):
                if all(candidate[i] == p[i] for i in self.support):
                    return True
                candidate = mult(candidate, step)
            return False
        p, _ = _sift(self.levels(), p)
        return all(p[i] == i for i in self.support)

    def base(self) -> list[int]:
        """The base points of the component's levels."""
        return [lv.point for lv in self.levels()]

    def factors(self) -> list[np.ndarray]:
        """The transversal of every level, in base() order, as an array
        whose row 0 is the identity: the products of one row from each
        (the row of a later array applied first) are the component's
        elements, each exactly once.  Every array has at least two rows,
        since a level is placed only for a residue that moves its base
        point.
        """
        degree = len(self.gens[0])
        return [
            np.fromiter(
                itertools.chain.from_iterable(lv.transversal.values()),
                dtype=POINT_DTYPE,
                count=len(lv.transversal) * degree,
            ).reshape(-1, degree)
            for lv in self.levels()
        ]

    def random_element(self, rng: random.Random, start: int = 0) -> Perm:
        """A uniform random element of the stabilizer of the first start
        base points (start = 0 for the whole component): the product of
        one random transversal element per level from start on."""
        out = identity_perm(len(self.gens[0]))
        for lv in self.levels()[start:]:
            pts = sorted(lv.transversal)
            out = mult(out, lv.transversal[rng.choice(pts)])
        return out

    def stabilizer_elements(self, start: int) -> np.ndarray:
        """The elements that fix the first start base points, as POINT_DTYPE
        rows in coordinate order: the products of the transversals from
        level start on (see _coordinate_products).  In a group with this
        component they are the rows of elements() that fix those points
        and the other components' base points, found without listing the
        other rows."""
        factors = self.factors()[start:]
        order = prod(map(len, factors))
        if order > ENUMERATION_CAP:
            raise GroupTooLargeError(f"stabilizer of order {order} exceeds cap {ENUMERATION_CAP}")
        return _coordinate_products(factors, len(self.gens[0]))


def _products(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Row r of the result is inner[r % len(inner)] then outer[r // len(inner)],
    that is outer[r // len(inner)][inner[r % len(inner)]].

    One gather per block of rows: numpy indexes with an intp copy of the
    index, and a block keeps that copy small."""
    m, n = inner.shape
    flat, degree = outer.reshape(-1), outer.shape[1]
    out = np.empty((len(outer) * m, n), dtype=POINT_DTYPE)
    step = max(1, _BLOCK_ITEMS // max(n, 1))
    for start in range(0, len(out), step):
        a, c = np.divmod(np.arange(start, min(start + step, len(out))), m)
        # row a of outer starts at a * degree in flat
        out[start : start + len(a)] = flat[inner[c] + (a * degree)[:, None]]
    return out


def _coordinate_products(factors: list[np.ndarray], degree: int) -> np.ndarray:
    """Every product of one row per factor (later factors applied first),
    the product of rows d_0, d_1, .. at the row whose mixed-radix digits
    they are, with the first factor's the most significant."""
    products = np.arange(degree, dtype=POINT_DTYPE)[None, :]
    for T in reversed(factors):
        products = _products(T, products)
    return products


def _moved_points(g: Perm) -> frozenset[int]:
    return frozenset(i for i, j in enumerate(g) if i != j)


def _split_components(gens: list[Perm]) -> list[_Component]:
    """Partition generators into support-connected components."""
    supports = [_moved_points(g) for g in gens]
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
    """Group generated by permutations, all of the same degree.

    Outside input is checked and split into components by the constructor;
    a subgroup built from elements of a group takes that group's split
    (see subgroup), and a direct product its factors' components, shifted
    (see constructions.direct_product).  All end in _assemble.
    """

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
        _points(degree)
        if any(len(g) != degree for g in gens):
            raise ValueError("generators act on different point sets")
        self._assemble(degree, gens, _split_components(gens))

    def _assemble(self, degree: int, gens: list[Perm], components: list[_Component]) -> PermGroup:
        """Set up this group from generators split into components; returns it."""
        self.degree = degree
        self.generators = tuple(gens)
        self._components = components
        self._fixed_points: tuple[int, ...] | None = None
        self._order: int | None = None
        self._elements: np.ndarray | None = None
        self._index: ChainIndex | None = None
        self._abelian: bool | None = None
        self._conjugators: list[tuple[Perm, Perm]] | None = None
        return self

    def subgroup(
        self, parts: list[list[Perm]], orders: list[int | None] | None = None
    ) -> PermGroup:
        """The subgroup generated by parts, lists of elements of this group
        (products of its checked generators, so neither checked nor split
        again), different parts moving the points of different components.

        Each part, less identities and repeats, is one component of the
        subgroup, since components need only move disjoint points; a part
        that is a component's generator list keeps that component, chain
        and all.  orders[i], when given, is the order of the group part i
        generates, which a one-generator part takes rather than walking
        its cycles.  The generators are the parts' elements, in order.
        """
        components: list[_Component] = []
        for part, order in zip(parts, orders or [None] * len(parts), strict=True):
            gens = list(dict.fromkeys(g for g in part if not is_identity(g)))
            if not gens:
                continue
            kept = next((comp for comp in self._components if comp.gens == gens), None)
            if kept is None:
                kept = _Component(gens, cyclic_order=order if len(gens) == 1 else None)
            components.append(kept)
        gens = [g for comp in components for g in comp.gens]
        return PermGroup.__new__(PermGroup)._assemble(self.degree, gens, components)

    @property
    def order(self) -> int:
        if self._order is None:
            out = 1
            for comp in self._components:
                out *= comp.order()
            self._order = out
        return self._order

    def is_abelian(self) -> bool:
        """Generators of different components move disjoint points, so they
        commute; G is abelian when every component is."""
        if self._abelian is None:
            self._abelian = all(comp.is_abelian() for comp in self._components)
        return self._abelian

    def conjugators(self) -> list[tuple[Perm, Perm]]:
        """The generators g as pairs (g^-1, g), each inverted once for the
        group: the conjugate g^-1 k g of k by g is mult(mult(g^-1, k), g)."""
        if self._conjugators is None:
            self._conjugators = [(inverse(g), g) for g in self.generators]
        return self._conjugators

    def contains(self, p) -> bool:
        p = tuple(p)
        if len(p) != self.degree:
            return False
        if self._fixed_points is None:
            moved = frozenset().union(*(comp.support for comp in self._components))
            self._fixed_points = tuple(i for i in range(self.degree) if i not in moved)
        if any(p[i] != i for i in self._fixed_points):
            return False
        return all(comp.contains(p) for comp in self._components)

    def base(self) -> tuple[int, ...]:
        """Points whose images determine every element of G: the base points
        of every component's levels (see _Component.base), concatenated,
        since components move disjoint points."""
        return tuple(b for comp in self._components for b in comp.base())

    def elements(self) -> np.ndarray:
        """All elements as one (order, degree) array of POINT_DTYPE rows in
        coordinate order; error beyond ENUMERATION_CAP.

        An element is a product of one transversal element per level of its
        component's chain, and the components commute (Holt, Eick &
        O'Brien, Handbook of Computational Group Theory, 4.4).  The rows
        are those products, built with gathers, and row x is the product
        whose transversal rows, read as mixed-radix digits with the first
        level the most significant, spell x (see ChainIndex).  The
        products lie in G, so they are G exactly when every product of a
        row with a generator is again a row; that is checked in full
        against the row the chain index finds.  Then every row's own base
        images must find that row, so no two rows share them.
        """
        if self.order > ENUMERATION_CAP:
            raise GroupTooLargeError(f"group of order {self.order} exceeds cap {ENUMERATION_CAP}")
        if self._elements is None:
            base = list(self.base())
            transversals = [comp.factors() for comp in self._components]
            factors = [T for levels in transversals for T in levels]
            elements = _coordinate_products(factors, self.degree)
            index = ChainIndex.of(transversals, base, elements[:, base])
            gens = np.array(self.generators, dtype=POINT_DTYPE)
            gens = gens.reshape(len(self.generators), self.degree)
            step = max(1, _BLOCK_ITEMS // max(1, self.degree * len(gens)))
            for start in range(0, len(elements), step):
                products = _products(gens, elements[start : start + step])
                found = index.find(products[:, base], "a product")
                if not np.array_equal(elements[found], products):
                    raise InvariantError("closure disagrees with the stabilizer chain")
            rows = index.find(index.images, "an element row")
            if not np.array_equal(rows, np.arange(len(elements))):
                raise InvariantError("two elements share their base images")
            self._elements, self._index = elements, index
        return self._elements

    def adopt_chain(self, levels: list[_Level]) -> None:
        """Keep levels, a complete stabilizer chain of this group built from
        any generating set whose elements each move the points of one
        component only, as the chains of the components: the residues and
        transversal elements made from such generators move the points of
        one component too, so the levels whose base points a component
        moves are a chain of that component."""
        for comp in self._components:
            comp._levels = [lv for lv in levels if lv.point in comp.support]
        if self.order != _chain_order(levels):
            raise InvariantError("an adopted chain does not split over the components")

    def chain_index(self) -> ChainIndex:
        """The chain index of elements(), built with it and kept beside it."""
        if self._index is None:
            self.elements()
        return self._index

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


@dataclass(frozen=True, eq=False)
class IndexLevel:
    """One level of a ChainIndex, for the base point at the same place in
    the base: positions[x] is the row of the level's transversal that maps
    the base point to x, or -1 off its orbit; inverses[i] is the inverse of
    transversal row i, read at the base columns `later` of the same
    component; a component's last level has no such columns and keeps an
    empty (radix, 0) array rather than radix x degree unread entries."""

    radix: int
    positions: np.ndarray
    inverses: np.ndarray
    later: slice


@dataclass(frozen=True, eq=False)
class ChainIndex:
    """Every element of G named by its images of a base, found by sifting
    those images through the stabilizer chain (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 4.3-4.4).

    images[x] holds the base images of G.elements()[x].  Every element x
    is a product of one row u_j of each level's transversal, deeper rows
    applied first (x[p] = u_0[u_1[..u_m[p]..]]), and the deeper u_k fix
    level j's base point b_j; so with u_0, .., u_(j-1) divided off the
    images, x[b_j] = u_j[b_j], and positions[x[b_j]] is the row of u_j.  Dividing u_j off in turn is one
    gather per later base point of its component.  The rows, read as
    mixed-radix digits with level 0 the most significant, are x's
    coordinate, which is its row in G.elements().
    """

    images: np.ndarray
    levels: tuple[IndexLevel, ...]

    @classmethod
    def of(
        cls,
        transversals: list[list[np.ndarray]],
        base: list[int],
        images: np.ndarray,
    ) -> ChainIndex:
        """The index of a group whose components have the given level
        transversals (arrays of rows, row 0 the identity), in base order."""
        levels: list[IndexLevel] = []
        for component in transversals:
            end = len(levels) + len(component)
            for T in component:
                column = len(levels)
                radix, later = len(T), slice(column + 1, end)
                positions = np.full(T.shape[1], -1, dtype=np.intp)
                positions[T[:, base[column]]] = np.arange(radix)
                inverses = (
                    np.argsort(T, axis=1) if column + 1 < end else np.empty((radix, 0), np.intp)
                )
                levels.append(IndexLevel(radix, positions, inverses, later))
        return cls(images, tuple(levels))

    def find(self, images: np.ndarray, what: str) -> np.ndarray:
        """Indices of the elements with the given base images (rows along
        the last axis); raises InvariantError naming what was looked up
        when one of them is not an element of the group."""
        shape = images.shape[:-1]
        n = prod(shape)
        points = np.ascontiguousarray(images.reshape(n, len(self.levels)).T, dtype=np.intp)
        coord = np.zeros(n, dtype=np.intp)
        for level, x in zip(self.levels, points):
            row = level.positions[x]
            if n and row.min() < 0:
                raise InvariantError(f"{what} is not an element of the group")
            coord = coord * level.radix + row
            points[level.later] = level.inverses[row, points[level.later]]
        return coord.reshape(shape)


@dataclass(frozen=True, eq=False)
class ClassStructure:
    """Conjugacy classes, each represented by its first row in G.elements().

    Class 0 is the identity class; classes are numbered by their first row.
    class_id[x] is the class of G.elements()[x], and index finds those
    elements from their base images.  inverse_class[j] is the class
    containing the inverses of class j.
    """

    reps: tuple[Perm, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    order: int
    index: ChainIndex = field(repr=False)
    class_id: np.ndarray = field(repr=False)

    def exponent(self) -> int:
        """Group exponent, the lcm of the representative orders."""
        return lcm(*(perm_order(r) for r in self.reps))


def conjugacy_classes(G: PermGroup) -> ClassStructure:
    """Full class partition of G; requires |G| within the enumeration cap.

    The classes are orbits on element indices: the base images of g^-1 x g
    are g[x[g^-1[b]]], so for each generator g one gather over the columns
    of the elements at the points g^-1[b] and one lookup in the group's
    chain index give conjugation by g as a map of indices.  Orbits are walked in
    row order, so each class is found from its first row.
    """
    elements, index = G.elements(), G.chain_index()
    n, base = len(elements), G.base()
    conjugations = [
        index.find(np.array(g, dtype=POINT_DTYPE)[elements[:, [h[b] for b in base]]], "a conjugate")
        for h, g in G.conjugators()
    ]
    class_id, rows = index_orbits(n, [c.tolist() for c in conjugations])
    sizes = np.bincount(class_id, minlength=len(rows)).tolist()
    reps = list(map(tuple, elements[rows].tolist()))
    inverse_images = np.array([[v[b] for b in base] for v in map(inverse, reps)], dtype=POINT_DTYPE)
    inverse_class = tuple(class_id[index.find(inverse_images, "an inverse")].tolist())
    if inverse_class[0] != 0 or sum(sizes) != G.order:
        raise InvariantError("class sizes do not partition the group")
    if any(inverse_class[inverse_class[j]] != j for j in range(len(reps))):
        raise InvariantError("inverse classes are not an involution")
    return ClassStructure(
        reps=tuple(reps),
        sizes=tuple(sizes),
        inverse_class=inverse_class,
        order=G.order,
        index=index,
        class_id=class_id,
    )
