"""Tests for exact character degree computation.

Spectra of small groups are frozen from an independent floating-point
oracle (tests/oracle.py) that diagonalizes a random combination of class
matrices over the complex numbers; the values asserted here were produced
by that oracle and cross-checked before being pinned.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chardeg.dixon import (
    CLASS_CAP,
    ClassCountError,
    DegreeSpectrum,
    _ClassMatrixBuilder,
    _distinct_roots,
    _krylov,
    _projectors,
    _rref,
    _split,
    choose_modulus,
    degree_spectrum,
    dixon_degrees,
)
from chardeg import dixon
from chardeg.constructions import build, dihedral, direct_product, iter_catalog, spectrum_of, sym
from chardeg.groups import PermGroup, conjugacy_classes
from chardeg.numbers import InvariantError, is_prime

from kernel_reference import charpoly, every_class_eigenspaces, kernel_split
from oracle import oracle_class_matrices, oracle_degrees
from support import built_of, drop_orbit_point, group_of, two_cycle_product


def spectrum(spec: str) -> tuple[int, ...]:
    return degree_spectrum(group_of(spec)).degrees


def test_degree_spectrum_invariants_enforced():
    with pytest.raises(InvariantError, match="sum to 2, not 6"):
        DegreeSpectrum(((1, 2),), 6)
    with pytest.raises(InvariantError, match="not strictly increasing"):
        DegreeSpectrum(((1, 1), (3, 1), (2, 1)), 14)
    with pytest.raises(InvariantError, match="not strictly increasing"):
        DegreeSpectrum(((1, 1), (3, 1), (3, 1)), 19)
    with pytest.raises(InvariantError, match="multiplicity is not positive"):
        DegreeSpectrum(((1, 6), (2, 0)), 6)
    sp = DegreeSpectrum(((1, 2), (2, 1)), 6)
    assert sp.count(1) == 2 and sp.count(2) == 1 and sp.count(3) == 0
    assert sp.degrees == (1, 1, 2)


def test_degree_spectrum_requires_the_trivial_character():
    # the squares sum to the order, but no character has degree 1
    with pytest.raises(InvariantError, match="least degree is not the 1"):
        DegreeSpectrum(((2, 1),), 4)
    with pytest.raises(InvariantError, match="least degree is not the 1"):
        DegreeSpectrum((), 0)


def test_abelian_spectrum_is_one_pair():
    G = group_of("cyclic:2xcyclic:1000")
    sp = degree_spectrum(G)
    assert sp.pairs == ((1, 2000),) and sp.count(1) == 2000


def test_choose_modulus():
    # least prime = 1 mod 6 with square above 4*24
    assert choose_modulus(24, 6) == 13
    assert choose_modulus(24, 6, min_value=13) == 19
    ell = choose_modulus(360, 30)
    assert ell % 30 == 1 and ell * ell > 1440 and is_prime(ell)


def test_class_matrix_stats():
    cs = conjugacy_classes(group_of("sym:3"))
    builder = _ClassMatrixBuilder(cs)
    transposition_class = next(j for j, s in enumerate(cs.sizes) if s == 3)
    A = builder.matrix(transposition_class)
    # column sums are the class size; column 0 lives on the inverse class
    assert A.sum(axis=0).tolist() == [3] * len(cs.reps)
    assert A[transposition_class, 0] == 3
    assert A[:, 0].sum() == 3

    assert np.array_equal(builder.matrix(0), np.eye(len(cs.reps), dtype=np.int64))


def test_class_matrix_row_zero_inverse_class():
    cs = conjugacy_classes(group_of("frob:7:1:3"))
    builder = _ClassMatrixBuilder(cs)
    for i in range(len(cs.reps)):
        A = builder.matrix(i)
        for k, entry in enumerate(A[:, 0]):
            expected = cs.sizes[i] if k == cs.inverse_class[i] else 0
            assert entry == expected


@pytest.mark.parametrize("spec", ["sym:4", "psl2:7", "frob:7:1:3", "agl1:8", None])
def test_class_matrices_match_oracle_structure_constants(spec):
    G = group_of(spec) if spec else two_cycle_product()
    cs = conjugacy_classes(G)
    classes, mats = oracle_class_matrices(G.generators, G.degree)
    # classes correspond through the class of any member
    row = {x: i for i, x in enumerate(map(tuple, G.elements().tolist()))}
    ours = [int(cs.class_id[row[cls[0]]]) for cls in classes]
    assert sorted(ours) == list(range(len(cs.reps)))
    builder = _ClassMatrixBuilder(cs)
    for oi, i in enumerate(ours):
        A = builder.matrix(i)
        assert np.array_equal(A[np.ix_(ours, ours)], mats[oi]), (spec, i)


def test_missing_product_is_an_invariant_error():
    cs = conjugacy_classes(group_of("sym:4"))
    builder = _ClassMatrixBuilder(cs)
    # drop the level-0 base image of one element x of class j from the index:
    # the products x * 1, counted by the matrix of the inverse class of j,
    # then no longer sift
    j = 2
    x = int(np.flatnonzero(cs.class_id == j)[0])
    builder.cs = replace(cs, index=drop_orbit_point(cs.index, 0, int(cs.index.images[x, 0])))
    with pytest.raises(InvariantError, match="a product is not an element of the group"):
        builder.matrix(cs.inverse_class[j])


def test_trivial_group_class_matrix():
    builder = _ClassMatrixBuilder(conjugacy_classes(PermGroup([], degree=3)))
    assert builder.matrix(0).tolist() == [[1]]


def test_small_spectra():
    assert spectrum("sym:3") == (1, 1, 2)
    assert spectrum("sym:4") == (1, 1, 2, 3, 3)
    assert spectrum("alt:4") == (1, 1, 1, 3)
    assert spectrum("alt:5") == (1, 3, 3, 4, 5)
    assert spectrum("psl2:7") == (1, 3, 3, 6, 7, 8)
    assert spectrum("dihedral:4") == (1, 1, 1, 1, 2)
    assert spectrum("dihedral:5") == (1, 1, 2, 2)
    assert spectrum("extraspecial:3") == (1,) * 9 + (3, 3)
    assert spectrum("agl1:11") == (1,) * 10 + (10,)
    assert spectrum("frob:7:1:3") == (1, 1, 1, 3, 3)


def test_abelian_spectra_are_all_ones():
    for spec in ["cyclic:8", "cyclic:3xcyclic:3", "cyclic:30"]:
        built = built_of(spec)
        sp = spectrum_of(built)
        assert sp.degrees == (1,) * built.group.order


def test_product_rule_matches_direct_computation():
    built = built_of("sym:3xcyclic:2")
    sp_product = spectrum_of(built)
    assert sp_product.degrees == (1, 1, 1, 1, 2, 2)
    sp_direct = dixon_degrees(conjugacy_classes(built.group))
    assert sp_direct.degrees == sp_product.degrees

    built2 = built_of("sym:3xsym:3")
    sp2 = spectrum_of(built2)
    assert sp2.degrees == dixon_degrees(conjugacy_classes(built2.group)).degrees


def pointwise(*spectra: tuple[int, ...]) -> tuple[int, ...]:
    degrees = [1]
    for sp in spectra:
        degrees = [a * b for a in degrees for b in sp]
    return tuple(sorted(degrees))


def test_product_of_three_sym5_beyond_the_enumeration_cap():
    # order 1,728,000: only the components' spectra can be computed
    G = direct_product([sym(5)] * 3)
    s5 = (1, 1, 4, 4, 5, 5, 6)
    assert degree_spectrum(G).degrees == pointwise(s5, s5, s5)


def test_product_of_two_dihedral100_beyond_the_class_cap():
    # 53 classes each, so 2,809 classes in the product
    G = direct_product([dihedral(100)] * 2)
    d100 = (1,) * 4 + (2,) * 49
    assert degree_spectrum(G).degrees == pointwise(d100, d100)


def test_product_without_a_recipe_matches_direct_computation():
    G = direct_product([sym(3), dihedral(5), group_of("alt:4")])
    assert len(G._components) == 3
    assert degree_spectrum(G) == dixon_degrees(conjugacy_classes(G))


def test_trivial_group_spectrum_from_the_general_path():
    assert dixon_degrees(conjugacy_classes(PermGroup([], degree=3))).degrees == (1,)


def test_spectra_match_oracle():
    for spec in [
        "sym:4",
        "alt:5",
        "dihedral:7",
        "frob:5:1:4",
        "agl1:8",
        "extraspecial:5",
        "psl2:7",
        "frob:3:2:8",
    ]:
        G = group_of(spec)
        assert spectrum(spec) == oracle_degrees(G.generators, G.degree), spec


def test_linear_degree_count_is_commutator_index():
    from chardeg.subgroups import derived_subgroup

    for spec in ["sym:4", "dihedral:6", "frob:7:1:3", "psl2:7", "agl1:9"]:
        G = group_of(spec)
        sp = degree_spectrum(G)
        assert sp.count(1) == G.order // derived_subgroup(G).group.order


def test_every_degree_divides_group_order():
    for spec in ["sym:5", "sym:6", "psl2:11", "psl2:13", "frob:11:1:10"]:
        G = group_of(spec)
        for d in degree_spectrum(G).degrees:
            assert G.order % d == 0


def test_degree_count_equals_class_count():
    for spec in ["sym:5", "psl2:8", "dihedral:12"]:
        G = group_of(spec)
        cs = conjugacy_classes(G)
        assert len(dixon_degrees(cs).degrees) == len(cs.reps)


def test_class_cap_enforced():
    cs = conjugacy_classes(group_of("cyclic:200"))
    with pytest.raises(ClassCountError):
        dixon_degrees(cs)
    assert CLASS_CAP == 150


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.permutations(range(5)).map(tuple), min_size=1, max_size=3))
def test_random_subgroups_of_sym5_match_oracle(gens):
    G = PermGroup(gens, degree=5)
    sp = degree_spectrum(G)
    assert sum(d * d for d in sp.degrees) == G.order
    assert sp.degrees == oracle_degrees(G.generators, G.degree)


def first_class_action(spec: str) -> tuple[np.ndarray, int]:
    """The splitter's first class matrix acting on coefficient rows of the
    whole space, and the modulus it is reduced by."""
    cs = conjugacy_classes(group_of(spec))
    k = len(cs.reps)
    ell = choose_modulus(cs.order, cs.exponent(), min_value=k)
    i = min(range(1, k), key=lambda j: (cs.sizes[j], j))
    return _ClassMatrixBuilder(cs).matrix(i).T % ell, ell


def unit_row(n: int) -> np.ndarray:
    """The identity class e_0 as a coefficient row."""
    e = np.zeros(n, dtype=np.int64)
    e[0] = 1
    return e


def whole_space(n: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The whole space as the solver's first block: identity basis and the
    identity class e_0 as its identity component."""
    return np.eye(n, dtype=np.int64), list(range(n)), unit_row(n)


def identity_components(spaces, ell: int) -> np.ndarray:
    """The sum of the blocks' identity components, each taken back from its
    block's coordinates to the whole space."""
    return sum(z @ B for B, _, z in spaces) % ell


@pytest.mark.parametrize("spec", ["sym:5", "psl2:7", "dihedral:12", "extraspecial:3", "agl1:9"])
def test_split_matches_kernel_reference(spec):
    R, ell = first_class_action(spec)
    k = R.shape[0]
    spaces = _split(*whole_space(k), R, ell)
    expected = kernel_split(np.eye(k, dtype=np.int64), list(range(k)), R, ell)
    assert [p for _, p, _ in spaces] == [p for _, p in expected]
    for (B, _, _), (E, _) in zip(spaces, expected):
        assert np.array_equal(B, E)


def test_identity_component_finds_every_eigenvalue():
    # The central class of 5^{1+2} has eigenvalue 1 on the 25 linear
    # characters beside four simple roots on the degree-5 characters.  The
    # all-ones row has no component on those four, but e_0 has a nonzero one
    # on every eigenvalue: all five are found, none projects to zero, and the
    # 25 linear characters stay together.
    R, ell = first_class_action("extraspecial:5")
    _, f, _ = _krylov(unit_row(29), R, ell)
    assert len(f) == 6 and len(_distinct_roots(f, ell)) == 5
    assert _distinct_roots(f, ell) == _distinct_roots(charpoly(R, ell), ell)
    spaces = _split(*whole_space(29), R, ell)
    assert [B.shape[0] for B, _, _ in sorted(spaces, key=lambda s: s[0].shape[0])] == [1, 1, 1, 1, 25]
    assert all(z.any() for _, _, z in spaces)
    assert np.array_equal(identity_components(spaces, ell), unit_row(29))
    assert spectrum("extraspecial:5") == (1,) * 25 + (5,) * 4


def test_krylov_forms_rows_only_up_to_the_first_dependency():
    products = []

    class Counting(np.ndarray):
        """Counts the products it takes part in."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(ufunc)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    # e_0's minimal polynomial under this 29 x 29 class matrix has degree 5
    R, ell = first_class_action("extraspecial:5")
    K, f, rows = _krylov(unit_row(29), R.view(Counting), ell)
    assert len(f) == 6 and len(rows) == 5
    assert len(products) == 5  # z R, .., z R^5, not all 29
    assert K.shape == (6, 29) and type(K) is np.ndarray
    for j in range(5):
        assert np.array_equal(K[j + 1], K[j] @ R % ell)
    assert not (f @ K % ell).any()  # z f(R) = 0
    assert len(_rref(K[:5][:, rows], ell)[1]) == 5  # independent on rows


def test_dihedral_295_closed_form():
    assert spectrum("dihedral:295") == (1, 1) + (2,) * 147


def test_classes_that_split_nothing_build_no_matrix(monkeypatch):
    # The first rotation class separates the 147 degree-2 characters; the
    # trivial and sign characters agree on every rotation class, so only
    # the reflection class, sorted last, is needed to split them.
    built = []
    matrix = _ClassMatrixBuilder.matrix
    monkeypatch.setattr(
        _ClassMatrixBuilder, "matrix", lambda self, i: built.append(i) or matrix(self, i)
    )
    cs = conjugacy_classes(group_of("dihedral:295"))
    assert dixon_degrees(cs).degrees == (1, 1) + (2,) * 147
    assert len(built) == 2
    assert cs.sizes[built[-1]] == 295


@pytest.mark.parametrize(
    "spec", ["sym:5", "psl2:7", "extraspecial:5", "agl1:27", "frob:43:1:42", "dihedral:200"]
)
def test_skipping_classes_keeps_the_final_spaces(spec):
    assert_final_lines_match_the_kernel_reference(conjugacy_classes(group_of(spec)))


def assert_final_lines_match_the_kernel_reference(cs):
    ell = choose_modulus(cs.order, cs.exponent(), min_value=len(cs.reps))
    spaces = dixon._common_eigenspaces(cs, ell)
    expected = every_class_eigenspaces(cs)
    assert [p for _, p, _ in spaces] == [p for _, p in expected]
    for (B, _, _), (E, _) in zip(spaces, expected):
        assert np.array_equal(B, E)


def test_final_lines_match_the_kernel_reference_over_the_catalog():
    groups = [build(recipe).group for recipe in iter_catalog(150)]
    nonabelian = [G for G in groups if not G.is_abelian()]
    assert len(nonabelian) > 100
    for G in nonabelian:
        assert_final_lines_match_the_kernel_reference(conjugacy_classes(G))


def classes_that_split_open_blocks(cs, ell) -> list[int]:
    """Reference class loop: in the solver's class order, class i is built
    when some open block has a nonzero B[1:, i], the blocks split as the
    solver splits them, and the loop ends when no block is open."""
    k = len(cs.reps)
    builder = _ClassMatrixBuilder(cs)
    eye = np.eye(k, dtype=np.int64)
    spaces = [(eye, list(range(k)), eye[0])]
    built = []
    for i in sorted(range(1, k), key=lambda i: (cs.sizes[i], i)):
        open_blocks = [B for B, _, _ in spaces if B.shape[0] > 1]
        if not open_blocks:
            break
        if not any(B[1:, i].any() for B in open_blocks):
            continue
        built.append(i)
        At = builder.matrix(i).T % ell
        next_spaces = []
        for B, pivots, z in spaces:
            if B[1:, i].any():
                next_spaces.extend(_split(B, pivots, z, (B @ At % ell)[:, pivots], ell))
            else:
                next_spaces.append((B, pivots, z))
        spaces = next_spaces
    return built


# the groups of the benchmark's solver-wide workload
SOLVER_WIDE = ["dihedral:295", "dihedral:250", "dihedral:200", "agl1:27", "frob:43:1:42", "extraspecial:5"]


def test_the_splitting_loop_builds_the_classes_the_open_blocks_call_for(monkeypatch):
    """The class matrices _common_eigenspaces builds, for every solve over
    the nonabelian groups of iter_catalog(150) (each component of a product
    solved on its own) and the solver-wide groups, are those the reference
    loop builds, in its order."""
    solves = []
    common, matrix = dixon._common_eigenspaces, _ClassMatrixBuilder.matrix

    def recording_common(cs, ell):
        solves.append((cs, ell, []))
        return common(cs, ell)

    def recording_matrix(self, i):
        solves[-1][2].append(i)
        return matrix(self, i)

    monkeypatch.setattr(dixon, "_common_eigenspaces", recording_common)
    monkeypatch.setattr(_ClassMatrixBuilder, "matrix", recording_matrix)
    for recipe in iter_catalog(150):
        G = build(recipe).group
        if not G.is_abelian():
            degree_spectrum(G)
    catalog_solves = len(solves)
    for spec in SOLVER_WIDE:
        degree_spectrum(group_of(spec))
    monkeypatch.undo()
    assert catalog_solves > 100 and len(solves) == catalog_solves + len(SOLVER_WIDE)
    for cs, ell, built in solves:
        assert built == classes_that_split_open_blocks(cs, ell)
    assert sum(len(built) for _, _, built in solves[:catalog_solves]) == 412


def test_open_block_must_pivot_on_the_identity_class(monkeypatch):
    # dropping the leading row of the 25-dimensional block of 5^{1+2}
    # leaves a block whose first pivot is not column 0
    split = dixon._split
    monkeypatch.setattr(
        dixon,
        "_split",
        lambda *args: [(B[1:], p[1:], z[1:]) if len(p) > 1 else (B, p, z) for B, p, z in split(*args)],
    )
    with pytest.raises(InvariantError, match="identity class"):
        dixon_degrees(conjugacy_classes(group_of("extraspecial:5")))


def test_class_must_be_the_scalar_its_column_predicts(monkeypatch):
    # Class 2 of S_3 x S_3 is central, so it keeps every space invariant,
    # but it is not scalar on a space where column 1 predicts a scalar.
    matrix = _ClassMatrixBuilder.matrix
    monkeypatch.setattr(
        _ClassMatrixBuilder, "matrix", lambda self, i: matrix(self, 2 if i == 1 else i)
    )
    with pytest.raises(InvariantError, match="scalar its column predicts"):
        dixon_degrees(conjugacy_classes(group_of("sym:3xsym:3")))


def test_degree_lift_must_find_a_divisor_of_the_order():
    # with |G| doubled, |G|/s mod l is twice each true square chi(1)^2, which
    # no divisor of 48 up to 6 squares to mod 37
    cs = conjugacy_classes(group_of("sym:4"))
    with pytest.raises(InvariantError, match="no divisor of 48 lifts a degree mod 37"):
        dixon_degrees(replace(cs, order=2 * cs.order))


def test_distinct_roots_finds_each_root_of_f_l_once():
    ell = 13

    def poly(*roots):
        c = np.array([1], dtype=np.int64)
        for r in roots:
            c = np.convolve(c, [-r, 1]) % ell
        return c

    assert _distinct_roots(poly(3, 3, 3, 5, 5, 12), ell) == [3, 5, 12]
    assert _distinct_roots(poly(0, 0, 7), ell) == [0, 7]
    assert _distinct_roots(np.array([4], dtype=np.int64), ell) == []
    # x^2 + 2 has no root mod 13 (-2 is not a square), so only 1 and 4 remain
    quadratic = np.array([2, 0, 1], dtype=np.int64)
    assert _distinct_roots(np.convolve(quadratic, poly(1, 4, 4)) % ell, ell) == [1, 4]


def test_scalar_block_is_kept_unsplit(monkeypatch):
    """The caller keeps a block on which a class is a scalar (B[1:, i] zero)
    whole, so _split only ever sees a class that is not a scalar there."""
    split = dixon._split

    def non_scalar_split(B, pivots, z, R, ell):
        assert not np.array_equal(R, R[0, 0] * np.eye(len(R), dtype=np.int64))
        return split(B, pivots, z, R, ell)

    monkeypatch.setattr(dixon, "_split", non_scalar_split)
    for G, expected in [
        (direct_product([sym(3), sym(3)]), (1, 1, 1, 1, 2, 2, 2, 2, 4)),
        (dihedral(295), (1, 1) + (2,) * 147),
    ]:
        assert dixon_degrees(conjugacy_classes(G)).degrees == expected


def test_a_block_that_is_not_invariant_is_refused(monkeypatch):
    split = dixon._split

    def perturbed_split(B, pivots, z, R, ell):
        spaces = split(B, pivots, z, R, ell)
        for C, q, _ in spaces:
            if C.shape[0] > 1:
                free = next(j for j in range(C.shape[1]) if j not in q)
                C[-1, free] = (C[-1, free] + 1) % ell
                break
        return spaces

    monkeypatch.setattr(dixon, "_split", perturbed_split)
    with pytest.raises(InvariantError, match="space was not invariant"):
        dixon_degrees(conjugacy_classes(direct_product([sym(3), sym(3)])))


def test_projected_rows_are_eigenrows():
    for spec in ["psl2:7", "sym:5", "frob:7:1:3"]:
        R, ell = first_class_action(spec)
        z = unit_row(R.shape[0])
        K, f, _ = _krylov(z, R, ell)
        roots = _distinct_roots(f, ell)
        # e_0 meets every eigenvalue, so its minimal polynomial has them all
        assert roots == _distinct_roots(charpoly(R, ell), ell)
        Z = _projectors(f, np.array(roots, dtype=np.int64), ell) @ K[:-1] % ell
        assert Z.shape == (len(roots), R.shape[0])
        for u, lam in zip(Z, roots):
            assert u.any()
            assert np.array_equal(u @ R % ell, lam * u % ell)
        assert np.array_equal(Z.sum(axis=0) % ell, z)


def test_split_rejects_non_diagonalisable_blocks():
    ell = 7
    jordan = np.array([[2, 1], [0, 2]], dtype=np.int64)
    with pytest.raises(InvariantError, match="no distinct roots"):
        _split(*whole_space(2), jordan, ell)
    # two eigenvalues, but a Jordan block for 1: e_0 has minimal polynomial (x - 1)^2
    R = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 2]], dtype=np.int64)
    with pytest.raises(InvariantError, match="no distinct roots"):
        _split(*whole_space(3), R, ell)


def test_split_rejects_an_identity_component_that_misses_an_eigenline():
    ell = 7
    # e_0 spans the eigenvalue-2 line and misses the other two lines: the
    # unit rows outside its Krylov span are not killed by x - 2
    R = np.diag([2, 3, 3]).astype(np.int64)
    with pytest.raises(InvariantError, match="misses part of the spectrum"):
        _split(*whole_space(3), R, ell)
    # it also catches a Jordan block that e_0 does not see
    R = np.array([[2, 0, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64)
    with pytest.raises(InvariantError, match="misses part of the spectrum"):
        _split(*whole_space(3), R, ell)
    # a z that misses a line inside an eigenspace still meets its eigenvalue,
    # and the unit rows fill the eigenspace out
    R = np.diag([2, 3, 2]).astype(np.int64)
    z = np.array([1, 1, 0], dtype=np.int64)
    spaces = _split(np.eye(3, dtype=np.int64), [0, 1, 2], z, R, ell)
    assert [p for _, p, _ in spaces] == [[0, 2], [1]]


def invertible(rows: list[list[int]], ell: int) -> np.ndarray | None:
    """The inverse mod l of the square matrix with the given rows, or None
    when it is singular."""
    n = len(rows)
    P = np.array(rows, dtype=np.int64) % ell
    E, pivots = dixon._rref(np.hstack([P, np.eye(n, dtype=np.int64)]), ell)
    return E[:, n:] if pivots[:n] == list(range(n)) and len(pivots) >= n else None


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_split_of_a_diagonalised_matrix_matches_the_kernel_reference(data):
    ell = 13
    n = data.draw(st.integers(1, 6))
    # few distinct eigenvalues, so that most draws repeat some
    eigenvalues = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    P = data.draw(
        st.lists(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    P_inv = invertible(P, ell)
    assume(P_inv is not None)
    P = np.array(P, dtype=np.int64)
    # the rows of P are eigenrows of R = P^-1 D P under c -> c R
    R = P_inv @ np.diag(eigenvalues).astype(np.int64) @ P % ell
    coefficients = data.draw(st.lists(st.integers(1, ell - 1), min_size=n, max_size=n))
    z = np.array(coefficients, dtype=np.int64) @ P % ell
    B, pivots = np.eye(n, dtype=np.int64), list(range(n))
    spaces = _split(B, pivots, z, R, ell)
    expected = kernel_split(B, pivots, R, ell)
    assert [p for _, p, _ in spaces] == [p for _, p in expected]
    for (S, _, _), (E, _) in zip(spaces, expected):
        assert np.array_equal(S, E)
    assert np.array_equal(identity_components(spaces, ell), z)


def test_corrupted_identity_component_trips_the_degree_lift(monkeypatch):
    common = dixon._common_eigenspaces

    def corrupted(cs, ell):
        spaces = common(cs, ell)
        B, pivots, z = spaces[-1]
        spaces[-1] = (B, pivots, 2 * z % ell)
        return spaces

    monkeypatch.setattr(dixon, "_common_eigenspaces", corrupted)
    with pytest.raises(InvariantError, match="identity component disagrees with the degree lift"):
        dixon_degrees(conjugacy_classes(group_of("sym:4")))


def test_invariants_hold_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "\n".join(
        [
            "from chardeg.constructions import build, parse_group_spec, spectrum_of",
            "from chardeg.dixon import DegreeSpectrum",
            "from chardeg.numbers import InvariantError",
            "assert not __debug__",
            "try:",
            "    DegreeSpectrum(((1, 1), (3, 1), (2, 1)), 14)",
            "except InvariantError:",
            "    pass",
            "else:",
            "    raise SystemExit('unsorted spectrum accepted')",
            "print(spectrum_of(build(parse_group_spec('sym:4'))).degrees)",
            # its first split has an eigenvalue of multiplicity 25
            "print(spectrum_of(build(parse_group_spec('extraspecial:5'))).degrees)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["(1, 1, 2, 3, 3)", str((1,) * 25 + (5,) * 4)]
