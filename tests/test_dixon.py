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
from hypothesis import given, settings, strategies as st

from chardeg.dixon import (
    CLASS_CAP,
    ClassCountError,
    DegreeSpectrum,
    _ClassMatrixBuilder,
    _distinct_roots,
    _eigenrows,
    _split,
    choose_modulus,
    degree_spectrum,
    dixon_degrees,
)
from chardeg import dixon
from chardeg.constructions import spectrum_of
from chardeg.groups import PermGroup, conjugacy_classes
from chardeg.numbers import InvariantError, is_prime

from oracle import oracle_class_matrices, oracle_degrees
from support import built_of, drop_orbit_point, group_of, two_cycle_product


def spectrum(spec: str) -> tuple[int, ...]:
    return degree_spectrum(group_of(spec)).degrees


def test_degree_spectrum_invariants_enforced():
    with pytest.raises(InvariantError):
        DegreeSpectrum((1, 2), 6)
    with pytest.raises(InvariantError):
        DegreeSpectrum((3, 1), 10)
    sp = DegreeSpectrum((1, 1, 2), 6)
    assert sp.count(1) == 2 and sp.count(2) == 1 and sp.count(3) == 0


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
    # classes correspond through their least members, the library's reps
    ours = [cs.reps.index(cls[0]) for cls in classes]
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


def kernel_split(R: np.ndarray, ell: int) -> list[tuple[np.ndarray, list[int]]]:
    """Reference split of the whole space: one kernel per eigenvalue."""
    dim = R.shape[0]
    roots = dixon._distinct_roots(dixon._charpoly(R, ell), ell)
    return [
        dixon._rref(dixon._nullspace((R - lam * np.eye(dim, dtype=np.int64)).T % ell, ell), ell)
        for lam in roots
    ]


@pytest.mark.parametrize("spec", ["sym:5", "psl2:7", "dihedral:12", "extraspecial:3", "agl1:9"])
def test_split_matches_kernel_reference(spec):
    R, ell = first_class_action(spec)
    k = R.shape[0]
    spaces = _split(np.eye(k, dtype=np.int64), list(range(k)), R, ell)
    expected = kernel_split(R, ell)
    assert [p for _, p in spaces] == [p for _, p in expected]
    for (B, _), (E, _) in zip(spaces, expected):
        assert np.array_equal(B, E)


def test_repeated_root_falls_back_to_the_kernel(monkeypatch):
    # The central class of 5^{1+2} has eigenvalue 1 on the 25 linear
    # characters beside four simple roots on the degree-5 characters.  Those
    # characters sum to zero over the central classes, so the all-ones row
    # has no component in their eigenspaces: all five take the kernel path.
    R, ell = first_class_action("extraspecial:5")
    kernels = []
    nullspace = dixon._nullspace
    monkeypatch.setattr(dixon, "_nullspace", lambda M, ell: kernels.append(M) or nullspace(M, ell))
    spaces = _split(np.eye(29, dtype=np.int64), list(range(29)), R, ell)
    assert sorted(B.shape[0] for B, _ in spaces) == [1, 1, 1, 1, 25]
    assert len(kernels) == 5
    assert spectrum("extraspecial:5") == (1,) * 25 + (5,) * 4


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


def every_class_eigenspaces(cs) -> list[tuple[np.ndarray, list[int]]]:
    """Reference splitting loop: build every class matrix, in the solver's
    class order, while any space is open, and split every open space."""
    k = len(cs.reps)
    ell = choose_modulus(cs.order, cs.exponent(), min_value=k)
    builder = _ClassMatrixBuilder(cs)
    spaces = [dixon._rref(np.eye(k, dtype=np.int64), ell)]
    for i in sorted(range(1, k), key=lambda j: (cs.sizes[j], j)):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        At = builder.matrix(i).T % ell
        next_spaces = []
        for B, pivots in spaces:
            if B.shape[0] == 1:
                next_spaces.append((B, pivots))
            else:
                next_spaces.extend(_split(B, pivots, (B @ At % ell)[:, pivots], ell))
        spaces = next_spaces
    return spaces


@pytest.mark.parametrize(
    "spec", ["sym:5", "psl2:7", "extraspecial:5", "agl1:27", "frob:43:1:42", "dihedral:200"]
)
def test_skipping_classes_keeps_the_final_spaces(spec):
    cs = conjugacy_classes(group_of(spec))
    ell = choose_modulus(cs.order, cs.exponent(), min_value=len(cs.reps))
    spaces = dixon._common_eigenspaces(cs, ell)
    expected = every_class_eigenspaces(cs)
    assert [p for _, p in spaces] == [p for _, p in expected]
    for (B, _), (E, _) in zip(spaces, expected):
        assert np.array_equal(B, E)


def test_open_block_must_pivot_on_the_identity_class(monkeypatch):
    # dropping the leading row of the 25-dimensional block of 5^{1+2}
    # leaves a block whose first pivot is not column 0
    split = dixon._split
    monkeypatch.setattr(
        dixon,
        "_split",
        lambda *args: [(B[1:], p[1:]) if len(p) > 1 else (B, p) for B, p in split(*args)],
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
    def no_charpoly(R, ell):
        raise AssertionError("a scalar block needs no characteristic polynomial")

    monkeypatch.setattr(dixon, "_charpoly", no_charpoly)
    B = np.array([[1, 0, 4], [0, 1, 2]], dtype=np.int64)
    pivots = [0, 1]
    spaces = _split(B, pivots, 5 * np.eye(2, dtype=np.int64), 7)
    assert len(spaces) == 1 and spaces[0][0] is B and spaces[0][1] is pivots


def test_projected_rows_are_eigenrows():
    for spec in ["psl2:7", "sym:5", "frob:7:1:3"]:
        R, ell = first_class_action(spec)
        roots = dixon._distinct_roots(dixon._charpoly(R, ell), ell)
        U = _eigenrows(R, roots, ell)
        assert U.shape == (len(roots), R.shape[0])
        for u, lam in zip(U, roots):
            assert u.any()
            assert np.array_equal(u @ R % ell, lam * u % ell)


def test_split_rejects_non_diagonalisable_blocks():
    ell = 7
    jordan = np.array([[2, 1], [0, 2]], dtype=np.int64)
    with pytest.raises(InvariantError, match="single eigenvalue"):
        _split(np.eye(2, dtype=np.int64), [0, 1], jordan, ell)
    # two eigenvalues, but a Jordan block for 1: v (R - 2I) is no eigenrow
    R = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 2]], dtype=np.int64)
    with pytest.raises(InvariantError, match="eigenrow"):
        _split(np.eye(3, dtype=np.int64), [0, 1, 2], R, ell)


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
            "    DegreeSpectrum((3, 1), 5)",
            "except InvariantError:",
            "    pass",
            "else:",
            "    raise SystemExit('unsorted spectrum accepted')",
            "print(spectrum_of(build(parse_group_spec('sym:4'))).degrees)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(1, 1, 2, 3, 3)"
