"""Tests for permutation arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from chardeg.perms import (
    check_bijection,
    cycles,
    from_cycles,
    identity_perm,
    inverse,
    is_identity,
    mult,
    perm_order,
    perm_power,
)


def perms(n):
    return st.permutations(range(n)).map(tuple)


def test_identity():
    e = identity_perm(5)
    assert e == (0, 1, 2, 3, 4)
    assert is_identity(e)
    assert not is_identity((1, 0, 2))
    assert is_identity([0, 1, 2]) and not is_identity([1, 0, 2])


def test_mult_applies_left_then_right():
    p = from_cycles([(0, 1)], 3)
    q = from_cycles([(1, 2)], 3)
    # 0 -p-> 1 -q-> 2
    assert mult(p, q)[0] == 2
    assert mult(q, p)[0] == 1


def test_cycles_round_trip():
    p = from_cycles([(0, 1, 2), (3, 4)], 6)
    assert p == (1, 2, 0, 4, 3, 5)
    assert cycles(p) == [(0, 1, 2), (3, 4), (5,)]
    assert perm_order(p) == 6


def test_perm_power():
    p = from_cycles([(0, 1, 2, 3, 4)], 5)
    assert perm_power(p, 5) == identity_perm(5)
    assert perm_power(p, -1) == inverse(p)
    assert perm_power(p, 7) == mult(p, p)
    assert perm_power(p, 0) == identity_perm(5)


def test_check_bijection():
    check_bijection((2, 0, 1))
    with pytest.raises(ValueError):
        check_bijection((0, 0, 1))


def same_degree_pairs():
    # degrees 0 and 1 are where itemgetter(*p) would take no index or one
    degrees = st.sampled_from([0, 1, 2, 7, 40])
    return degrees.flatmap(lambda n: st.tuples(perms(n), perms(n)))


@settings(max_examples=200, derandomize=True)
@given(same_degree_pairs())
def test_kernel_matches_written_out_definitions(pair):
    p, q = pair
    n = len(p)
    p_inv = tuple(p.index(i) for i in range(n))
    results = [
        (mult(p, q), tuple(q[i] for i in p)),
        (inverse(p), p_inv),
        (identity_perm(n), tuple(range(n))),
    ]
    for got, want in results:
        assert type(got) is tuple
        assert got == want
    assert is_identity(p) == all(p[i] == i for i in range(n))
    assert is_identity(list(p)) == is_identity(p)
    assert is_identity(mult(p, p_inv)) and is_identity(list(range(n)))


@settings(max_examples=200, derandomize=True)
@given(perms(6), perms(6), perms(6))
def test_group_axioms(p, q, r):
    e = identity_perm(6)
    assert mult(p, e) == p and mult(e, p) == p
    assert mult(p, inverse(p)) == e
    assert mult(mult(p, q), r) == mult(p, mult(q, r))


@settings(max_examples=200, derandomize=True)
@given(perms(7))
def test_order_annihilates(p):
    k = perm_order(p)
    assert k >= 1
    assert is_identity(perm_power(p, k))
    for d in range(1, k):
        if k % d == 0:
            assert not is_identity(perm_power(p, d))
