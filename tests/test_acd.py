"""Tests for the prime-restricted average character degree and thresholds."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chardeg.acd import (
    a_p,
    acd_p,
    b_p,
    ell,
    format_rational,
    irr_p_degrees,
    make_acd_report,
)
from chardeg.dixon import DegreeSpectrum, degree_spectrum, expand_pairs
from chardeg.numbers import is_prime, is_prime_power
from chardeg.subgroups import is_solvable, p_residual

from support import group_of

PRIMES_TO_100 = [p for p in range(2, 100) if is_prime(p)]


def spectrum(spec):
    return degree_spectrum(group_of(spec))


def test_irr_p_degrees():
    a5 = spectrum("alt:5")  # degrees (1, 3, 3, 4, 5)
    assert irr_p_degrees(a5, 2) == ((1, 1), (4, 1))
    assert irr_p_degrees(a5, 3) == ((1, 1), (3, 2))
    assert irr_p_degrees(a5, 5) == ((1, 1), (5, 1))
    assert irr_p_degrees(a5, 7) == ((1, 1),)


def test_n_d():
    s4 = spectrum("sym:4")
    assert s4.count(1) == 2 and s4.count(3) == 2 and s4.count(2) == 1
    assert s4.count(4) == 0


def test_acd_examples():
    assert acd_p(spectrum("alt:5"), 2) == Fraction(5, 2)
    assert acd_p(spectrum("alt:5"), 3) == Fraction(7, 3)
    assert acd_p(spectrum("psl2:7"), 7) == Fraction(4)
    assert acd_p(spectrum("agl1:11"), 5) == Fraction(20, 11)
    assert acd_p(spectrum("agl1:11"), 2) == Fraction(20, 11)
    assert acd_p(spectrum("agl1:11"), 11) == Fraction(1)
    assert acd_p(spectrum("extraspecial:3"), 3) == Fraction(15, 11)
    assert acd_p(spectrum("sym:3"), 3) == Fraction(1)
    assert acd_p(spectrum("sym:3"), 2) == Fraction(4, 3)


def test_acd_is_one_iff_no_relevant_nonlinear_degree():
    sp = spectrum("frob:7:1:3")  # (1, 1, 1, 3, 3)
    assert acd_p(sp, 2) == 1
    assert acd_p(sp, 3) == Fraction(9, 5)


def test_ell_values():
    assert ell(2) == 1  # 3 is prime
    assert ell(3) == 1  # 4 = 2^2
    assert ell(5) == 2  # 6 is not a prime power, 11 is prime
    assert ell(7) == 1  # 8 = 2^3
    assert ell(11) == 2  # 12 fails, 23 is prime
    assert ell(13) == 2  # 14 fails, 27 = 3^3
    assert ell(17) == 6  # 18, 35, 52, 69, 86 all fail, 103 is prime
    assert ell(19) == 10  # first success is 191
    assert ell(23) == 2


def test_ell_defining_property():
    for p in PRIMES_TO_100:
        m = ell(p)
        assert is_prime_power(m * p + 1)
        for smaller in range(1, m):
            assert not is_prime_power(smaller * p + 1)


def test_b_values():
    assert b_p(2) == Fraction(4, 3)
    assert b_p(3) == Fraction(3, 2)
    assert b_p(5) == Fraction(20, 11)
    assert b_p(7) == Fraction(7, 4)
    assert b_p(11) == Fraction(44, 23)
    assert b_p(17) == Fraction(204, 103)


def test_a_values():
    assert a_p(2) == Fraction(5, 2)
    assert a_p(3) == Fraction(7, 3)
    assert a_p(5) == Fraction(3)
    assert a_p(7) == Fraction(4)
    assert a_p(11) == Fraction(6)


def test_non_prime_p_is_rejected():
    sp = spectrum("sym:4")
    for p in [0, 1, 4, -3]:
        with pytest.raises(ValueError, match="not a prime"):
            acd_p(sp, p)
        with pytest.raises(ValueError, match="not a prime"):
            make_acd_report(sp, p)
        for fn in (ell, b_p, a_p):
            with pytest.raises(ValueError, match="not a prime"):
                fn(p)


def test_b_p_strictly_between_one_and_two():
    for p in PRIMES_TO_100:
        b = b_p(p)
        assert 1 < b < 2


def test_ell_prime_power_for_many_primes():
    count = 0
    p = 2
    while p <= 10**4:
        if is_prime(p):
            assert is_prime_power(ell(p) * p + 1)
            count += 1
        p += 1
    assert count == 1229


def test_acd_report():
    rep = make_acd_report(spectrum("alt:5"), 2)
    assert rep.p == 2
    assert rep.degrees == (1, 4)
    assert rep.acd == Fraction(5, 2)
    assert not rep.below_b
    assert not rep.below_a  # equality at the threshold is not below
    d = rep.to_dict()
    assert d == {
        "p": 2,
        "degrees": [1, 4],
        "acd": "5/2",
        "b_p": "4/3",
        "a_p": "5/2",
        "below_b": False,
        "below_a": False,
    }


def test_format_rational():
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-1, 4)) == "-1/4"


def test_acd_one_when_p_does_not_divide_order():
    for spec, p in [("sym:3", 5), ("alt:5", 7), ("psl2:7", 5), ("dihedral:9", 7)]:
        assert acd_p(spectrum(spec), p) == 1


@settings(max_examples=120, derandomize=True)
@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]), min_size=1, max_size=12),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_acd_bounds_property(extra_degrees, p):
    degrees = [1] + extra_degrees
    sp = DegreeSpectrum(tuple(sorted(Counter(degrees).items())), sum(d * d for d in degrees))
    relevant = expand_pairs(irr_p_degrees(sp, p))
    acd = acd_p(sp, p)
    assert 1 <= acd <= max(relevant)
    nonlinear = [d for d in relevant if d > 1]
    for d in nonlinear:
        assert d % p == 0 and d >= p
    if not nonlinear:
        assert acd == 1


@settings(max_examples=150, derandomize=True)
@given(
    st.integers(min_value=1, max_value=5000),
    st.dictionaries(
        st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=200), max_size=8
    ),
    st.sampled_from(PRIMES_TO_100),
)
def test_acd_p_on_pairs_is_the_mean_of_the_expanded_irr_p_degrees(linear, nonlinear, p):
    pairs = ((1, linear), *sorted(nonlinear.items()))
    sp = DegreeSpectrum(pairs, sum(m * d * d for d, m in pairs))
    expanded = expand_pairs(irr_p_degrees(sp, p))
    assert expanded == tuple(d for d in sp.degrees if d == 1 or d % p == 0)
    assert acd_p(sp, p) == Fraction(sum(expanded), len(expanded))


@pytest.mark.parametrize("p", [p for p in range(17, 54) if is_prime(p)])
def test_psl2_p_attains_a_p_with_a_nonsolvable_p_residual(p):
    """The paper's solvability bound is sharp: acd_p(PSL(2, p)) = (p + 1)/2
    = a_p, and O^{p'}(PSL(2, p)) is the whole simple group."""
    G = group_of(f"psl2:{p}")
    assert acd_p(degree_spectrum(G), p) == Fraction(p + 1, 2) == a_p(p)
    residual = p_residual(G, p).group
    assert residual.order == G.order and not is_solvable(residual)
