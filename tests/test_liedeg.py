"""Tests for Lie-type witness degrees and prime coverage.

Witness values for individual groups were computed by hand from the
product formulas and cross-checked against the printed character degrees
of the small groups involved before being pinned here.
"""

import pytest

from chardeg import liedeg
from chardeg.liedeg import (
    CoverageResult,
    IntPoly,
    LieFamilySpec,
    UnsupportedFamilyError,
    cyclotomic,
    default_matrix,
    group_order,
    phi,
    prime_coverage_check,
    validate,
    witness_degrees,
)
from chardeg.numbers import factorize, prime_divisors


def wset(family, q, n=None):
    return witness_degrees(LieFamilySpec(family, q, n))


def degrees_by_label(ws):
    return {w.label: w.degree for w in ws.all_witnesses}


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).eval(2) == 13


def test_cyclotomic_product_identity():
    # x^n - 1 is the product of the d-th cyclotomic polynomials over d | n
    for n in range(1, 121):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        expected = (-1,) + (0,) * (n - 1) + (1,)
        assert prod.coeffs == expected, n


def test_phi():
    assert phi(1, 5) == 4
    assert phi(2, 5) == 6
    assert phi(6, 4) == 13
    assert phi(12, 3) == 73


def test_group_orders():
    assert group_order(LieFamilySpec("psl", 4, 2)) == 60
    assert group_order(LieFamilySpec("psl", 5, 2)) == 60
    assert group_order(LieFamilySpec("psl", 7, 2)) == 168
    assert group_order(LieFamilySpec("psl", 2, 3)) == 168
    assert group_order(LieFamilySpec("psl", 3, 3)) == 5616
    assert group_order(LieFamilySpec("sp4", 4)) == 979200
    assert factorize(979200) == [2] * 8 + [3, 3, 5, 5, 17]
    assert group_order(LieFamilySpec("g2", 3)) == 4245696
    assert group_order(LieFamilySpec("psu", 2, 4)) == 25920
    assert group_order(LieFamilySpec("psp", 3, 2)) == 25920
    # ATLAS orders of the families not pinned above
    assert group_order(LieFamilySpec("omega_odd", 3, 3)) == 4_585_351_680
    assert group_order(LieFamilySpec("pomega_plus", 3, 4)) == 4_952_179_814_400
    assert group_order(LieFamilySpec("pomega_minus", 3, 4)) == 10_151_968_619_520
    assert group_order(LieFamilySpec("omega_plus", 2, 5)) == 23_499_295_948_800
    assert group_order(LieFamilySpec("f4", 2)) == 3_311_126_603_366_400
    assert group_order(LieFamilySpec("e6", 2)) == 214_841_575_522_005_575_270_400
    assert (
        group_order(LieFamilySpec("e7", 2))
        == 7_997_476_042_075_799_759_100_487_262_680_802_918_400
    )


def test_psl2_witnesses():
    ws = wset("psl", 7, 2)
    labels = degrees_by_label(ws)
    assert labels["principal"] == 8
    assert labels["discrete"] == 6
    assert labels["steinberg"] == 7
    assert ws.order == 168

    ws13 = wset("psl", 13, 2)
    labels13 = degrees_by_label(ws13)
    assert labels13["principal"] == 14 and labels13["discrete"] == 12
    assert labels13["steinberg"] == 13


def test_psl3_witnesses():
    ws = wset("psl", 3, 3)  # PSL_3(3)
    labels = degrees_by_label(ws)
    assert labels["theta_1"] == 16
    assert labels["theta_2"] == 13
    assert labels["steinberg"] == 27

    ws4 = wset("psl", 4, 3)  # PSL_3(4), even q
    labels4 = degrees_by_label(ws4)
    assert labels4["regular_torus"] == 63
    assert labels4["unipotent_21"] == 20
    assert labels4["steinberg"] == 64


def test_psl_higher_rank_witnesses():
    ws = wset("psl", 2, 5)  # PSL_5(2)
    labels = degrees_by_label(ws)
    assert labels["chi_semisimple"] == 651
    assert labels["chi_hook_1"] == 30
    assert labels["chi_hook_2"] == 124
    assert labels["steinberg"] == 2**10

    ws42 = wset("psl", 2, 4)  # PSL_4(2), isomorphic to the alternating group on 8 points
    labels42 = degrees_by_label(ws42)
    assert labels42["chi_semisimple"] == 21
    assert labels42["chi_hook_1"] == 14
    assert labels42["chi_hook_2"] == 20
    assert labels42["steinberg"] == 64


def test_psu_witnesses():
    assert degrees_by_label(wset("psu", 2, 4)) == {
        "chi_semisimple": 81,
        "chi_hook_1": 6,
        "chi_hook_2": 20,
        "steinberg": 64,
    }
    labels5 = degrees_by_label(wset("psu", 2, 5))
    assert labels5["chi_semisimple"] == 891
    assert labels5["chi_hook_1"] == 10
    assert labels5["chi_hook_2"] == 44
    labels6 = degrees_by_label(wset("psu", 2, 6))
    assert labels6["chi_semisimple"] == 40095
    assert labels6["chi_hook_1"] == 22
    assert labels6["chi_hook_2"] == 252
    labels43 = degrees_by_label(wset("psu", 3, 4))
    assert labels43["theta_1"] == 640
    assert labels43["alpha"] == 90
    assert labels43["beta"] == 189

    labels33 = degrees_by_label(wset("psu", 3, 3))
    assert labels33["steinberg"] == 27


def test_psp_witnesses():
    labels = degrees_by_label(wset("psp", 3, 2))  # PSp_4(3)
    assert labels["theta"] == 64
    assert labels["chi"] == 15
    assert labels["steinberg"] == 81
    labels5 = degrees_by_label(wset("psp", 5, 2))  # PSp_4(5)
    assert labels5["theta"] == 576
    assert labels5["chi"] == 65
    assert labels5["steinberg"] == 625


def test_sp4_even_witnesses():
    labels = degrees_by_label(wset("sp4", 4))
    assert labels["steinberg"] == 256
    assert labels["chi_b"] == 4 * 25 // 2  # q(q+1)^2/2
    assert labels["chi_a"] == 4 * 9 // 2  # q(q-1)^2/2
    assert labels["chi_c"] == 4 * 17 // 2  # q(q^2+1)/2


def test_g2_witnesses():
    labels = degrees_by_label(wset("g2", 3))
    assert labels["steinberg"] == 3**6
    assert labels["phi_3_6"] == 3 * 13 * 7 // 3  # q Phi_3 Phi_6 / 3
    assert labels["phi_1_2"] == 3 * 4 * 16 // 3  # q Phi_1^2 Phi_2^2 / 3
    ws = wset("g2", 3)
    assert "q-factor-included-in-phi_1_2-witness" in ws.flags


def test_omega_plus_even_witnesses():
    labels = degrees_by_label(wset("omega_plus", 4, 4))
    assert labels["unipotent"] == 4368  # (q^8 - q^2) / (q^2 - 1) at q = 4
    labels52 = degrees_by_label(wset("omega_plus", 2, 5))
    assert labels52["unipotent"] == 340


def test_e6_e7_cuspidal_pair_flag():
    ws = wset("e6", 2)
    assert "cuspidal-pair-shares-one-degree" in ws.flags
    pair = [w.degree for w in ws.witnesses if w.label.startswith("cuspidal_theta")]
    assert len(pair) == 2 and pair[0] == pair[1]

    ws7 = wset("e7", 2)
    assert "cuspidal-pair-shares-one-degree" in ws7.flags


def test_witness_degrees_divide_order():
    cases = [
        ("psl", 7, 2), ("psl", 3, 3), ("psl", 2, 5), ("psu", 2, 4),
        ("psp", 3, 2), ("pomega_plus", 3, 4), ("pomega_minus", 3, 4),
        ("omega_plus", 4, 4), ("omega_plus", 2, 5), ("sp4", 4, None), ("g2", 3, None),
        ("f4", 2, None), ("e6", 2, None), ("e7", 2, None),
    ]
    for family, q, n in cases:
        ws = wset(family, q, n)
        for w in ws.all_witnesses:
            assert ws.order % w.degree == 0, (family, q, n, w)
            assert w.degree > 1


def test_atlas_and_parity_rejections():
    with pytest.raises(UnsupportedFamilyError):
        wset("psl", 5, 2)  # isomorphic to the alternating group on 5 points
    with pytest.raises(UnsupportedFamilyError):
        wset("psl", 9, 2)
    with pytest.raises(UnsupportedFamilyError):
        wset("psl", 4, 2)  # even-q rank-1 case is out of scope
    with pytest.raises(UnsupportedFamilyError):
        wset("psl", 8, 3)
    with pytest.raises(UnsupportedFamilyError):
        wset("psl", 2, 3)  # defer to psl:2:7
    with pytest.raises(UnsupportedFamilyError):
        wset("psu", 2, 3)  # solvable
    with pytest.raises(UnsupportedFamilyError):
        wset("sp4", 2)
    with pytest.raises(UnsupportedFamilyError):
        wset("omega_plus", 2, 4)
    with pytest.raises(UnsupportedFamilyError):
        wset("psp", 2, 3)  # even q needs sp4 or omega_plus
    with pytest.raises(UnsupportedFamilyError):
        wset("g2", 2)
    with pytest.raises(UnsupportedFamilyError):
        wset("f4", 3)


def test_validate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        validate(LieFamilySpec("psl", 6, 3))  # q not a prime power
    with pytest.raises(ValueError):
        validate(LieFamilySpec("psl", 4))  # missing rank
    with pytest.raises(ValueError):
        validate(LieFamilySpec("g2", 3, 2))  # unexpected rank
    with pytest.raises(ValueError):
        validate(LieFamilySpec("psu", 4, 2))  # psu needs n >= 3
    with pytest.raises(UnsupportedFamilyError):
        validate(LieFamilySpec("sl", 4, 2))  # unknown family
    with pytest.raises(ValueError):
        validate(LieFamilySpec("psl", 4, 99))  # rank cap


def test_default_matrix_coverage():
    matrix = default_matrix()
    assert len(matrix) == 96
    assert len({s.tag for s in matrix}) == 96
    for spec in matrix:
        cov = prime_coverage_check(spec)
        assert isinstance(cov, CoverageResult)
        assert cov.complete, spec.tag
        assert cov.missing == ()
        assert set(cov.primes_of_order) == set(prime_divisors(cov.order))
        assert set(cov.primes_covered) == set(cov.primes_of_order)
        # the Steinberg degree is the full r-part of |G|, r the characteristic
        r = prime_divisors(spec.q)[0]
        r_part, rest = 1, cov.order
        while rest % r == 0:
            r_part, rest = r_part * r, rest // r
        steinberg = [w.degree for w in cov.witnesses if w.label == "steinberg"]
        assert steinberg == [r_part], spec.tag


def test_coverage_validates_each_spec_once(monkeypatch):
    calls = []
    original = liedeg.validate
    monkeypatch.setattr(liedeg, "validate", lambda spec: calls.append(spec) or original(spec))
    prime_coverage_check(LieFamilySpec("e7", 2))
    assert calls == [LieFamilySpec("e7", 2)]


def test_coverage_detail_psl27():
    cov = prime_coverage_check(LieFamilySpec("psl", 7, 2))
    assert cov.order == 168
    assert cov.primes_of_order == (2, 3, 7)
    assert cov.complete
    degrees = {w.degree for w in cov.witnesses}
    assert degrees == {6, 7, 8}
