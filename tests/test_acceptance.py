"""Acceptance gate: one test per shipping criterion, each with an explicit
runtime budget and exact (rational or integer) expected values.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.
"""

import time
from fractions import Fraction

import pytest

from chardeg.acd import a_p, acd_p, b_p, ell
from chardeg.dixon import degree_spectrum
from chardeg.fields import finite_field
from chardeg.groups import conjugacy_classes
from chardeg.liedeg import IntPoly, cyclotomic, default_matrix, prime_coverage_check
from chardeg.numbers import factorize, is_prime
from chardeg.subgroups import derived_subgroup, is_normal, is_solvable, p_residual, sylow
from chardeg.verify import VerifyConfig, run_catalog

from oracle import oracle_degrees
from support import group_of


class Budget:
    """Assert on exit that the block stayed within its runtime budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"


def test_criterion_1_threshold_constants():
    with Budget(1.0):
        assert ell(2) == 1
        assert ell(3) == 1
        assert ell(7) == 1
        assert ell(5) == 2
        assert ell(11) == 2
        assert ell(13) == 2
        assert ell(17) == 6
        assert b_p(2) == Fraction(4, 3)


def test_criterion_2_oracle_equivalence():
    specs = (
        [f"sym:{n}" for n in range(3, 7)]
        + [f"alt:{n}" for n in range(3, 7)]
        + [f"dihedral:{n}" for n in range(3, 21)]
        + [f"psl2:{q}" for q in (5, 7, 8, 9, 11, 13)]
        + ["extraspecial:3"]
    )
    with Budget(60.0):
        for spec in specs:
            G = group_of(spec)
            sp = degree_spectrum(G)
            cs = conjugacy_classes(G)
            assert sum(d * d for d in sp.degrees) == G.order, spec
            assert len(sp.degrees) == len(cs.reps), spec
            index = G.order // derived_subgroup(G).group.order
            assert sp.count(1) == index, spec
            assert sp.degrees == oracle_degrees(G.generators, G.degree), spec


def test_criterion_3_sharpness_witnesses():
    with Budget(120.0):
        s3 = degree_spectrum(group_of("sym:3"))
        assert acd_p(s3, 2) == Fraction(4, 3) == b_p(2)
        assert not is_normal(group_of("sym:3"), sylow(group_of("sym:3"), 2))

        agl = degree_spectrum(group_of("agl1:11"))
        assert acd_p(agl, 5) == Fraction(20, 11) == b_p(5)
        assert not is_normal(group_of("agl1:11"), sylow(group_of("agl1:11"), 5))

        a5 = degree_spectrum(group_of("alt:5"))
        assert acd_p(a5, 2) == Fraction(5, 2) == a_p(2)
        assert acd_p(a5, 3) == Fraction(7, 3) == a_p(3)
        G5 = group_of("alt:5")
        assert not is_solvable(p_residual(G5, 2).group)
        assert not is_solvable(p_residual(G5, 3).group)

        for p in (5, 7, 11, 13):
            G = group_of(f"psl2:{p}")
            sp = degree_spectrum(G)
            assert acd_p(sp, p) == Fraction(p + 1, 2) == a_p(p), p
            assert not is_solvable(p_residual(G, p).group), p


@pytest.fixture(scope="module")
def full_sweep():
    started = time.perf_counter()
    report = run_catalog(VerifyConfig(max_order=2000))
    return report, time.perf_counter() - started


def test_criterion_4_catalog_sweep_no_violations(full_sweep):
    report, elapsed = full_sweep
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s, budget is 600s"
    summary = report.summary
    assert summary["violations"] == 0
    assert summary["errors"] == 0
    assert summary["confirmed"] + summary["vacuous"] == len(report.checks)
    assert len(report.checks) > 100_000

    by_check = {c.check for c in report.checks}
    assert {"sylow-normal", "p-residual-solvable", "ito-michler",
            "quotient-monotone", "orbit-bound"} <= by_check

    # the sharp examples appear as exact-boundary rows inside the sweep
    boundary = {(c.group, c.check, c.p) for c in report.checks if c.boundary}
    assert ("sym:3", "sylow-normal", 2) in boundary
    assert ("agl1:11", "sylow-normal", 5) in boundary
    assert ("alt:5", "p-residual-solvable", 2) in boundary
    assert ("alt:5", "p-residual-solvable", 3) in boundary
    for p in (5, 7, 11, 13):
        assert (f"psl2:{p}", "p-residual-solvable", p) in boundary, p


def test_criterion_5_lie_prime_coverage():
    with Budget(120.0):
        matrix = default_matrix()
        assert len(matrix) == 96
        flagged_g2 = False
        for spec in matrix:
            cov = prime_coverage_check(spec)  # integrality asserted inside
            assert cov.missing == (), spec.tag
            if spec.family == "g2" and "q-factor-included-in-phi_1_2-witness" in cov.flags:
                flagged_g2 = True
        assert flagged_g2

        tags = {s.tag for s in matrix}
        assert "psl:6:2" in tags and "psl:7:2" in tags
        fixed6 = prime_coverage_check(next(s for s in matrix if s.tag == "psl:6:2"))
        non_steinberg6 = {w.degree for w in fixed6.witnesses if w.label != "steinberg"}
        assert non_steinberg6 == {62, 588, 6480}
        fixed7 = prime_coverage_check(next(s for s in matrix if s.tag == "psl:7:2"))
        non_steinberg7 = {w.degree for w in fixed7.witnesses if w.label != "steinberg"}
        assert non_steinberg7 == {126, 2540, 5208}


def test_criterion_6_property_suite():
    for n in range(1, 121):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,), n

    import random

    rng = random.Random(2)
    for q in (8, 9, 25, 27):
        F = finite_field(q)
        for _ in range(100):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, b) == F.add(b, a)
            if a:
                assert F.mul(a, F.inv(a)) == F.one

    for _ in range(300):
        n = rng.randrange(1, 10**9)
        fs = factorize(n)
        prod_n = 1
        for f in fs:
            assert is_prime(f)
            prod_n *= f
        assert prod_n == n

    cfg = VerifyConfig(max_order=200, lie=True)
    assert run_catalog(cfg).to_json() == run_catalog(cfg).to_json()
