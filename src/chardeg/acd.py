"""Average character degree restricted to a prime, and its thresholds.

For a prime p, the relevant degrees are those that are 1 or divisible by p.
Their average acd_p is an exact rational.  The comparison thresholds are
built from the least multiplier ell(p) making ell(p)*p + 1 a prime power:
b_p = 2*ell(p)*p / (ell(p)*p + 1), and a_p is 5/2, 7/3, or (p+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .dixon import DegreeSpectrum, expand_pairs
from .numbers import _require_prime, is_prime_power

ELL_SEARCH_CAP = 10**6


def irr_p_degrees(spectrum: DegreeSpectrum, p: int) -> tuple[tuple[int, int], ...]:
    """The (degree, multiplicity) pairs of the spectrum whose degree is 1 or
    divisible by p, in increasing degree."""
    return tuple((d, m) for d, m in spectrum.pairs if d == 1 or d % p == 0)


def acd_p(spectrum: DegreeSpectrum, p: int) -> Fraction:
    """Average of the degrees in irr_p_degrees, with multiplicity; always at
    least 1, since every spectrum has the degree 1."""
    _require_prime(p)
    pairs = irr_p_degrees(spectrum, p)
    return Fraction(sum(d * m for d, m in pairs), sum(m for _, m in pairs))


@cache
def ell(p: int) -> int:
    """Least multiplier l >= 1 such that l*p + 1 is a prime power."""
    _require_prime(p)
    for m in range(1, ELL_SEARCH_CAP + 1):
        if is_prime_power(m * p + 1):
            return m
    raise RuntimeError(f"no multiplier below {ELL_SEARCH_CAP} for p = {p}")


@cache
def b_p(p: int) -> Fraction:
    """Sylow-normality threshold 2*l*p / (l*p + 1) with l = ell(p)."""
    lp = ell(p) * p
    return Fraction(2 * lp, lp + 1)


@cache
def a_p(p: int) -> Fraction:
    """Solvability threshold: 5/2 at p = 2, 7/3 at p = 3, else (p + 1)/2."""
    _require_prime(p)
    if p == 2:
        return Fraction(5, 2)
    if p == 3:
        return Fraction(7, 3)
    return Fraction(p + 1, 2)


@dataclass(frozen=True)
class AcdReport:
    """acd_p of one group against both thresholds; pairs are the
    irr_p_degrees of its spectrum."""

    p: int
    pairs: tuple[tuple[int, int], ...]
    acd: Fraction
    b: Fraction
    a: Fraction
    below_b: bool
    below_a: bool

    @property
    def degrees(self) -> tuple[int, ...]:
        """The degrees of pairs, sorted, each repeated by its multiplicity."""
        return expand_pairs(self.pairs)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "degrees": list(self.degrees),
            "acd": format_rational(self.acd),
            "b_p": format_rational(self.b),
            "a_p": format_rational(self.a),
            "below_b": self.below_b,
            "below_a": self.below_a,
        }


def make_acd_report(spectrum: DegreeSpectrum, p: int) -> AcdReport:
    acd = acd_p(spectrum, p)
    pairs = irr_p_degrees(spectrum, p)
    b, a = b_p(p), a_p(p)
    return AcdReport(p=p, pairs=pairs, acd=acd, b=b, a=a, below_b=acd < b, below_a=acd < a)


def format_rational(x: Fraction) -> str:
    """Canonical "num/den" form used in all JSON output."""
    return f"{x.numerator}/{x.denominator}"
