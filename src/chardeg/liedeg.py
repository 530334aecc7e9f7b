"""Degree arithmetic for finite simple groups of Lie type.

For each supported family this module evaluates the group order, a small
set of witness character degrees given by closed product formulas, and a
prime-coverage check: every prime dividing the group order must divide one
of the witness degrees or the Steinberg degree.  All arithmetic is exact;
every witness is checked to be a positive integer dividing the group order
before it is reported.

Families and tags (q is the defining field size, r its characteristic):

  psl n q         PSL_n(q), n >= 2
  psu n q         PSU_n(q), n >= 3
  psp n q         PSp_{2n}(q), n >= 2, q odd
  omega_odd n q   Omega_{2n+1}(q), n >= 2, q odd (same degree data as psp)
  pomega_plus n q   POmega+_{2n}(q), n >= 4, q odd
  pomega_minus n q  POmega-_{2n}(q), n >= 4, q odd
  omega_plus n q    Omega+_{2n}(q), n >= 4, q even
  sp4 q           Sp_4(q), q even, q >= 4
  g2 q            G_2(q), q a power of 3 here
  f4 q            F_4(q), q even here
  e6 q            E_6(q)_sc, any q
  e7 q            E_7(q)_sc, any q

Cases whose degree data lives only in printed character tables (for example
Sp_4(2), PSL_3(8), or Omega+_8(2)) are rejected with a pointer to the ATLAS
rather than silently returning a wrong witness set.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .numbers import InvariantError, factorize, is_prime_power, prime_power_decomposition

CYCLOTOMIC_CAP = 200
_N_CAP = 12
_Q_CAP = 10**6


class UnsupportedFamilyError(ValueError):
    """A (family, n, q) combination with no witness formulas here."""


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients in ascending degree, no trailing 0."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or (len(self.coeffs) > 1 and self.coeffs[-1] == 0):
            raise InvariantError(f"polynomial coefficients {self.coeffs} are not trimmed")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return IntPoly(_trim(out))

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Quotient self / other, which must divide exactly over Z."""
        rem = list(self.coeffs)
        div = other.coeffs
        out = [0] * (len(rem) - len(div) + 1)
        for top in range(len(rem) - 1, len(div) - 2, -1):
            c, extra = divmod(rem[top], div[-1])
            if extra:
                raise InvariantError("non-exact polynomial division")
            out[top - len(div) + 1] = c
            for i, y in enumerate(div):
                rem[top - len(div) + 1 + i] -= c * y
        if any(rem):
            raise InvariantError("non-exact polynomial division")
        return IntPoly(_trim(out))

    def eval(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def _trim(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _x_pow_minus_one(k: int) -> IntPoly:
    return IntPoly(tuple([-1] + [0] * (k - 1) + [1]))


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPoly:
    """k-th cyclotomic polynomial, k up to 200."""
    if not 1 <= k <= CYCLOTOMIC_CAP:
        raise ValueError(f"cyclotomic index {k} out of range")
    if k == 1:
        return IntPoly((-1, 1))
    num = _x_pow_minus_one(k)
    for d in range(1, k):
        if k % d == 0:
            num = num.exact_div(cyclotomic(d))
    return num


def phi(k: int, q: int) -> int:
    """Cyclotomic value at q."""
    return cyclotomic(k).eval(q)


@dataclass(frozen=True)
class LieFamilySpec:
    family: str
    q: int
    n: int | None = None

    @property
    def tag(self) -> str:
        if self.n is None:
            return f"{self.family}:{self.q}"
        return f"{self.family}:{self.n}:{self.q}"


@dataclass(frozen=True)
class Witness:
    label: str
    degree: int


@dataclass(frozen=True)
class WitnessSet:
    spec: LieFamilySpec
    order: int
    witnesses: tuple[Witness, ...]
    steinberg: Witness
    flags: tuple[str, ...] = ()

    @property
    def all_witnesses(self) -> tuple[Witness, ...]:
        return self.witnesses + (self.steinberg,)


@dataclass(frozen=True)
class CoverageResult:
    spec: LieFamilySpec
    order: int
    primes_of_order: tuple[int, ...]
    primes_covered: tuple[int, ...]
    missing: tuple[int, ...]
    witnesses: tuple[Witness, ...]
    flags: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.missing


_Pairs = tuple[list[tuple[str, Fraction]], list[str]]


@dataclass(frozen=True)
class _Family:
    """One family: |G| = q^N * prod(pieces) / centre with N the Steinberg
    exponent, its rank and characteristic rules, and its witness formulas."""

    steinberg: Callable[[int | None], int]
    pieces: Callable[[int, int | None], list[int]]
    witnesses: Callable[[int | None, int, int], _Pairs]
    min_rank: int | None = None  # None: fixed rank, n must be None
    centre: Callable[[int, int | None], int] = lambda q, n: 1
    char_ok: Callable[[int], bool] = lambda r: True
    char_error: str = ""

    def order(self, q: int, n: int | None) -> int:
        return q ** self.steinberg(n) * prod(self.pieces(q, n)) // self.centre(q, n)


def validate(spec: LieFamilySpec) -> tuple[int, int]:
    """Check parameter ranges; return (characteristic, field exponent)."""
    fam, q, n = spec.family, spec.q, spec.n
    family = _FAMILIES.get(fam)
    if family is None:
        raise UnsupportedFamilyError(f"unknown family {fam!r}")
    if not (2 <= q <= _Q_CAP) or not is_prime_power(q):
        raise ValueError(f"q = {q} must be a prime power in [2, {_Q_CAP}]")
    r, f = prime_power_decomposition(q)
    if family.min_rank is None:
        if n is not None:
            raise ValueError(f"family {fam} takes no rank parameter")
    elif n is None:
        raise ValueError(f"family {fam} needs a rank parameter")
    elif not 2 <= n <= _N_CAP:
        raise ValueError(f"rank {n} out of range [2, {_N_CAP}]")
    elif n < family.min_rank:
        raise ValueError(f"{fam} needs n >= {family.min_rank}")
    if not family.char_ok(r):
        raise UnsupportedFamilyError(family.char_error.format(fam))
    return r, f


def group_order(spec: LieFamilySpec) -> int:
    """Order of the simple group the spec names."""
    validate(spec)
    return _FAMILIES[spec.family].order(spec.q, spec.n)


def _atlas_reject(name: str) -> UnsupportedFamilyError:
    return UnsupportedFamilyError(
        f"{name}: no product witness formulas for this case; "
        "its character degrees are covered by printed ATLAS tables"
    )


def _psl_witnesses(n: int, q: int, r: int) -> _Pairs:
    Q = Fraction(q)
    if n == 2:
        if r == 2:
            raise UnsupportedFamilyError(
                "even-characteristic PSL_2 has no entry in the witness tables here"
            )
        if q in (2, 3):
            raise UnsupportedFamilyError("PSL_2(q) is not simple for q < 4")
        if q in (5, 9):
            raise _atlas_reject(f"PSL_2({q})")
        return [("principal", Q + 1), ("discrete", Q - 1)], []
    if r != 2:
        m = n if n % 2 == 1 else n - 1
        theta1 = prod(Q**i - 1 for i in range(2, n + 1)) / (
            (Q**m - 1) * (Q - 1) ** (n - m - 1)
        )
        if n == 3:
            theta2 = Q**2 + Q + 1
        else:
            denom = (Q - 1) ** 2 if q % 4 == 1 else Q**2 - 1
            theta2 = (Q**n - 1) * (Q ** (n - 1) - 1) / denom
        return [("theta_1", theta1), ("theta_2", theta2)], []
    # even characteristic
    if n == 3:
        if q == 2:
            raise UnsupportedFamilyError(
                "PSL_3(2) is isomorphic to PSL_2(7); use psl:2:7"
            )
        if q == 8:
            raise _atlas_reject("PSL_3(8)")
        return [("regular_torus", Q**3 - 1), ("unipotent_21", Q * (Q + 1))], []
    if (n, q) == (6, 2):
        return [("chi_62", Fraction(62)), ("chi_588", Fraction(588)), ("chi_6480", Fraction(6480))], [
            "fixed-degree-set-for-psl-6-2"
        ]
    if (n, q) == (7, 2):
        return [
            ("chi_126", Fraction(126)),
            ("chi_2540", Fraction(2540)),
            ("chi_5208", Fraction(5208)),
        ], ["fixed-degree-set-for-psl-7-2"]
    m = n if n % 2 == 0 else n - 1
    chi_s = prod(Q**i - 1 for i in range(2, n + 1)) / (
        (Q - 1) ** (n - m - 1) * (Q**m - 1)
    )
    chi_hook = Q * (Q ** (n - 1) - 1) / (Q - 1)
    chi_two = Q**2 * (Q**n - 1) * (Q ** (n - 3) - 1) / ((Q - 1) * (Q**2 - 1))
    return [
        ("chi_semisimple", chi_s),
        ("chi_hook_1", chi_hook),
        ("chi_hook_2", chi_two),
    ], []


def _psu_witnesses(n: int, q: int, r: int) -> _Pairs:
    Q = Fraction(q)

    def su(i: int) -> Fraction:
        return Q**i - (-1) ** i

    if r != 2:
        m = n if n % 2 == 1 else n - 1
        theta1 = prod(su(i) for i in range(2, n + 1)) / (
            (Q**m + 1) * (Q + 1) ** (n - m - 1)
        )
        if n == 3:
            return [("theta_1", theta1), ("theta_2", Q**2 - Q + 1)], []
        alpha = Q**2 * su(n) * su(n - 3) / ((Q + 1) * (Q**2 - 1))
        beta = Q**3 * su(n - 1) * su(n - 2) / ((Q + 1) * (Q**2 - 1))
        return [("theta_1", theta1), ("alpha", alpha), ("beta", beta)], []
    if n == 3:
        if q == 2:
            raise UnsupportedFamilyError("PSU_3(2) is solvable, not a simple group")
        return [("regular_torus", Q**3 + 1), ("unipotent_21", Q * (Q - 1))], []
    m = n if n % 2 == 0 else n - 1
    chi_s = prod(su(i) for i in range(2, n + 1)) / (
        (Q + 1) ** (n - m - 1) * (Q**m - 1)
    )
    chi_hook = Q * su(n - 1) / (Q + 1)
    chi_two = Q**2 * su(n) * su(n - 3) / ((Q + 1) * (Q**2 - 1))
    return [
        ("chi_semisimple", chi_s),
        ("chi_hook_1", chi_hook),
        ("chi_hook_2", chi_two),
    ], []


def _psp_witnesses(n: int, q: int, r: int) -> _Pairs:
    Q = Fraction(q)
    theta = (Q**n - 1) * prod(Q ** (2 * i) - 1 for i in range(1, n))
    chi = Q * (Q**n + 1) * (Q ** (n - 1) - 1) / (2 * (Q - 1))
    return [("theta", theta), ("chi", chi)], []


def _pomega_minus_witnesses(n: int, q: int, r: int) -> _Pairs:
    Q = Fraction(q)
    theta = prod(Q ** (2 * i) - 1 for i in range(1, n))
    chi = Q * (Q**n + 1) * (Q ** (n - 2) - 1) / (Q**2 - 1)
    return [("theta", theta), ("chi", chi)], []


def _pomega_plus_witnesses(n: int, q: int, r: int) -> _Pairs:
    Q = Fraction(q)
    if n == 4:
        return [
            ("chi_a", Q * (Q**2 + 1) ** 2),
            ("chi_b", Q**3 * (Q - 1) ** 4 * (Q**2 + Q + 1) / 2),
            ("chi_c", Q**3 * (Q + 1) ** 4 * (Q**2 - Q + 1) / 2),
        ], []
    core = (Q**n - 1) * prod(Q ** (2 * i) - 1 for i in range(1, n))
    if n % 2 == 0:
        theta1 = core / ((Q**2 + 1) * (Q ** (n - 2) + 1))
        if q == 3:
            theta2 = core / (26 * (Fraction(3) ** (n - 3) - 1))
        else:
            eps = 1 if q % 4 == 1 else -1
            theta2 = core / ((Q + eps) * (Q ** (n - 1) + eps))
        return [("theta_1", theta1), ("theta_2", theta2)], []
    theta = prod(Q ** (2 * i) - 1 for i in range(1, n))
    chi = Q * (Q**n - 1) * (Q ** (n - 2) + 1) / (Q**2 - 1)
    return [("theta", theta), ("chi", chi)], []


def _omega_plus_even_witnesses(n: int, q: int, r: int) -> _Pairs:
    if (n, q) == (4, 2):
        raise _atlas_reject("Omega+_8(2)")
    Q = Fraction(q)
    chi_s = (Q**n - 1) * prod(Q ** (2 * i) - 1 for i in range(1, n)) / (
        (Q + 1) * (Q ** (n - 1) + 1)
    )
    chi_u = (Q ** (2 * n) - Q**2) / (Q**2 - 1)
    return [("chi_semisimple", chi_s), ("unipotent", chi_u)], []


def _sp4_witnesses(n: None, q: int, r: int) -> _Pairs:
    if q == 2:
        raise _atlas_reject("Sp_4(2), whose derived group is A_6")
    Q = Fraction(q)
    return [
        ("chi_a", Q * (Q - 1) ** 2 / 2),
        ("chi_b", Q * (Q + 1) ** 2 / 2),
        ("chi_c", Q * (Q**2 + 1) / 2),
    ], []


def _cyclotomic_degree(q: int, a: int, phis: dict[int, int], denom: int = 1) -> Fraction:
    """q^a * prod(Phi_k(q)^e for k: e in phis) / denom."""
    return Fraction(q**a * prod(phi(k, q) ** e for k, e in phis.items()), denom)


def _g2_witnesses(n: None, q: int, r: int) -> _Pairs:
    pairs = [
        ("phi_3_6", _cyclotomic_degree(q, 1, {3: 1, 6: 1}, 3)),
        ("phi_1_2", _cyclotomic_degree(q, 1, {1: 2, 2: 2}, 3)),
    ]
    # the second entry needs the factor q to be an integer at all; the
    # bare (1/3)*Phi_1^2*Phi_2^2 is not integral at q = 3
    return pairs, ["q-factor-included-in-phi_1_2-witness"]


def _f4_witnesses(n: None, q: int, r: int) -> _Pairs:
    return [
        ("chi_cuspidal", _cyclotomic_degree(q, 3, {4: 2, 8: 1, 12: 1})),
        ("chi_quarter", _cyclotomic_degree(q, 4, {1: 4, 2: 4, 3: 2, 6: 2}, 4)),
    ], []


def _e6_witnesses(n: None, q: int, r: int) -> _Pairs:
    cuspidal = _cyclotomic_degree(q, 7, {1: 6, 2: 4, 4: 2, 5: 1, 8: 1}, 3)
    return [
        ("chi_unipotent", _cyclotomic_degree(q, 6, {3: 3, 6: 2, 9: 1, 12: 1})),
        ("cuspidal_theta_1", cuspidal),
        ("cuspidal_theta_2", cuspidal),
    ], ["cuspidal-pair-shares-one-degree"]


def _e7_witnesses(n: None, q: int, r: int) -> _Pairs:
    cuspidal = _cyclotomic_degree(q, 7, {1: 6, 2: 6, 4: 2, 5: 1, 7: 1, 8: 1, 10: 1, 14: 1}, 3)
    return [
        ("chi_small", _cyclotomic_degree(q, 2, {3: 2, 6: 2, 9: 1, 12: 1, 18: 1})),
        ("chi_medium", _cyclotomic_degree(q, 5, {3: 2, 6: 2, 7: 1, 9: 1, 12: 1, 14: 1, 18: 1})),
        ("cuspidal_theta_1", cuspidal),
        ("cuspidal_theta_2", cuspidal),
    ], ["cuspidal-pair-shares-one-degree"]


def _type_a(eps: int) -> dict:
    """Order data of PSL_n(q) (eps = 1) and PSU_n(q) (eps = -1)."""
    return dict(
        steinberg=lambda n: n * (n - 1) // 2,
        pieces=lambda q, n: [q**i - eps**i for i in range(2, n + 1)],
        centre=lambda q, n: gcd(n, q - eps),
    )


def _type_d(eps: int) -> dict:
    """Order data and least rank of the POmega^+ (eps = 1) and POmega^-
    (eps = -1) groups."""
    return dict(
        min_rank=4,
        steinberg=lambda n: n * (n - 1),
        pieces=lambda q, n: [q**n - eps] + [q ** (2 * i) - 1 for i in range(1, n)],
        centre=lambda q, n: gcd(4, q**n - eps),
    )


def _fixed_rank(steinberg: int, *degrees: int) -> dict:
    """Order data q^N * prod(q^d - 1) of a fixed-rank family, N = steinberg."""
    return dict(
        steinberg=lambda n: steinberg,
        pieces=lambda q, n: [q**d - 1 for d in degrees],
    )


_ODD_ONLY = dict(
    char_ok=lambda r: r != 2,
    char_error="{} witness formulas here cover odd characteristic only",
)
_PSP = _Family(
    min_rank=2,
    steinberg=lambda n: n * n,
    pieces=lambda q, n: [q ** (2 * i) - 1 for i in range(1, n + 1)],
    centre=lambda q, n: gcd(2, q - 1),
    witnesses=_psp_witnesses,
    **_ODD_ONLY,
)
_D_PLUS = _type_d(1)

_FAMILIES: dict[str, _Family] = {
    "psl": _Family(**_type_a(1), min_rank=2, witnesses=_psl_witnesses),
    "psu": _Family(**_type_a(-1), min_rank=3, witnesses=_psu_witnesses),
    "psp": _PSP,
    "omega_odd": _PSP,
    "pomega_plus": _Family(**_D_PLUS, witnesses=_pomega_plus_witnesses, **_ODD_ONLY),
    "pomega_minus": _Family(**_type_d(-1), witnesses=_pomega_minus_witnesses, **_ODD_ONLY),
    "omega_plus": _Family(
        **_D_PLUS,
        witnesses=_omega_plus_even_witnesses,
        char_ok=lambda r: r == 2,
        char_error="omega_plus is the even-characteristic family; use pomega_plus for odd q",
    ),
    "sp4": _Family(
        **_fixed_rank(4, 2, 4),
        witnesses=_sp4_witnesses,
        char_ok=lambda r: r == 2,
        char_error="sp4 is even-characteristic; use psp:2 for odd q",
    ),
    "g2": _Family(
        **_fixed_rank(6, 6, 2),
        witnesses=_g2_witnesses,
        char_ok=lambda r: r == 3,
        char_error="g2 witness formulas here cover powers of 3 only",
    ),
    "f4": _Family(
        **_fixed_rank(24, 2, 6, 8, 12),
        witnesses=_f4_witnesses,
        char_ok=lambda r: r == 2,
        char_error="f4 witness formulas here cover powers of 2 only",
    ),
    "e6": _Family(
        **_fixed_rank(36, 2, 5, 6, 8, 9, 12),
        centre=lambda q, n: gcd(3, q - 1),
        witnesses=_e6_witnesses,
    ),
    "e7": _Family(
        **_fixed_rank(63, 2, 6, 8, 10, 12, 14, 18),
        centre=lambda q, n: gcd(2, q - 1),
        witnesses=_e7_witnesses,
    ),
}


def witness_degrees(spec: LieFamilySpec) -> WitnessSet:
    """Witness character degrees with the Steinberg degree, all verified to
    be positive integers dividing the group order."""
    r, _ = validate(spec)
    family, q, n = _FAMILIES[spec.family], spec.q, spec.n
    pairs, flags = family.witnesses(n, q, r)
    order = family.order(q, n)
    witnesses = []
    for label, value in pairs:
        if value.denominator != 1 or value <= 0:
            raise ArithmeticError(f"witness {label} is not a positive integer: {value}")
        d = int(value)
        if order % d:
            raise InvariantError(f"witness {label} = {d} does not divide |G| = {order}")
        witnesses.append(Witness(label, d))
    st = q ** family.steinberg(n)
    if order % st:
        raise InvariantError(f"steinberg degree {st} does not divide |G| = {order}")
    return WitnessSet(
        spec=spec,
        order=order,
        witnesses=tuple(witnesses),
        steinberg=Witness("steinberg", st),
        flags=tuple(flags),
    )


def prime_coverage_check(spec: LieFamilySpec) -> CoverageResult:
    """Do the witness degrees hit every prime divisor of the group order?"""
    ws = witness_degrees(spec)
    order = ws.order
    # primes from factoring q and the small structural pieces of the order
    candidates: set[int] = set()
    for piece in [spec.q] + _FAMILIES[spec.family].pieces(spec.q, spec.n):
        candidates.update(factorize(piece))
    residue = order
    for p in sorted(candidates):
        while residue % p == 0:
            residue //= p
    if residue != 1:
        raise InvariantError("structural pieces missed a prime of the order")
    primes_of_order = tuple(p for p in sorted(candidates) if order % p == 0)
    covered = tuple(
        p
        for p in primes_of_order
        if any(w.degree % p == 0 for w in ws.all_witnesses)
    )
    missing = tuple(p for p in primes_of_order if p not in covered)
    return CoverageResult(
        spec=spec,
        order=order,
        primes_of_order=primes_of_order,
        primes_covered=covered,
        missing=missing,
        witnesses=ws.all_witnesses,
        flags=ws.flags,
    )


def default_matrix() -> list[LieFamilySpec]:
    """The fixed sweep of family/parameter combinations used by the CLI."""
    out: list[LieFamilySpec] = []
    out += [LieFamilySpec("psl", q, 2) for q in (7, 11, 13, 17, 19, 23, 25, 27)]
    for n in (3, 4, 5, 6):
        out += [LieFamilySpec("psl", q, n) for q in (3, 5, 7)]
    out += [LieFamilySpec("psl", 4, 3)]
    out += [LieFamilySpec("psl", q, 4) for q in (2, 4, 8)]
    out += [LieFamilySpec("psl", q, 5) for q in (2, 4, 8)]
    out += [LieFamilySpec("psl", q, 6) for q in (4, 8)]
    out += [LieFamilySpec("psl", 2, 6), LieFamilySpec("psl", 2, 7)]
    for n in (3, 4, 5, 6):
        out += [LieFamilySpec("psu", q, n) for q in (3, 5, 7)]
    out += [LieFamilySpec("psu", q, 3) for q in (4, 8)]
    for n in (4, 5, 6):
        out += [LieFamilySpec("psu", q, n) for q in (2, 4, 8)]
    for n in (2, 3, 4, 5):
        out += [LieFamilySpec("psp", q, n) for q in (3, 5, 7)]
    out += [LieFamilySpec("pomega_plus", q, n) for n in (4, 5, 6) for q in (3, 5)]
    out += [LieFamilySpec("pomega_minus", q, n) for n in (4, 5, 6) for q in (3, 5)]
    out += [
        LieFamilySpec("omega_plus", 4, 4),
        LieFamilySpec("omega_plus", 2, 5),
        LieFamilySpec("omega_plus", 2, 6),
    ]
    out += [LieFamilySpec("sp4", q) for q in (4, 8, 16)]
    out += [LieFamilySpec("g2", q) for q in (3, 9)]
    out += [LieFamilySpec("f4", q) for q in (2, 4)]
    out += [LieFamilySpec("e6", q) for q in (2, 3, 4, 5)]
    out += [LieFamilySpec("e7", q) for q in (2, 3, 4, 5)]
    return out
