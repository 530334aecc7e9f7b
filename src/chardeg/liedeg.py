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


_FAMILIES_WITH_RANK = {
    "psl",
    "psu",
    "psp",
    "omega_odd",
    "pomega_plus",
    "pomega_minus",
    "omega_plus",
}
_FAMILIES_FIXED = {"sp4", "g2", "f4", "e6", "e7"}


def validate(spec: LieFamilySpec) -> tuple[int, int]:
    """Check parameter ranges; return (characteristic, field exponent)."""
    fam, q, n = spec.family, spec.q, spec.n
    if fam not in _FAMILIES_WITH_RANK | _FAMILIES_FIXED:
        raise UnsupportedFamilyError(f"unknown family {fam!r}")
    if not (2 <= q <= _Q_CAP) or not is_prime_power(q):
        raise ValueError(f"q = {q} must be a prime power in [2, {_Q_CAP}]")
    r, f = prime_power_decomposition(q)
    if fam in _FAMILIES_WITH_RANK:
        if n is None:
            raise ValueError(f"family {fam} needs a rank parameter")
        if not 2 <= n <= _N_CAP:
            raise ValueError(f"rank {n} out of range [2, {_N_CAP}]")
        if fam == "psu" and n < 3:
            raise ValueError("psu needs n >= 3")
        if fam in ("pomega_plus", "pomega_minus", "omega_plus") and n < 4:
            raise ValueError(f"{fam} needs n >= 4")
        if fam in ("psp", "omega_odd", "pomega_plus", "pomega_minus") and r == 2:
            raise UnsupportedFamilyError(
                f"{fam} witness formulas here cover odd characteristic only"
            )
        if fam == "omega_plus" and r != 2:
            raise UnsupportedFamilyError(
                "omega_plus is the even-characteristic family; use pomega_plus for odd q"
            )
    else:
        if n is not None:
            raise ValueError(f"family {fam} takes no rank parameter")
        if fam == "sp4" and r != 2:
            raise UnsupportedFamilyError("sp4 is even-characteristic; use psp:2 for odd q")
        if fam == "g2" and r != 3:
            raise UnsupportedFamilyError("g2 witness formulas here cover powers of 3 only")
        if fam == "f4" and r != 2:
            raise UnsupportedFamilyError("f4 witness formulas here cover powers of 2 only")
    return r, f


def group_order(spec: LieFamilySpec) -> int:
    """Order of the simple group the spec names."""
    r, _ = validate(spec)
    fam, q, n = spec.family, spec.q, spec.n
    if fam == "psl":
        return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(2, n + 1)) // gcd(
            n, q - 1
        )
    if fam == "psu":
        return q ** (n * (n - 1) // 2) * prod(
            q**i - (-1) ** i for i in range(2, n + 1)
        ) // gcd(n, q + 1)
    if fam in ("psp", "omega_odd"):
        return q ** (n * n) * prod(q ** (2 * i) - 1 for i in range(1, n + 1)) // gcd(
            2, q - 1
        )
    if fam in ("pomega_plus", "omega_plus"):
        return (
            q ** (n * (n - 1))
            * (q**n - 1)
            * prod(q ** (2 * i) - 1 for i in range(1, n))
            // gcd(4, q**n - 1)
        )
    if fam == "pomega_minus":
        return (
            q ** (n * (n - 1))
            * (q**n + 1)
            * prod(q ** (2 * i) - 1 for i in range(1, n))
            // gcd(4, q**n + 1)
        )
    if fam == "sp4":
        return q**4 * (q**2 - 1) * (q**4 - 1)
    if fam == "g2":
        return q**6 * (q**6 - 1) * (q**2 - 1)
    if fam == "f4":
        return q**24 * prod(q**d - 1 for d in (2, 6, 8, 12))
    if fam == "e6":
        return (
            q**36 * prod(q**d - 1 for d in (2, 5, 6, 8, 9, 12)) // gcd(3, q - 1)
        )
    if fam == "e7":
        return (
            q**63
            * prod(q**d - 1 for d in (2, 6, 8, 10, 12, 14, 18))
            // gcd(2, q - 1)
        )
    raise UnsupportedFamilyError(fam)


def _steinberg_exponent(spec: LieFamilySpec) -> int:
    fam, n = spec.family, spec.n
    if fam == "psl":
        return n * (n - 1) // 2
    if fam == "psu":
        return n * (n - 1) // 2
    if fam in ("psp", "omega_odd"):
        return n * n
    if fam in ("pomega_plus", "pomega_minus", "omega_plus"):
        return n * (n - 1)
    return {"sp4": 4, "g2": 6, "f4": 24, "e6": 36, "e7": 63}[fam]


def _atlas_reject(name: str) -> UnsupportedFamilyError:
    return UnsupportedFamilyError(
        f"{name}: no product witness formulas for this case; "
        "its character degrees are covered by printed ATLAS tables"
    )


def _as_int(label: str, value: Fraction) -> int:
    if value.denominator != 1 or value <= 0:
        raise ArithmeticError(f"witness {label} is not a positive integer: {value}")
    return int(value)


def _psl_witnesses(n: int, q: int, r: int) -> tuple[list[tuple[str, Fraction]], list[str]]:
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


def _psu_witnesses(n: int, q: int, r: int) -> tuple[list[tuple[str, Fraction]], list[str]]:
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


def _psp_witnesses(n: int, q: int) -> list[tuple[str, Fraction]]:
    Q = Fraction(q)
    theta = (Q**n - 1) * prod(Q ** (2 * i) - 1 for i in range(1, n))
    chi = Q * (Q**n + 1) * (Q ** (n - 1) - 1) / (2 * (Q - 1))
    return [("theta", theta), ("chi", chi)]


def _pomega_minus_witnesses(n: int, q: int) -> list[tuple[str, Fraction]]:
    Q = Fraction(q)
    theta = prod(Q ** (2 * i) - 1 for i in range(1, n))
    chi = Q * (Q**n + 1) * (Q ** (n - 2) - 1) / (Q**2 - 1)
    return [("theta", theta), ("chi", chi)]


def _pomega_plus_witnesses(n: int, q: int) -> list[tuple[str, Fraction]]:
    Q = Fraction(q)
    if n == 4:
        return [
            ("chi_a", Q * (Q**2 + 1) ** 2),
            ("chi_b", Q**3 * (Q - 1) ** 4 * (Q**2 + Q + 1) / 2),
            ("chi_c", Q**3 * (Q + 1) ** 4 * (Q**2 - Q + 1) / 2),
        ]
    core = (Q**n - 1) * prod(Q ** (2 * i) - 1 for i in range(1, n))
    if n % 2 == 0:
        theta1 = core / ((Q**2 + 1) * (Q ** (n - 2) + 1))
        if q == 3:
            theta2 = core / (26 * (Fraction(3) ** (n - 3) - 1))
        else:
            eps = 1 if q % 4 == 1 else -1
            theta2 = core / ((Q + eps) * (Q ** (n - 1) + eps))
        return [("theta_1", theta1), ("theta_2", theta2)]
    theta = prod(Q ** (2 * i) - 1 for i in range(1, n))
    chi = Q * (Q**n - 1) * (Q ** (n - 2) + 1) / (Q**2 - 1)
    return [("theta", theta), ("chi", chi)]


def _omega_plus_even_witnesses(n: int, q: int) -> list[tuple[str, Fraction]]:
    if (n, q) == (4, 2):
        raise _atlas_reject("Omega+_8(2)")
    Q = Fraction(q)
    chi_s = (Q**n - 1) * prod(Q ** (2 * i) - 1 for i in range(1, n)) / (
        (Q + 1) * (Q ** (n - 1) + 1)
    )
    chi_u = (Q ** (2 * n) - Q**2) / (Q**2 - 1)
    return [("chi_semisimple", chi_s), ("unipotent", chi_u)]


def witness_degrees(spec: LieFamilySpec) -> WitnessSet:
    """Witness character degrees with the Steinberg degree, all verified to
    be positive integers dividing the group order."""
    r, _ = validate(spec)
    fam, q, n = spec.family, spec.q, spec.n
    Q = Fraction(q)
    flags: list[str] = []

    if fam == "psl":
        pairs, flags = _psl_witnesses(n, q, r)
    elif fam == "psu":
        pairs, flags = _psu_witnesses(n, q, r)
    elif fam in ("psp", "omega_odd"):
        pairs = _psp_witnesses(n, q)
    elif fam == "pomega_minus":
        pairs = _pomega_minus_witnesses(n, q)
    elif fam == "pomega_plus":
        pairs = _pomega_plus_witnesses(n, q)
    elif fam == "omega_plus":
        pairs = _omega_plus_even_witnesses(n, q)
    elif fam == "sp4":
        if q == 2:
            raise _atlas_reject("Sp_4(2), whose derived group is A_6")
        pairs = [
            ("chi_a", Q * (Q - 1) ** 2 / 2),
            ("chi_b", Q * (Q + 1) ** 2 / 2),
            ("chi_c", Q * (Q**2 + 1) / 2),
        ]
    elif fam == "g2":
        pairs = [
            ("phi_3_6", Q * phi(3, q) * phi(6, q) / 3),
            ("phi_1_2", Q * phi(1, q) ** 2 * phi(2, q) ** 2 / 3),
        ]
        # the second entry needs the factor q to be an integer at all; the
        # bare (1/3)*Phi_1^2*Phi_2^2 is not integral at q = 3
        flags.append("q-factor-included-in-phi_1_2-witness")
    elif fam == "f4":
        pairs = [
            ("chi_cuspidal", Q**3 * phi(4, q) ** 2 * phi(8, q) * phi(12, q)),
            (
                "chi_quarter",
                Q**4 * phi(1, q) ** 4 * phi(2, q) ** 4 * phi(3, q) ** 2 * phi(6, q) ** 2 / 4,
            ),
        ]
    elif fam == "e6":
        cuspidal = (
            Q**7
            * phi(1, q) ** 6
            * phi(2, q) ** 4
            * phi(4, q) ** 2
            * phi(5, q)
            * phi(8, q)
            / 3
        )
        pairs = [
            ("chi_unipotent", Q**6 * phi(3, q) ** 3 * phi(6, q) ** 2 * phi(9, q) * phi(12, q)),
            ("cuspidal_theta_1", cuspidal),
            ("cuspidal_theta_2", cuspidal),
        ]
        flags.append("cuspidal-pair-shares-one-degree")
    elif fam == "e7":
        cuspidal = (
            Q**7
            * phi(1, q) ** 6
            * phi(2, q) ** 6
            * phi(4, q) ** 2
            * phi(5, q)
            * phi(7, q)
            * phi(8, q)
            * phi(10, q)
            * phi(14, q)
            / 3
        )
        pairs = [
            (
                "chi_small",
                Q**2
                * phi(3, q) ** 2
                * phi(6, q) ** 2
                * phi(9, q)
                * phi(12, q)
                * phi(18, q),
            ),
            (
                "chi_medium",
                Q**5
                * phi(3, q) ** 2
                * phi(6, q) ** 2
                * phi(7, q)
                * phi(9, q)
                * phi(12, q)
                * phi(14, q)
                * phi(18, q),
            ),
            ("cuspidal_theta_1", cuspidal),
            ("cuspidal_theta_2", cuspidal),
        ]
        flags.append("cuspidal-pair-shares-one-degree")
    else:
        raise UnsupportedFamilyError(fam)

    order = group_order(spec)
    witnesses = []
    for label, value in pairs:
        d = _as_int(label, Fraction(value))
        if order % d:
            raise InvariantError(f"witness {label} = {d} does not divide |G| = {order}")
        witnesses.append(Witness(label, d))
    st = q ** _steinberg_exponent(spec)
    if order % st:
        raise InvariantError(f"steinberg degree {st} does not divide |G| = {order}")
    return WitnessSet(
        spec=spec,
        order=order,
        witnesses=tuple(witnesses),
        steinberg=Witness("steinberg", st),
        flags=tuple(flags),
    )


def _order_prime_candidates(spec: LieFamilySpec) -> set[int]:
    """Primes from factoring the small structural pieces of the order."""
    r, _ = validate(spec)
    fam, q, n = spec.family, spec.q, spec.n
    pieces: list[int] = [q]
    if fam == "psl":
        pieces += [q**i - 1 for i in range(2, n + 1)]
    elif fam == "psu":
        pieces += [q**i - (-1) ** i for i in range(2, n + 1)]
    elif fam in ("psp", "omega_odd"):
        pieces += [q ** (2 * i) - 1 for i in range(1, n + 1)]
    elif fam in ("pomega_plus", "omega_plus"):
        pieces += [q**n - 1] + [q ** (2 * i) - 1 for i in range(1, n)]
    elif fam == "pomega_minus":
        pieces += [q**n + 1] + [q ** (2 * i) - 1 for i in range(1, n)]
    elif fam == "sp4":
        pieces += [q**2 - 1, q**4 - 1]
    elif fam == "g2":
        pieces += [q**6 - 1, q**2 - 1]
    elif fam == "f4":
        pieces += [q**d - 1 for d in (2, 6, 8, 12)]
    elif fam == "e6":
        pieces += [q**d - 1 for d in (2, 5, 6, 8, 9, 12)]
    elif fam == "e7":
        pieces += [q**d - 1 for d in (2, 6, 8, 10, 12, 14, 18)]
    out: set[int] = set()
    for piece in pieces:
        out.update(factorize(piece))
    return out


def prime_coverage_check(spec: LieFamilySpec) -> CoverageResult:
    """Do the witness degrees hit every prime divisor of the group order?"""
    ws = witness_degrees(spec)
    order = ws.order
    candidates = _order_prime_candidates(spec)
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
