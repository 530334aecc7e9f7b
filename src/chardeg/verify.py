"""Catalog-wide verification of average-degree statements.

Each check compares the average degree over Irr_p (linear characters plus
those of degree divisible by p) against a threshold and tests a structural
conclusion:

  sylow-normal          acd_p(G) < b_p  =>  the Sylow p-subgroup is normal
  p-residual-solvable   acd_p(G) < a_p  =>  O^{p'}(G) is solvable
  ito-michler           acd_p(G) = 1   <=>  Sylow p abelian and normal
  quotient-monotone     N = G' and acd_p(G) <= p
                        =>  acd_p(G/N) <= acd_p(G)
  orbit-bound           G = V . H split over elementary abelian V,
                        acd_p(G) <= p, and at least one H-orbit on the
                        nonzero dual of V has size 1 or divisible by p
                        =>  some such orbit O has
                            |O|(f+1)/(|O|+f) <= acd_p(G)
  lie-coverage          witness degrees hit every prime of the group order

A check whose hypothesis holds but whose conclusion fails is a VIOLATION;
a failed hypothesis gives a vacuous outcome.  Boundary rows mark exact
equality with the threshold (for example acd_2(S_3) = b_2 = 4/3), which the
inequalities of the statements deliberately leave outside their hypotheses.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product

from ._version import __version__
from .acd import a_p, acd_p, b_p, format_rational
from .constructions import BuiltGroup, SplitExtensionData, build, iter_catalog, spectrum_of
from .dixon import CLASS_CAP, DegreeSpectrum
from .groups import ENUMERATION_CAP, PermGroup, orbit
from .liedeg import default_matrix, prime_coverage_check
from .numbers import InvariantError, prime_divisors
from .subgroups import (
    SubgroupHandle,
    derived_subgroup,
    is_normal,
    is_solvable,
    normal_closure,
    normalizer,
    sylow,
)

_ALWAYS_TESTED_PRIMES = (2, 3, 5, 7)
_NORMALIZER_TABLE_ORDER_CAP = 1200


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    group: str
    order: int
    p: int | None
    acd: Fraction | None = None
    threshold: Fraction | None = None
    hypothesis_met: bool = False
    conclusion_holds: bool = False
    boundary: bool = False
    detail: str = ""
    error: str | None = None

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "error"
        if not self.hypothesis_met:
            return "vacuous"
        return "confirmed" if self.conclusion_holds else "VIOLATION"

    @property
    def informative(self) -> bool:
        """The hypothesis is met with acd_p > 1, so the group is nonabelian."""
        return self.hypothesis_met and self.acd is not None and self.acd > 1

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "group": self.group,
            "order": self.order,
            "p": self.p,
            "acd": None if self.acd is None else format_rational(self.acd),
            "threshold": None if self.threshold is None else format_rational(self.threshold),
            "hypothesis_met": self.hypothesis_met,
            "conclusion_holds": self.conclusion_holds,
            "verdict": self.verdict,
            "boundary": self.boundary,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class GroupFacts:
    """What the checks read about one group, each fact derived once.

    The spectrum and the split data come with G.  The Sylow p-subgroups and
    their normality, acd_p, G' and whether G is solvable, the spectrum of
    G/G' and the dual orbit sizes are computed on first use and kept.
    The p-residual O^{p'}(G) is read from the kept Sylow normality: a
    normal Sylow p-subgroup is its own p-residual, so a normal closure is
    built only for a Sylow that is not normal, and built directly, with no
    second normality test (subgroups.p_residual would repeat it).
    """

    group_id: str
    G: PermGroup
    spectrum: DegreeSpectrum
    seed: int = 0
    split: SplitExtensionData | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, built: BuiltGroup, seed: int = 0) -> GroupFacts:
        return cls(built.recipe.spec, built.group, spectrum_of(built), seed, built.split)

    def outcome(self, check: str, p: int | None, **fields) -> CheckOutcome:
        """A row of the named check for G at p."""
        return CheckOutcome(check, self.group_id, self.G.order, p, **fields)

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def acd(self, p: int) -> Fraction:
        return self._once(("acd", p), lambda: acd_p(self.spectrum, p))

    def sylow(self, p: int) -> SubgroupHandle:
        return self._once(("sylow", p), lambda: sylow(self.G, p, seed=self.seed))

    def sylow_normal(self, p: int) -> bool:
        return self._once(("sylow-normal", p), lambda: is_normal(self.G, self.sylow(p)))

    def p_residual(self, p: int) -> SubgroupHandle:
        P = self.sylow(p)
        if self.sylow_normal(p):
            return P
        return SubgroupHandle(normal_closure(self.G, P.group.generators))

    @cached_property
    def derived(self) -> SubgroupHandle:
        return derived_subgroup(self.G)

    @cached_property
    def solvable(self) -> bool:
        """G is solvable exactly when G' is trivial, or proper and solvable."""
        derived = self.derived.group
        return derived.order == 1 or (derived.order < self.G.order and is_solvable(derived))

    @cached_property
    def quotient_spectrum(self) -> DegreeSpectrum:
        """Spectrum of G/G', read from G's: G/G' is abelian, so Irr(G/G')
        is the linear characters of G, and there are |G:G'| of them
        (Isaacs, Character Theory of Finite Groups, ch. 2).  With G'
        trivial it is G's own spectrum, whose acd_p is in the memo."""
        linear, derived = self.spectrum.count(1), self.derived.group.order
        if linear * derived != self.G.order:
            index = self.G.order // derived
            raise InvariantError(f"{linear} linear characters, but |G:G'| = {index}")
        return self.spectrum if derived == 1 else DegreeSpectrum(((1, linear),), linear)

    @cached_property
    def orbit_sizes(self) -> list[int]:
        """Dual orbit sizes of the split extension (see dual_orbit_sizes)."""
        return dual_orbit_sizes(self.split)


def check_sylow_normality(facts: GroupFacts, p: int) -> CheckOutcome:
    """acd_p below b_p forces a normal Sylow p-subgroup."""
    acd = facts.acd(p)
    threshold = b_p(p)
    normal = facts.sylow_normal(p)
    return facts.outcome(
        "sylow-normal",
        p,
        acd=acd,
        threshold=threshold,
        hypothesis_met=acd < threshold,
        conclusion_holds=normal,
        boundary=acd == threshold,
        detail=f"sylow order {facts.sylow(p).group.order}, normal={normal}",
    )


def check_p_residual_solvable(facts: GroupFacts, p: int) -> CheckOutcome:
    """acd_p below a_p forces the p-residual O^{p'}(G) to be solvable."""
    acd = facts.acd(p)
    threshold = a_p(p)
    residual = facts.p_residual(p).group
    # a subgroup of a solvable group is solvable
    solvable = facts.solvable or (residual.order < facts.G.order and is_solvable(residual))
    return facts.outcome(
        "p-residual-solvable",
        p,
        acd=acd,
        threshold=threshold,
        hypothesis_met=acd < threshold,
        conclusion_holds=solvable,
        boundary=acd == threshold,
        detail=f"p-residual order {residual.order}, solvable={solvable}",
    )


def check_ito_michler(facts: GroupFacts, p: int) -> CheckOutcome:
    """acd_p(G) = 1 exactly when the Sylow p-subgroup is abelian and normal."""
    acd = facts.acd(p)
    abelian = facts.sylow(p).group.is_abelian()
    normal = facts.sylow_normal(p)
    left = acd == 1
    right = abelian and normal
    return facts.outcome(
        "ito-michler",
        p,
        acd=acd,
        threshold=Fraction(1),
        hypothesis_met=True,
        conclusion_holds=left == right,
        detail=f"acd=1:{left}, sylow abelian:{abelian}, normal:{normal}",
    )


def check_quotient_monotonicity(facts: GroupFacts, p: int) -> CheckOutcome:
    """With acd_p(G) <= p, the average over Irr_p(G/G') cannot exceed the
    group average."""
    quotient_spectrum = facts.quotient_spectrum
    acd = facts.acd(p)
    acd_quotient = acd if quotient_spectrum is facts.spectrum else acd_p(quotient_spectrum, p)
    quotient = format_rational(acd_quotient)
    return facts.outcome(
        "quotient-monotone",
        p,
        acd=acd,
        threshold=Fraction(p),
        hypothesis_met=acd <= p,
        conclusion_holds=acd_quotient <= acd,
        boundary=acd_quotient == acd,
        detail=f"N=derived-subgroup |N|={facts.derived.group.order} quotient acd={quotient}",
    )


def dual_orbit_sizes(data: SplitExtensionData) -> list[int]:
    """Orbit sizes of the complement acting on the nonzero linear characters
    of the kernel.

    That action is the inverse-transpose one on row vectors, v -> v M^-T.
    The code lets each M act as v -> M v, that is by M^T on row vectors:
    a finite matrix group is also generated by the inverses of its
    generators, so the transposes and the inverse-transposes generate the
    same group and have the same orbits.
    """
    r, m = data.r, data.m
    maps = [
        lambda v, mat=mat: tuple(sum(a * b for a, b in zip(row, v)) % r for row in mat)
        for mat in data.complement_matrices
    ]
    seen: set[tuple[int, ...]] = set()
    sizes = [
        len(orbit(v, maps, seen))
        for v in product(range(r), repeat=m)
        if any(v) and v not in seen
    ]
    if sum(sizes) != r**m - 1:
        raise InvariantError("orbits do not partition the nonzero vectors")
    return sorted(sizes)


def check_orbit_bound(facts: GroupFacts, p: int) -> CheckOutcome:
    """For split G = V . H with acd_p(G) <= p and at least one dual orbit of
    size 1 or divisible by p, some such orbit O satisfies
    |O|(f+1)/(|O|+f) <= acd_p(G) where f counts those orbits."""
    acd = facts.acd(p)
    sizes = facts.orbit_sizes
    qualifying = [s for s in sizes if s == 1 or s % p == 0]
    f = len(qualifying)
    hypothesis = acd <= p and f >= 1
    if f:
        best = min(Fraction(s * (f + 1), s + f) for s in qualifying)
        conclusion = best <= acd
        boundary = best == acd
        detail = f"orbit sizes {sizes}, f={f}, best bound {format_rational(best)}"
    else:
        conclusion = boundary = False
        detail = f"orbit sizes {sizes}, f=0"
    return facts.outcome(
        "orbit-bound",
        p,
        acd=acd,
        threshold=Fraction(p),
        hypothesis_met=hypothesis,
        conclusion_holds=conclusion,
        boundary=boundary,
        detail=detail,
    )


def lie_coverage_outcome(spec) -> CheckOutcome:
    cov = prime_coverage_check(spec)
    detail = (
        f"primes {list(cov.primes_of_order)}, witnesses "
        f"{[(w.label, w.degree) for w in cov.witnesses]}"
    )
    if cov.flags:
        detail += f", flags {list(cov.flags)}"
    if cov.missing:
        detail += f", missing {list(cov.missing)}"
    return CheckOutcome(
        "lie-coverage",
        spec.tag,
        cov.order,
        None,
        None,
        None,
        hypothesis_met=True,
        conclusion_holds=cov.complete,
        detail=detail,
    )


@dataclass(frozen=True)
class VerifyConfig:
    max_order: int = 200
    lie: bool = False
    seed: int = 0
    timings: bool = False
    tabulate_normalizers: bool = False

    def __post_init__(self):
        # 0 is valid: with lie=True the sweep is the Lie coverage rows alone
        if self.max_order < 0:
            raise ValueError(f"max_order = {self.max_order} is negative")

    def to_dict(self) -> dict:
        return {**asdict(self), "class_cap": CLASS_CAP, "enumeration_cap": ENUMERATION_CAP}


# each verdict's key in the report summary, in the summary's order
_SUMMARY_KEYS = {
    "confirmed": "confirmed",
    "vacuous": "vacuous",
    "VIOLATION": "violations",
    "error": "errors",
}


@dataclass
class VerificationReport:
    config: VerifyConfig
    checks: list[CheckOutcome] = field(default_factory=list)
    normalizer_table: list[dict] = field(default_factory=list)
    total_seconds: float | None = None

    @property
    def summary(self) -> dict:
        counts = dict.fromkeys(_SUMMARY_KEYS.values(), 0)
        for c in self.checks:
            counts[_SUMMARY_KEYS[c.verdict]] += 1
        return counts

    @property
    def exit_code(self) -> int:
        s = self.summary
        if s["violations"]:
            return 1
        if s["errors"]:
            return 2
        return 0

    def to_dict(self) -> dict:
        out = {
            "version": __version__,
            "config": self.config.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }
        if self.config.tabulate_normalizers:
            out["normalizer_table"] = self.normalizer_table
        if self.config.timings and self.total_seconds is not None:
            out["total_seconds"] = self.total_seconds
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":")) + "\n"


def _error_text(exc: Exception) -> str:
    """The error text a report row records for an exception."""
    return f"{type(exc).__name__}: {exc}"


def _group_checks(built: BuiltGroup, config: VerifyConfig) -> tuple[list[CheckOutcome], list[dict]]:
    facts = GroupFacts.of(built, config.seed)
    G = facts.G
    # built per call, so that wrappers put in place of the module's check_*
    # attributes (perfbench's tracer) are the functions that run
    checks = [
        ("sylow-normal", check_sylow_normality),
        ("p-residual-solvable", check_p_residual_solvable),
        ("ito-michler", check_ito_michler),
        ("quotient-monotone", check_quotient_monotonicity),
    ]
    if facts.split is not None:
        checks.append(("orbit-bound", check_orbit_bound))
    outcomes: list[CheckOutcome] = []
    table_rows: list[dict] = []
    for p in sorted(set(prime_divisors(G.order)) | set(_ALWAYS_TESTED_PRIMES)):
        for name, check in checks:
            try:
                outcomes.append(check(facts, p))
            except Exception as exc:  # recorded, sweep continues
                error = _error_text(exc)
                outcomes.append(facts.outcome(name, p, error=error))
        if (
            config.tabulate_normalizers
            and G.order <= _NORMALIZER_TABLE_ORDER_CAP
            and G.order % p == 0
        ):
            nz = normalizer(G, facts.sylow(p))
            table_rows.append(
                {
                    "group": facts.group_id,
                    "p": p,
                    "normalizer_index": G.order // nz.group.order,
                    "acd": format_rational(facts.acd(p)),
                }
            )
    return outcomes, table_rows


def run_catalog(config: VerifyConfig) -> VerificationReport:
    """Run every applicable check on every catalog group up to the
    configured order, plus the Lie coverage matrix when enabled."""
    started = time.perf_counter()
    report = VerificationReport(config=config)
    for recipe in iter_catalog(config.max_order):
        try:
            outcomes, table_rows = _group_checks(build(recipe), config)
        except Exception as exc:
            error = _error_text(exc)
            outcomes = [CheckOutcome("spectrum", recipe.spec, recipe.order, None, error=error)]
            table_rows = []
        report.checks.extend(outcomes)
        report.normalizer_table.extend(table_rows)
    if config.lie:
        for spec in default_matrix():
            try:
                report.checks.append(lie_coverage_outcome(spec))
            except Exception as exc:
                error = _error_text(exc)
                report.checks.append(CheckOutcome("lie-coverage", spec.tag, 0, None, error=error))
    report.total_seconds = round(time.perf_counter() - started, 3)
    return report
