"""Catalog-wide verification of average-degree statements.

Each check compares the average degree over Irr_p (linear characters plus
those of degree divisible by p) against a threshold and tests a structural
conclusion:

  sylow-normal          acd_p(G) < b_p  =>  the Sylow p-subgroup is normal
  p-residual-solvable   acd_p(G) < a_p  =>  O^{p'}(G) is solvable
  ito-michler           acd_p(G) = 1   <=>  Sylow p abelian and normal
  quotient-monotone     N normal, N <= G', acd_p(G) <= p
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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product

from ._version import __version__
from .acd import a_p, acd_p, b_p, format_rational
from .constructions import BuiltGroup, SplitExtensionData, build, iter_catalog, spectrum_of
from .dixon import CLASS_CAP, DegreeSpectrum, degree_spectrum
from .groups import ENUMERATION_CAP, PermGroup, orbit
from .liedeg import default_matrix, prime_coverage_check
from .numbers import InvariantError, prime_divisors
from .subgroups import (
    SubgroupHandle,
    derived_subgroup,
    is_normal,
    is_solvable,
    normalizer,
    p_residual,
    quotient_group,
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
    acd: Fraction | None
    threshold: Fraction | None
    hypothesis_met: bool
    conclusion_holds: bool
    verdict: str
    boundary: bool = False
    detail: str = ""
    error: str | None = None
    elapsed_ms: float | None = None

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
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def _outcome(
    check: str,
    group: str,
    order: int,
    p: int | None,
    acd: Fraction | None,
    threshold: Fraction | None,
    hypothesis_met: bool,
    conclusion_holds: bool,
    boundary: bool = False,
    detail: str = "",
) -> CheckOutcome:
    if hypothesis_met and not conclusion_holds:
        verdict = "VIOLATION"
    elif hypothesis_met:
        verdict = "confirmed"
    else:
        verdict = "vacuous"
    return CheckOutcome(
        check=check,
        group=group,
        order=order,
        p=p,
        acd=acd,
        threshold=threshold,
        hypothesis_met=hypothesis_met,
        conclusion_holds=conclusion_holds,
        verdict=verdict,
        boundary=boundary,
        detail=detail,
    )


def _error_outcome(check: str, group: str, order: int, p: int | None, exc: Exception) -> CheckOutcome:
    return CheckOutcome(
        check=check,
        group=group,
        order=order,
        p=p,
        acd=None,
        threshold=None,
        hypothesis_met=False,
        conclusion_holds=False,
        verdict="error",
        error=f"{type(exc).__name__}: {exc}",
    )


def check_sylow_normality(
    G: PermGroup,
    p: int,
    *,
    spectrum: DegreeSpectrum | None = None,
    sylow_handle: SubgroupHandle | None = None,
    group_id: str = "",
    seed: int = 0,
) -> CheckOutcome:
    """acd_p below b_p forces a normal Sylow p-subgroup."""
    spectrum = spectrum if spectrum is not None else degree_spectrum(G)
    group_id = group_id or f"order-{G.order}"
    acd = acd_p(spectrum, p)
    threshold = b_p(p)
    syl = sylow_handle if sylow_handle is not None else sylow(G, p, seed=seed)
    normal = is_normal(G, syl)
    return _outcome(
        "sylow-normal",
        group_id,
        G.order,
        p,
        acd,
        threshold,
        hypothesis_met=acd < threshold,
        conclusion_holds=normal,
        boundary=acd == threshold,
        detail=f"sylow order {syl.group.order}, normal={normal}",
    )


def check_p_residual_solvable(
    G: PermGroup,
    p: int,
    *,
    spectrum: DegreeSpectrum | None = None,
    sylow_handle: SubgroupHandle | None = None,
    group_id: str = "",
    seed: int = 0,
) -> CheckOutcome:
    """acd_p below a_p forces the p-residual O^{p'}(G) to be solvable."""
    spectrum = spectrum if spectrum is not None else degree_spectrum(G)
    group_id = group_id or f"order-{G.order}"
    acd = acd_p(spectrum, p)
    threshold = a_p(p)
    residual = p_residual(G, p, seed=seed, sylow_handle=sylow_handle)
    solvable = is_solvable(residual.group)
    return _outcome(
        "p-residual-solvable",
        group_id,
        G.order,
        p,
        acd,
        threshold,
        hypothesis_met=acd < threshold,
        conclusion_holds=solvable,
        boundary=acd == threshold,
        detail=f"p-residual order {residual.group.order}, solvable={solvable}",
    )


def check_ito_michler(
    G: PermGroup,
    p: int,
    *,
    spectrum: DegreeSpectrum | None = None,
    sylow_handle: SubgroupHandle | None = None,
    group_id: str = "",
    seed: int = 0,
) -> CheckOutcome:
    """acd_p(G) = 1 exactly when the Sylow p-subgroup is abelian and normal."""
    spectrum = spectrum if spectrum is not None else degree_spectrum(G)
    group_id = group_id or f"order-{G.order}"
    acd = acd_p(spectrum, p)
    syl = sylow_handle if sylow_handle is not None else sylow(G, p, seed=seed)
    abelian = syl.group.is_abelian()
    normal = abelian if syl.group.order == 1 else is_normal(G, syl)
    left = acd == 1
    right = abelian and normal
    return _outcome(
        "ito-michler",
        group_id,
        G.order,
        p,
        acd,
        Fraction(1),
        hypothesis_met=True,
        conclusion_holds=left == right,
        detail=f"acd=1:{left}, sylow abelian:{abelian}, normal:{normal}",
    )


def check_quotient_monotonicity(
    G: PermGroup,
    N: SubgroupHandle,
    p: int,
    *,
    spectrum: DegreeSpectrum | None = None,
    quotient_spectrum: DegreeSpectrum | None = None,
    group_id: str = "",
    candidate: str = "subgroup",
    skip_preconditions: bool = False,
) -> CheckOutcome | None:
    """With N normal inside G' and acd_p(G) <= p, the quotient average
    cannot exceed the group average.  Returns None when N fails the
    preconditions (that is a skip, not a violation)."""
    spectrum = spectrum if spectrum is not None else degree_spectrum(G)
    group_id = group_id or f"order-{G.order}"
    if not skip_preconditions:
        if not is_normal(G, N):
            return None
        derived = derived_subgroup(G)
        if not all(derived.group.contains(g) for g in N.group.generators):
            return None
    if quotient_spectrum is None:
        Q = quotient_group(G, N)
        quotient_spectrum = spectrum if Q is G else degree_spectrum(Q)
    acd = acd_p(spectrum, p)
    acd_quotient = acd_p(quotient_spectrum, p)
    return _outcome(
        "quotient-monotone",
        group_id,
        G.order,
        p,
        acd,
        Fraction(p),
        hypothesis_met=acd <= p,
        conclusion_holds=acd_quotient <= acd,
        boundary=acd_quotient == acd,
        detail=f"N={candidate} |N|={N.group.order} quotient acd={format_rational(acd_quotient)}",
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


def check_orbit_bound(
    data: SplitExtensionData,
    p: int,
    spectrum: DegreeSpectrum,
    *,
    group_id: str = "",
    order: int = 0,
) -> CheckOutcome:
    """For split G = V . H with acd_p(G) <= p and at least one dual orbit of
    size 1 or divisible by p, some such orbit O satisfies
    |O|(f+1)/(|O|+f) <= acd_p(G) where f counts those orbits."""
    acd = acd_p(spectrum, p)
    sizes = dual_orbit_sizes(data)
    qualifying = [s for s in sizes if s == 1 or s % p == 0]
    f = len(qualifying)
    hypothesis = acd <= p and f >= 1
    if f:
        best = min(Fraction(s * (f + 1), s + f) for s in qualifying)
        conclusion = best <= acd
        boundary = best == acd
        detail = f"orbit sizes {sizes}, f={f}, best bound {format_rational(best)}"
    else:
        conclusion = False
        boundary = False
        detail = f"orbit sizes {sizes}, f=0"
    return _outcome(
        "orbit-bound",
        group_id or f"order-{order}",
        order,
        p,
        acd,
        Fraction(p),
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
    return _outcome(
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
        return {
            "max_order": self.max_order,
            "lie": self.lie,
            "seed": self.seed,
            "timings": self.timings,
            "tabulate_normalizers": self.tabulate_normalizers,
            "class_cap": CLASS_CAP,
            "enumeration_cap": ENUMERATION_CAP,
        }


@dataclass
class VerificationReport:
    config: VerifyConfig
    checks: list[CheckOutcome] = field(default_factory=list)
    normalizer_table: list[dict] = field(default_factory=list)
    total_seconds: float | None = None

    @property
    def summary(self) -> dict:
        counts = {"confirmed": 0, "vacuous": 0, "violations": 0, "errors": 0}
        for c in self.checks:
            if c.verdict == "confirmed":
                counts["confirmed"] += 1
            elif c.verdict == "vacuous":
                counts["vacuous"] += 1
            elif c.verdict == "VIOLATION":
                counts["violations"] += 1
            else:
                counts["errors"] += 1
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


def _group_checks(built: BuiltGroup, config: VerifyConfig) -> tuple[list[CheckOutcome], list[dict]]:
    recipe = built.recipe
    G = built.group
    gid = recipe.spec
    outcomes: list[CheckOutcome] = []
    table_rows: list[dict] = []

    spectrum = spectrum_of(built)
    primes = sorted(set(prime_divisors(recipe.order)) | set(_ALWAYS_TESTED_PRIMES))

    derived = derived_subgroup(G)
    Q = quotient_group(G, derived)
    quotient_spectrum = spectrum if Q is G else degree_spectrum(Q)

    for p in primes:
        syl = sylow(G, p, seed=config.seed)
        for name, fn in (
            ("sylow-normal", check_sylow_normality),
            ("p-residual-solvable", check_p_residual_solvable),
            ("ito-michler", check_ito_michler),
        ):
            try:
                outcomes.append(
                    fn(G, p, spectrum=spectrum, sylow_handle=syl, group_id=gid, seed=config.seed)
                )
            except Exception as exc:  # recorded, sweep continues
                outcomes.append(_error_outcome(name, gid, recipe.order, p, exc))
        try:
            outcomes.append(
                check_quotient_monotonicity(
                    G,
                    derived,
                    p,
                    spectrum=spectrum,
                    quotient_spectrum=quotient_spectrum,
                    group_id=gid,
                    candidate="derived-subgroup",
                    skip_preconditions=True,
                )
            )
        except Exception as exc:
            outcomes.append(_error_outcome("quotient-monotone", gid, recipe.order, p, exc))
        if built.split is not None:
            try:
                outcomes.append(
                    check_orbit_bound(
                        built.split, p, spectrum, group_id=gid, order=recipe.order
                    )
                )
            except Exception as exc:
                outcomes.append(_error_outcome("orbit-bound", gid, recipe.order, p, exc))
        if (
            config.tabulate_normalizers
            and recipe.order <= _NORMALIZER_TABLE_ORDER_CAP
            and recipe.order % p == 0
        ):
            nz = normalizer(G, syl)
            table_rows.append(
                {
                    "group": gid,
                    "p": p,
                    "normalizer_index": recipe.order // nz.group.order,
                    "acd": format_rational(acd_p(spectrum, p)),
                }
            )
    return outcomes, table_rows


def run_catalog(config: VerifyConfig) -> VerificationReport:
    """Run every applicable check on every catalog group up to the
    configured order, plus the Lie coverage matrix when enabled."""
    started = time.perf_counter()
    report = VerificationReport(config=config)
    for recipe in iter_catalog(config.max_order):
        t0 = time.perf_counter()
        try:
            built = build(recipe)
            outcomes, table_rows = _group_checks(built, config)
        except Exception as exc:
            outcomes = [_error_outcome("spectrum", recipe.spec, recipe.order, None, exc)]
            table_rows = []
        if config.timings:
            elapsed = (time.perf_counter() - t0) * 1000.0 / max(len(outcomes), 1)
            outcomes = [replace(o, elapsed_ms=round(elapsed, 3)) for o in outcomes]
        report.checks.extend(outcomes)
        report.normalizer_table.extend(table_rows)
    if config.lie:
        for spec in default_matrix():
            try:
                report.checks.append(lie_coverage_outcome(spec))
            except Exception as exc:
                report.checks.append(_error_outcome("lie-coverage", spec.tag, 0, None, exc))
    report.total_seconds = round(time.perf_counter() - started, 3)
    return report
