"""The three benchmark workloads, driven through chardeg's public entry points.

Each workload turns ``(seed, max_order)`` into inputs once (set-up) and then
runs closed-loop passes, one caller, one thread.  Every pass constructs its
groups from recipe strings again, because every CLI invocation pays for
``build`` and for the element and class caches on ``PermGroup``.

A pass returns ``Outcome``: JSON-ready outputs keyed by group (or, for the
catalog, digests and evidence counts), the number of operations attempted
and the number that failed.  Calls go through module attributes
(``constructions.build``, not a name imported once) so that the tracer's
wrappers are the functions that run.

The seed shuffles the order in which a pass visits its groups and is passed
to ``VerifyConfig.seed`` and ``sylow(seed=)``.  All Sylow p-subgroups are
conjugate, so every checked output except the config echo in the catalog
report is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from chardeg import constructions, dixon, numbers, subgroups, verify

# The verify sweep up to --max-order (150 by default): every catalog family.
CATALOG = "catalog-150"
# dixon_degrees does nearly all the work on these many-class groups.
SOLVER_WIDE = (
    "dihedral:295",
    "dihedral:250",
    "dihedral:200",
    "agl1:27",
    "frob:43:1:42",
    "extraspecial:5",
)
# Large orders with few classes: element enumeration, class BFS and
# subgroup closures dominate, the solver does little.
STRUCTURE_LARGE = ("psl2:27", "psl2:25", "psl2:23", "sym:7", "alt:7", "agl1:49")


@dataclass
class Outcome:
    outputs: dict
    attempted: int
    failed: int = 0
    evidence: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return sha256(json.dumps(self.outputs, sort_keys=True, separators=(",", ":")))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def multiset(degrees) -> list[list[int]]:
    """A sorted degree tuple as [[degree, multiplicity], ...]."""
    out: list[list[int]] = []
    for d in degrees:
        if out and out[-1][0] == d:
            out[-1][1] += 1
        else:
            out.append([d, 1])
    return out


def family(spec: str) -> str:
    """Family of a catalog group for the per-family time split."""
    if spec == "report":
        return "report"
    if spec.startswith("lie:"):
        return "lie"
    recipe = constructions.parse_group_spec(spec)
    kinds = [f.kind for f in recipe.factors] or [recipe.kind]
    if all(k == "cyclic" for k in kinds):
        return "abelian"
    return "product" if len(kinds) > 1 else kinds[0]


def make_inputs(name: str, seed: int, max_order: int):
    if name == CATALOG:
        return verify.VerifyConfig(max_order=max_order, lie=True, seed=seed)
    specs = {"solver-wide": SOLVER_WIDE, "structure-large": STRUCTURE_LARGE}[name]
    specs = list(specs)
    random.Random(seed).shuffle(specs)
    return specs


def run_pass(name: str, inputs, seed: int, mark_group) -> Outcome:
    """One pass; ``mark_group(key)`` is told when the catalog report is done."""
    if name == CATALOG:
        return _catalog_pass(inputs, mark_group)
    step = _solver_group if name == "solver-wide" else _structure_group
    outputs, failed = {}, 0
    for spec in inputs:
        try:
            outputs[spec] = step(spec, seed)
        except Exception as exc:  # counted as a failed operation, the pass goes on
            outputs[spec] = {"error": f"{type(exc).__name__}: {exc}"}
            failed += 1
    return Outcome(outputs, attempted=len(inputs), failed=failed)


def _solver_group(spec: str, seed: int):
    built = constructions.build(constructions.parse_group_spec(spec))
    return multiset(constructions.spectrum_of(built).degrees)


def _structure_group(spec: str, seed: int) -> dict:
    built = constructions.build(constructions.parse_group_spec(spec))
    G = built.group
    out = {"degrees": multiset(constructions.spectrum_of(built).degrees), "primes": {}}
    for p in numbers.prime_divisors(G.order):
        P = subgroups.sylow(G, p, seed=seed)
        residual = subgroups.p_residual(G, p, seed=seed, sylow_handle=P)
        out["primes"][str(p)] = {
            "sylow_order": P.group.order,
            "sylow_normal": subgroups.is_normal(G, P),
            "residual_order": residual.group.order,
            "residual_solvable": subgroups.is_solvable(residual.group),
        }
    derived = subgroups.derived_subgroup(G)
    out["derived_order"] = derived.group.order
    if derived.group.order < G.order:
        Q = subgroups.quotient_group(G, derived)
        out["quotient_degrees"] = multiset(dixon.degree_spectrum(Q).degrees)
    return out


def evidence_counts(report) -> dict:
    """Row counts of a catalog report; informative rows have their hypothesis
    met and acd_p > 1 (so the group is nonabelian)."""
    summary = report.summary
    return {
        "rows": len(report.checks),
        "confirmed": summary["confirmed"],
        "vacuous": summary["vacuous"],
        "violations": summary["violations"],
        "errors": summary["errors"],
        "boundary": sum(c.boundary for c in report.checks),
        "informative_rows": sum(
            c.hypothesis_met and c.acd is not None and c.acd > 1 for c in report.checks
        ),
    }


def _catalog_pass(config, mark_group) -> Outcome:
    report = verify.run_catalog(config)
    mark_group("report")
    rows_json = json.dumps([c.to_dict() for c in report.checks], separators=(",", ":"))
    counts = evidence_counts(report)
    outputs = {"report_sha256": sha256(report.to_json()), "rows_sha256": sha256(rows_json)}
    return Outcome(
        outputs,
        attempted=counts["rows"],
        failed=counts["errors"] + counts["violations"],
        evidence=counts,
    )


def reference_key(name: str, max_order: int) -> str:
    return f"catalog-{max_order}" if name == CATALOG else name


def mismatches(name: str, outcome: Outcome, reference: dict | None, seed: int) -> list[str]:
    """Outputs that differ from the recorded reference, one entry each."""
    if reference is None:
        return []
    if name != CATALOG:
        return [
            spec
            for spec, value in outcome.outputs.items()
            if reference.get(spec) != value and "error" not in value  # errors already failed
        ]
    bad = []
    if outcome.outputs["rows_sha256"] != reference["rows_sha256"]:
        bad.append("rows_sha256")
    if outcome.evidence != reference["counts"]:
        bad.append("counts")
    recorded = reference["report_sha256_by_seed"].get(str(seed))
    if recorded is not None and outcome.outputs["report_sha256"] != recorded:
        bad.append("report_sha256")
    return bad


def as_reference(name: str, outcome: Outcome, seed: int, previous: dict | None) -> dict:
    """The reference entry this outcome records (merged into ``previous``)."""
    if name != CATALOG:
        return dict(sorted(outcome.outputs.items()))
    if previous and previous["rows_sha256"] != outcome.outputs["rows_sha256"]:
        raise ValueError("catalog rows differ from the recorded reference")
    by_seed = dict(previous["report_sha256_by_seed"]) if previous else {}
    by_seed[str(seed)] = outcome.outputs["report_sha256"]
    return {
        "rows_sha256": outcome.outputs["rows_sha256"],
        "counts": outcome.evidence,
        "report_sha256_by_seed": by_seed,
    }
