"""Command-line interface.

Subcommands:
  table <group-spec>         degree spectrum of one group
  acd <group-spec> -p P      average degree over Irr_p with both thresholds
  ell -p P                   least m >= 1 with m*p + 1 a prime power
  verify [...]               catalog sweep of all structural checks
  lie --family F --q Q [--n R] | --all
                             witness degrees and prime coverage
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from ._version import __version__
from .acd import a_p, b_p, ell, format_rational, make_acd_report
from .constructions import GroupRecipe, build, numeral_text, parse_group_spec, spectrum_of
from .dixon import ClassCountError, DegreeSpectrum
from .groups import ENUMERATION_CAP, GroupTooLargeError
from .liedeg import LieFamilySpec, UnsupportedFamilyError, default_matrix, prime_coverage_check
from .numbers import FactorizationError, InvariantError
from .verify import VerifyConfig, run_catalog

# What the library raises on an input it cannot handle (ValueError covers
# UnsupportedFamilyError), and OSError for a report path that cannot be
# written: main reports each as one line and exit code 2.
_LIBRARY_ERRORS = (
    OSError,
    ValueError,
    ArithmeticError,
    RuntimeError,
    ClassCountError,
    GroupTooLargeError,
    FactorizationError,
    InvariantError,
)


def _spectrum_text(pairs) -> str:
    return " ".join(f"{d}^{k}" if k > 1 else str(d) for d, k in pairs)


def _spectrum(spec: str) -> tuple[GroupRecipe, DegreeSpectrum]:
    """A group spec's recipe and spectrum.  An atom of order past
    ENUMERATION_CAP is nonabelian with one component (abelian atoms fit the
    point cap), so its spectrum would need every element: it is refused
    before its chain is built, which takes a minute for sym:100."""
    recipe = parse_group_spec(spec)
    for atom in recipe.factors or (recipe,):
        if atom.order > ENUMERATION_CAP:
            order = numeral_text(atom.order)
            raise GroupTooLargeError(f"group of order {order} exceeds cap {ENUMERATION_CAP}")
    return recipe, spectrum_of(build(recipe))


def _cmd_table(args) -> int:
    recipe, spectrum = _spectrum(args.group)
    if args.json:
        payload = {"group": recipe.spec, "order": recipe.order, "degrees": list(spectrum.degrees)}
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    print(f"group: {recipe.spec}")
    print(f"order: {recipe.order}")
    print(f"degrees: {_spectrum_text(spectrum.pairs)}")
    print(f"count: {sum(m for _, m in spectrum.pairs)}")
    return 0


def _cmd_acd(args) -> int:
    recipe, spectrum = _spectrum(args.group)
    report = make_acd_report(spectrum, args.p)
    payload = {"group": recipe.spec, "order": recipe.order} | report.to_dict()
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    print(f"group: {recipe.spec} (order {recipe.order})")
    print(f"irr_{args.p} degrees: {_spectrum_text(report.pairs)}")
    print(f"acd_{args.p} = {format_rational(report.acd)}")
    print(f"b_{args.p} = {format_rational(report.b)} (below: {report.below_b})")
    print(f"a_{args.p} = {format_rational(report.a)} (below: {report.below_a})")
    return 0


def _cmd_ell(args) -> int:
    value = ell(args.p)
    print(f"ell({args.p}) = {value}")
    print(f"b_{args.p} = {format_rational(b_p(args.p))}")
    print(f"a_{args.p} = {format_rational(a_p(args.p))}")
    return 0


def _cmd_verify(args) -> int:
    config = VerifyConfig(
        max_order=args.max_order,
        lie=args.lie,
        seed=args.seed,
        timings=args.timings,
        tabulate_normalizers=args.tabulate_normalizers,
    )
    # a report path that cannot be written fails here, before the sweep
    with open(args.json, "w") if args.json else contextlib.nullcontext() as fh:
        report = run_catalog(config)
        if fh is not None:
            fh.write(report.to_json())
    summary = report.summary
    for c in report.checks:
        if c.verdict == "VIOLATION":
            print(
                f"VIOLATION {c.check} group={c.group} p={c.p} "
                f"acd={format_rational(c.acd) if c.acd is not None else '-'} {c.detail}"
            )
        elif c.verdict == "error":
            print(f"ERROR {c.check} group={c.group} p={c.p}: {c.error}")
    print(
        f"checks: {len(report.checks)}  confirmed: {summary['confirmed']}  "
        f"vacuous: {summary['vacuous']}  violations: {summary['violations']}  "
        f"errors: {summary['errors']}  "
        f"informative: {sum(c.informative for c in report.checks)}"
    )
    if args.timings and report.total_seconds is not None:
        print(f"elapsed: {report.total_seconds}s")
    return report.exit_code


def _coverage_payload(spec: LieFamilySpec) -> dict:
    cov = prime_coverage_check(spec)
    return {
        "family": spec.family,
        "q": spec.q,
        "n": spec.n,
        "tag": spec.tag,
        "order": cov.order,
        "witnesses": [{"label": w.label, "degree": w.degree} for w in cov.witnesses],
        "primes_of_order": list(cov.primes_of_order),
        "primes_covered": list(cov.primes_covered),
        "missing": list(cov.missing),
        "flags": list(cov.flags),
        "complete": cov.complete,
    }


def _cmd_lie(args) -> int:
    if args.all:
        bad = 0
        for spec in default_matrix():
            try:
                payload = _coverage_payload(spec)
            except UnsupportedFamilyError as exc:
                print(f"{spec.tag}: unsupported: {exc}")
                bad += 1
                continue
            status = "complete" if payload["complete"] else f"MISSING {payload['missing']}"
            print(f"{spec.tag}: order {payload['order']}, {status}")
            if not payload["complete"]:
                bad += 1
        return 1 if bad else 0
    if args.family is None or args.q is None:
        print("lie: provide --family and --q, or --all", file=sys.stderr)
        return 2
    spec = LieFamilySpec(args.family, args.q, args.n)
    payload = _coverage_payload(spec)
    print(json.dumps(payload, separators=(",", ":")))
    return 0 if payload["complete"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="Exact character degree spectra and average-degree checks for finite groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="degree spectrum of a group")
    p_table.add_argument("group", help="group spec, e.g. sym:4 or psl2:7xcyclic:3")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(fn=_cmd_table)

    p_acd = sub.add_parser("acd", help="average degree over Irr_p")
    p_acd.add_argument("group")
    p_acd.add_argument("-p", type=int, required=True)
    p_acd.add_argument("--json", action="store_true")
    p_acd.set_defaults(fn=_cmd_acd)

    p_ell = sub.add_parser("ell", help="least m with m*p + 1 a prime power")
    p_ell.add_argument("-p", type=int, required=True)
    p_ell.set_defaults(fn=_cmd_ell)

    p_verify = sub.add_parser("verify", help="run all checks over the group catalog")
    p_verify.add_argument("--max-order", type=int, default=200)
    p_verify.add_argument("--lie", action="store_true", help="include the Lie coverage matrix")
    p_verify.add_argument("--json", metavar="PATH", help="write the full JSON report here")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p_verify.add_argument(
        "--tabulate-normalizers",
        action="store_true",
        help="record ([G:N_G(P)], acd_p) pairs for small groups",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_lie = sub.add_parser("lie", help="Lie-type witness degrees and prime coverage")
    p_lie.add_argument("--family")
    p_lie.add_argument("--q", type=int)
    p_lie.add_argument("--n", type=int)
    p_lie.add_argument("--all", action="store_true", help="sweep the default matrix")
    p_lie.set_defaults(fn=_cmd_lie)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _LIBRARY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
