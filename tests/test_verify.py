"""Tests for the theorem verifier: single checks, sweeps, reports."""

import collections
import itertools
import json
from fractions import Fraction

import pytest

from chardeg import subgroups, verify
from chardeg.constructions import build, iter_catalog
from chardeg.dixon import DegreeSpectrum
from chardeg.numbers import InvariantError
from chardeg.subgroups import derived_subgroup, is_normal, is_solvable, subgroup, sylow
from chardeg.verify import (
    GroupFacts,
    VerificationReport,
    VerifyConfig,
    check_ito_michler,
    check_orbit_bound,
    check_p_residual_solvable,
    check_quotient_monotonicity,
    check_sylow_normality,
    dual_orbit_sizes,
    run_catalog,
)

from support import built_of


def facts_of(spec: str) -> GroupFacts:
    return GroupFacts.of(built_of(spec))


def test_sylow_normal_confirmed_s3_p3():
    facts = facts_of("sym:3")
    out = check_sylow_normality(facts, 3)
    assert out.verdict == "confirmed"
    assert out.acd == Fraction(1)
    assert out.threshold == Fraction(3, 2)
    assert out.hypothesis_met and out.conclusion_holds
    assert not out.boundary


def test_sylow_normal_vacuous_boundary_s3_p2():
    facts = facts_of("sym:3")
    out = check_sylow_normality(facts, 2)
    assert out.verdict == "vacuous"
    assert out.acd == Fraction(4, 3)
    assert out.threshold == Fraction(4, 3)
    assert out.boundary  # exact equality with b_2
    assert not out.conclusion_holds  # three Sylow 2-subgroups


def test_sylow_normal_boundary_agl1_11_p5():
    facts = facts_of("agl1:11")
    out = check_sylow_normality(facts, 5)
    assert out.verdict == "vacuous"
    assert out.acd == Fraction(20, 11)
    assert out.threshold == Fraction(20, 11)
    assert out.boundary


def test_p_residual_boundary_alt5():
    facts = facts_of("alt:5")
    for p, expected_acd in [(2, Fraction(5, 2)), (3, Fraction(7, 3))]:
        out = check_p_residual_solvable(facts, p)
        assert out.verdict == "vacuous"
        assert out.acd == expected_acd
        assert out.boundary
        assert "solvable=False" in out.detail


def test_p_residual_confirmed_sym4():
    facts = facts_of("sym:4")
    out = check_p_residual_solvable(facts, 2)
    # acd_2 = 4/3 < 5/2 and the 2-residual (all of S_4) is solvable
    assert out.verdict == "confirmed"
    assert out.acd == Fraction(4, 3)
    assert "solvable=True" in out.detail

    out_sylow = check_sylow_normality(facts, 2)
    assert out_sylow.verdict == "vacuous"  # 4/3 is not strictly below b_2
    assert out_sylow.boundary
    assert not out_sylow.conclusion_holds


def test_ito_michler_cases():
    out = check_ito_michler(facts_of("sym:3"), 3)
    assert out.verdict == "confirmed"  # acd_3 = 1, Sylow 3 abelian normal

    out2 = check_ito_michler(facts_of("sym:3"), 2)
    assert out2.verdict == "confirmed"  # acd_2 > 1, Sylow 2 not normal

    out3 = check_ito_michler(facts_of("alt:5"), 5)
    assert out3.verdict == "confirmed"
    assert "acd=1:False" in out3.detail

    # p not dividing the order: trivial Sylow counts as abelian and normal
    out4 = check_ito_michler(facts_of("sym:3"), 7)
    assert out4.verdict == "confirmed"
    assert "acd=1:True" in out4.detail


def test_quotient_monotone_reads_g_mod_g_prime_from_the_linear_characters():
    """G/G' is abelian, so Irr(G/G') is the linear characters of G, and its
    acd_p is 1: for sym:4, two of them, |G:G'| = 2."""
    facts = facts_of("sym:4")
    assert facts.quotient_spectrum.pairs == ((1, 2),)
    out = check_quotient_monotonicity(facts, 2)
    assert out.verdict == "confirmed"
    assert out.acd == Fraction(4, 3)
    assert out.detail == "N=derived-subgroup |N|=12 quotient acd=1/1"
    assert not out.boundary


def test_quotient_monotone_perfect_group():
    # G' = G for alt:5: the quotient is trivial, its one character linear
    facts = facts_of("alt:5")
    assert facts.quotient_spectrum.pairs == ((1, 1),)
    out = check_quotient_monotonicity(facts, 5)
    assert out.verdict == "confirmed"
    assert out.detail == "N=derived-subgroup |N|=60 quotient acd=1/1"


def test_quotient_monotone_equality_boundary():
    # G' is trivial for an abelian group, so G/G' is G: its spectrum is G's
    # own, and equality of the averages is marked boundary
    facts = facts_of("cyclic:6")
    assert facts.quotient_spectrum is facts.spectrum
    out = check_quotient_monotonicity(facts, 2)
    assert out.verdict == "confirmed"
    assert out.detail == "N=derived-subgroup |N|=1 quotient acd=1/1"
    assert out.boundary


def test_quotient_monotone_checks_the_linear_count_against_the_index():
    # C_24's spectrum has 24 linear characters, but |sym:4 : A_4| = 2
    facts = with_spectrum("sym:4", facts_of("cyclic:24").spectrum)
    with pytest.raises(InvariantError, match=r"24 linear characters, but \|G:G'\| = 2"):
        check_quotient_monotonicity(facts, 2)


def with_spectrum(spec: str, spectrum: DegreeSpectrum) -> GroupFacts:
    """Facts of the group spec with one wrong fact: the given spectrum."""
    built = built_of(spec)
    return GroupFacts(spec, built.group, spectrum, split=built.split)


def abelian_spectrum(order: int) -> DegreeSpectrum:
    return DegreeSpectrum(((1, order),), order)


@pytest.mark.parametrize(
    "check, spec, spectrum, p",
    [
        (check_sylow_normality, "sym:3", abelian_spectrum(6), 2),
        (check_p_residual_solvable, "alt:5", abelian_spectrum(60), 2),
        (check_ito_michler, "cyclic:6", DegreeSpectrum(((1, 2), (2, 1)), 6), 2),
        (check_orbit_bound, "agl1:11", abelian_spectrum(110), 2),
        (check_orbit_bound, "agl1:11", abelian_spectrum(110), 5),
    ],
    ids=["sylow-normal", "p-residual-solvable", "ito-michler", "orbit-bound-2", "orbit-bound-5"],
)
def test_a_falsified_spectrum_gives_a_violation(check, spec, spectrum, p):
    """Each check can fail: given another group's spectrum of the same
    order, it reports the wrong fact as a VIOLATION."""
    assert check(with_spectrum(spec, spectrum), p).verdict == "VIOLATION"


def test_a_falsified_linear_count_is_an_error_row(monkeypatch):
    # C_60's spectrum has 60 linear characters, but alt:5 is perfect
    monkeypatch.setattr(verify, "spectrum_of", lambda built: abelian_spectrum(60))
    outcomes, _ = verify._group_checks(built_of("alt:5"), VerifyConfig())
    rows = [c for c in outcomes if c.check == "quotient-monotone"]
    assert [c.p for c in rows] == [2, 3, 5, 7]
    for c in rows:
        assert c.verdict == "error"
        assert c.error == "InvariantError: 60 linear characters, but |G:G'| = 1"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_monotone_at_g_prime_is_true_by_construction(p):
    """A wrong spectrum whose linear count agrees with |G:G'| is still
    confirmed: acd_p(G/G') = 1 <= acd_p(G) whatever the degrees of G, so
    these rows cannot fail and are no evidence for the paper's bound."""
    facts = with_spectrum("alt:5", DegreeSpectrum(((1, 1), (3, 1), (5, 2)), 60))
    assert facts.spectrum.pairs != facts_of("alt:5").spectrum.pairs
    out = check_quotient_monotonicity(facts, p)
    assert out.verdict == "confirmed"
    assert "quotient acd=1/1" in out.detail


def test_orbit_bound_agl1_11():
    facts = facts_of("agl1:11")
    sizes = dual_orbit_sizes(facts.split)
    assert sizes == [10]
    out = check_orbit_bound(facts, 5)
    assert out.verdict == "confirmed"
    assert out.acd == Fraction(20, 11)
    assert out.boundary  # 10 * 2 / 11 == acd exactly
    assert "f=1" in out.detail


def test_orbit_bound_frob_7_1_3():
    facts = facts_of("frob:7:1:3")
    sizes = dual_orbit_sizes(facts.split)
    assert sizes == [3, 3]
    out = check_orbit_bound(facts, 3)
    assert out.verdict == "confirmed"
    assert out.acd == Fraction(9, 5)
    assert out.boundary  # 3 * 3 / 5 == 9/5
    assert "f=2" in out.detail


def test_orbit_bound_trivial_complement():
    facts = facts_of("frob:5:1:1")  # kernel alone, no complement
    sizes = dual_orbit_sizes(facts.split)
    assert sizes == [1, 1, 1, 1]
    out = check_orbit_bound(facts, 5)
    assert out.verdict == "confirmed"


def test_orbit_bound_f0_is_vacuous():
    facts = facts_of("frob:3:1:2")  # sym:3; dual orbits have size 2
    assert dual_orbit_sizes(facts.split) == [2]
    out = check_orbit_bound(facts, 5)
    assert out.verdict == "vacuous"  # no orbit of size 1 or divisible by 5
    assert "f=0" in out.detail


def _inverse_transpose_orbit_sizes(data):
    """Dual orbit sizes straight from the definition: enumerate the group of
    inverse-transposed complement matrices, then the orbit of every vector."""
    r, m = data.r, data.m

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(m)) % r for j in range(m))
            for i in range(m)
        )

    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))

    def inverse(mat):
        power = mat  # mat^k = 1 for some k, and then mat^(k-1) is the inverse
        while matmul(power, mat) != identity:
            power = matmul(power, mat)
        return power

    duals = [tuple(zip(*inverse(mat))) for mat in data.complement_matrices]
    group = {identity}
    while True:
        grown = group | {matmul(h, d) for h in group for d in duals}
        if grown == group:
            break
        group = grown
    vectors = [v for v in itertools.product(range(r), repeat=m) if any(v)]
    orbits = {
        frozenset(
            tuple(sum(v[i] * h[i][j] for i in range(m)) % r for j in range(m)) for h in group
        )
        for v in vectors
    }
    return sorted(map(len, orbits))


@pytest.mark.parametrize("spec", ["agl1:8", "agl1:9", "frob:7:1:3", "frob:3:2:4", "frob:2:4:5"])
def test_dual_orbit_sizes_match_inverse_transpose_reference(spec):
    data = built_of(spec).split
    assert dual_orbit_sizes(data) == _inverse_transpose_orbit_sizes(data)


def test_split_kernel_is_the_derived_subgroup():
    # quotient-monotone uses N = G' only; a split kernel V different from G'
    # would be a second quotient candidate the sweep does not check
    split = [build(r) for r in iter_catalog(300)]
    split = [b for b in split if b.split is not None]
    assert split
    for built in split:
        G = built.group
        kernel = subgroup(G, built.split.kernel_gens).group
        derived = derived_subgroup(G).group
        assert kernel.order == derived.order, built.recipe.spec
        assert all(derived.contains(g) for g in kernel.generators), built.recipe.spec


def test_run_catalog_tiny():
    report = run_catalog(VerifyConfig(max_order=1))
    assert all(c.group == "cyclic:1" for c in report.checks)
    assert report.summary["violations"] == 0
    assert report.summary["errors"] == 0
    assert report.exit_code == 0
    # 4 primes x 3 theorem checks + 4 quotient rows for the trivial N
    assert len(report.checks) == 16


def test_run_catalog_small_sweep():
    report = run_catalog(VerifyConfig(max_order=60))
    s = report.summary
    assert s["violations"] == 0
    assert s["errors"] == 0
    assert s["confirmed"] + s["vacuous"] == len(report.checks)
    groups = {c.group for c in report.checks}
    for expected in ["sym:3", "sym:4", "alt:5", "psl2:5", "frob:7:1:3", "cyclic:60"]:
        assert expected in groups

    # sharpness rows carry the boundary mark
    boundary = {(c.group, c.check, c.p) for c in report.checks if c.boundary}
    assert ("sym:3", "sylow-normal", 2) in boundary
    assert ("alt:5", "p-residual-solvable", 2) in boundary
    assert ("alt:5", "p-residual-solvable", 3) in boundary
    assert ("psl2:5", "p-residual-solvable", 2) in boundary


def test_sweep_derives_each_fact_once(monkeypatch):
    calls = collections.defaultdict(collections.Counter)
    alive = []  # keeps the counted objects alive, so their ids stay distinct

    def count(name, key):
        original = getattr(verify, name)

        def counted(*args, **kwargs):
            alive.append(args[0])
            calls[name][key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)

    count("sylow", lambda G, p: (id(G), p))
    count("derived_subgroup", id)
    count("dual_orbit_sizes", id)
    count("acd_p", lambda spectrum, p: p)
    count("is_solvable", id)
    quotients = []
    quotient_group = subgroups.quotient_group

    def recording(G, N):
        quotients.append(G)
        return quotient_group(G, N)

    monkeypatch.setattr(subgroups, "quotient_group", recording)
    report = run_catalog(VerifyConfig(max_order=60))
    assert report.summary["errors"] == 0
    # G/G' is read from G's linear characters, never built on cosets
    assert quotients == []
    pairs = {(c.group, c.p) for c in report.checks}
    groups = {c.group for c in report.checks}
    split = {c.group for c in report.checks if c.check == "orbit-bound"}
    assert split
    for name, expected in [
        ("sylow", len(pairs)),
        ("derived_subgroup", len(groups)),
        ("dual_orbit_sizes", len(split)),
    ]:
        assert len(calls[name]) == expected, name
        assert set(calls[name].values()) == {1}, name
    assert sum(calls["acd_p"].values()) <= 2 * len(pairs)
    # one call for G' per nonabelian group; a p-residual is only tested
    # when G itself is not solvable
    catalog = {recipe.spec: build(recipe).group for recipe in iter_catalog(60)}
    nonabelian = [spec for spec, G in catalog.items() if not G.is_abelian()]
    nonsolvable = {spec for spec, G in catalog.items() if not is_solvable(G)}
    assert nonsolvable
    bound = len(nonabelian) + sum(1 for group, _ in pairs if group in nonsolvable)
    assert sum(calls["is_solvable"].values()) <= bound


def test_acd_p_is_computed_once_per_pair_and_once_per_quotient(monkeypatch):
    """One acd_p call per (group, p) pair of the order-150 sweep, and one
    more per pair whose G' is nontrivial, for the spectrum of G/G'; with
    G' trivial the quotient's acd_p is G's own, read from the memo."""
    calls = []
    acd_p = verify.acd_p

    def counted(spectrum, p):
        calls.append(p)
        return acd_p(spectrum, p)

    monkeypatch.setattr(verify, "acd_p", counted)
    report = run_catalog(VerifyConfig(max_order=150))
    assert report.summary["errors"] == 0
    pairs = {(c.group, c.p) for c in report.checks}
    nonabelian = {r.spec for r in iter_catalog(150) if not build(r).group.is_abelian()}
    expected = len(pairs) + sum(1 for group, _ in pairs if group in nonabelian)
    assert len(calls) == expected == 3259


def test_normal_closures_are_built_for_no_normal_sylow(monkeypatch):
    """The p-residual of a normal Sylow p-subgroup is that Sylow, read from
    the sylow-normal row's answer: no normal closure of its generators is
    built, while a non-normal Sylow gets its closure."""
    closed = []
    normal_closure = subgroups.normal_closure

    def recording(G, gens):
        gens = list(gens)
        closed.append([tuple(g) for g in gens])
        return normal_closure(G, gens)

    # the sweep builds a p-residual's closure itself, and G' through subgroups
    for module in (subgroups, verify):
        monkeypatch.setattr(module, "normal_closure", recording)
    for spec, normal_primes, other_primes in [("dihedral:15", [3, 5], [2]), ("frob:7:1:3", [7], [3])]:
        built = built_of(spec)
        closed.clear()
        verify._group_checks(built, VerifyConfig())
        for p in normal_primes + other_primes:
            P = sylow(built.group, p)
            assert is_normal(built.group, P) == (p in normal_primes)
            assert (list(P.group.generators) in closed) == (p in other_primes), (spec, p)


def test_a_sylow_found_not_normal_is_not_tested_again(monkeypatch):
    """The p-residual of a Sylow that the sylow-normal row found not normal
    is built as its normal closure with no second normality test, and G/G'
    is read from G's linear characters with no normality test at all: the
    order-150 sweep makes 2,516 is_normal calls, where repeating the test
    for each such Sylow made 3,422, and testing G' twice for its quotient
    made 3,247."""
    calls = []
    is_normal = subgroups.is_normal

    def counted(G, H):
        calls.append(H)
        return is_normal(G, H)

    for module in (subgroups, verify):
        monkeypatch.setattr(module, "is_normal", counted)
    report = run_catalog(VerifyConfig(max_order=150))
    assert report.summary["errors"] == 0
    assert len(calls) == 2516


def test_report_json_shape_and_determinism():
    cfg = VerifyConfig(max_order=30, lie=True)
    r1 = run_catalog(cfg)
    r2 = run_catalog(cfg)
    j1, j2 = r1.to_json(), r2.to_json()
    assert j1 == j2  # byte identical without timings

    payload = json.loads(j1)
    assert set(payload) == {"version", "config", "checks", "summary"}
    assert payload["config"]["max_order"] == 30
    assert payload["config"]["class_cap"] == 150
    for row in payload["checks"]:
        assert {"check", "group", "order", "p", "acd", "threshold",
                "hypothesis_met", "conclusion_holds", "verdict", "boundary"} <= set(row)
        assert row["verdict"] in {"confirmed", "vacuous", "VIOLATION", "error"}
    assert payload["summary"]["violations"] == 0

    lie_rows = [r for r in payload["checks"] if r["check"] == "lie-coverage"]
    assert len(lie_rows) == 96
    assert all(r["conclusion_holds"] for r in lie_rows)


def test_report_timings_flag():
    cfg = VerifyConfig(max_order=12, timings=True)
    report = run_catalog(cfg)
    payload = json.loads(report.to_json())
    assert "total_seconds" in payload
    assert all("elapsed_ms" not in row for row in payload["checks"])

    quiet = json.loads(run_catalog(VerifyConfig(max_order=12)).to_json())
    assert "total_seconds" not in quiet
    assert all("elapsed_ms" not in row for row in quiet["checks"])


def test_normalizer_table():
    cfg = VerifyConfig(max_order=24, tabulate_normalizers=True)
    report = run_catalog(cfg)
    payload = json.loads(report.to_json())
    assert "normalizer_table" in payload
    rows = payload["normalizer_table"]
    assert rows, "expected at least one normalizer row"
    s4_rows = {r["p"]: r for r in rows if r["group"] == "sym:4"}
    assert s4_rows[2]["normalizer_index"] == 3
    assert s4_rows[3]["normalizer_index"] == 4


def test_exit_codes():
    report = VerificationReport(config=VerifyConfig())
    assert report.exit_code == 0
    from chardeg.verify import CheckOutcome

    bad = CheckOutcome(
        check="sylow-normal", group="g", order=6, p=2, acd=Fraction(1),
        threshold=Fraction(4, 3), hypothesis_met=True, conclusion_holds=False,
    )
    assert bad.verdict == "VIOLATION"
    report.checks.append(bad)
    assert report.exit_code == 1

    err = CheckOutcome(
        check="spectrum", group="g", order=6, p=None, acd=None, threshold=None,
        hypothesis_met=False, conclusion_holds=False, error="RuntimeError: boom",
    )
    assert err.verdict == "error"
    report_err = VerificationReport(config=VerifyConfig())
    report_err.checks.append(err)
    assert report_err.exit_code == 2
