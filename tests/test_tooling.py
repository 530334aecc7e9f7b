"""Checks on the source tree and on the benchmark's recorded answers."""

import ast
import hashlib
import importlib
import json
import re
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from chardeg.constructions import _KINDS, spectrum_of
from chardeg.dixon import degree_spectrum, dixon_degrees
from chardeg.groups import MAX_POINTS, conjugacy_classes
from chardeg.numbers import prime_divisors
from chardeg.subgroups import (
    derived_subgroup,
    is_normal,
    is_solvable,
    p_residual,
    quotient_group,
    sylow,
)
from chardeg.verify import VerifyConfig, run_catalog

from support import built_of, group_of

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "chardeg").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_has_no_assert_statements(path):
    # python -O drops assert statements; checks must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ re-exports
MODULES += sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The module-level names with one leading underscore that the module
    defines, by line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        out.update((name, node.lineno) for name in targets if re.match(r"_[^_]", name))
    return out


def references(tree: ast.AST) -> Counter:
    """How often each name is read, named as an attribute or imported
    within tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@cache
def package_references() -> Counter:
    """Every name the package reads, every attribute it names and every
    name it imports, chardeg/__init__.py's exports included, with counts."""
    return sum((references(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES), Counter())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_uses_every_private_name_it_defines(path):
    defined = private_definitions(ast.parse(path.read_text(), filename=str(path)))
    used = package_references()
    unused = {name: line for name, line in defined.items() if name not in used}
    assert unused == {}, f"{path.name} defines private names nothing uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_function_and_class_is_used_or_exported(path):
    # a definition named only inside its own body is dead, even when it
    # calls itself
    used = package_references()
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and used[node.name] == references(node)[node.name]
    }
    assert dead == {}, f"{path.name} defines what nothing else in the package uses: {dead}"


def test_readme_recipe_table_lists_every_kind():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Group recipes", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    recipes = [code for row in rows for code in re.findall(r"`([^`]+)`", row.split("|")[1])]
    atoms = [code for code in recipes if not re.search(r"\dx[a-z]", code)]  # not products
    assert sorted({code.split(":")[0] for code in atoms}) == sorted(_KINDS)
    (psl2_row,) = [row for row in rows if row.startswith("| `psl2:")]
    assert f"q + 1 ≤ {MAX_POINTS} points" in psl2_row


def benchmark_reference(workload: str):
    return json.loads((ROOT / "perfbench" / "reference.json").read_text())[workload]


def multiset(degrees) -> list[list[int]]:
    return sorted(map(list, Counter(degrees).items()))


def test_solver_wide_spectra_match_the_benchmark_reference():
    reference = benchmark_reference("solver-wide")
    assert len(reference) == 6
    for spec, expected in reference.items():
        degrees = dixon_degrees(conjugacy_classes(group_of(spec))).degrees
        assert multiset(degrees) == expected, spec



def test_structure_large_spectra_match_the_benchmark_reference():
    reference = benchmark_reference("structure-large")
    assert len(reference) == 6
    for spec, expected in reference.items():
        degrees = dixon_degrees(conjugacy_classes(group_of(spec))).degrees
        assert multiset(degrees) == expected["degrees"], spec

def test_catalog_rows_match_the_benchmark_reference():
    report = run_catalog(VerifyConfig(max_order=150, lie=True))
    rows = json.dumps([c.to_dict() for c in report.checks], separators=(",", ":"))
    digest = hashlib.sha256(rows.encode()).hexdigest()
    assert digest == benchmark_reference("catalog-150")["rows_sha256"]
    informative = sum(c.informative for c in report.checks)
    assert informative == benchmark_reference("catalog-150")["counts"]["informative_rows"]


# sha256 of whole JSON reports beyond the benchmark's order 150.  A change
# that moves the report on purpose re-records these with the benchmark's
# reference.
@pytest.mark.parametrize(
    "config, digest",
    [
        (
            VerifyConfig(max_order=300),
            "95c622b917e651b44764b32cabe0dbd082d93781cf8402764489f7e7003f211f",
        ),
        (
            VerifyConfig(max_order=150, tabulate_normalizers=True),
            "7f66fc0b7ac0c1432344e807c263600871e8770e6b66a67433ca5ce3d73eea6b",
        ),
    ],
    ids=["order-300", "order-150-normalizers"],
)
def test_report_is_byte_identical(config, digest):
    report = run_catalog(config).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_structure_facts_match_the_benchmark_reference():
    reference = benchmark_reference("structure-large")
    assert len(reference) == 6
    for spec, expected in reference.items():
        built = built_of(spec)
        G = built.group
        facts = {"degrees": multiset(spectrum_of(built).degrees), "primes": {}}
        for p in prime_divisors(G.order):
            P = sylow(G, p)
            residual = p_residual(G, p, sylow_handle=P)
            facts["primes"][str(p)] = {
                "residual_order": residual.group.order,
                "residual_solvable": is_solvable(residual.group),
                "sylow_normal": is_normal(G, P),
                "sylow_order": P.group.order,
            }
        derived = derived_subgroup(G)
        facts["derived_order"] = derived.group.order
        if derived.group.order < G.order:
            Q = quotient_group(G, derived)
            facts["quotient_degrees"] = multiset(degree_spectrum(Q).degrees)
        assert facts == expected, spec


def test_every_traced_span_target_resolves_in_the_package():
    # perfbench/spans.py wraps these names from outside; a renamed function
    # would only surface as a crash in the benchmark run
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(module)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        target = vars(owner).get(name)
        assert callable(target), f"{module}.{attr} does not resolve"
