"""Checks on the source tree and on the benchmark's recorded answers."""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from chardeg.dixon import dixon_degrees
from chardeg.groups import conjugacy_classes

from support import group_of

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "chardeg").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_has_no_assert_statements(path):
    # python -O drops assert statements; checks must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_solver_wide_spectra_match_the_benchmark_reference():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["solver-wide"]
    assert len(reference) == 6
    for spec, multiset in reference.items():
        degrees = dixon_degrees(conjugacy_classes(group_of(spec))).degrees
        assert sorted(map(list, Counter(degrees).items())) == multiset, spec
