"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chardeg import cli
from chardeg.cli import main
from chardeg.numbers import FactorizationError, InvariantError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "sym:4")
    assert code == 0
    assert "group: sym:4" in out
    assert "order: 24" in out
    assert "degrees: 1^2 2 3^2" in out
    assert "count: 5" in out


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "alt:5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"group": "alt:5", "order": 60, "degrees": [1, 3, 3, 4, 5]}


def test_table_product_spec(capsys):
    code, out, _ = run_cli(capsys, "table", "sym:3xcyclic:2", "--json")
    assert code == 0
    assert json.loads(out)["degrees"] == [1, 1, 1, 1, 2, 2]


def test_table_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "table", "sporadic:1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "sym:9"], "exceeds cap"),
        (["table", "dihedral:400"], "203 classes exceed the solver cap"),
        (["acd", "sym:4", "-p", "0"], "p = 0 is not a prime"),
        (["acd", "sym:4", "-p", "4"], "p = 4 is not a prime"),
        (["ell", "-p", "4"], "p = 4 is not a prime"),
        (["ell", "-p", "1"], "p = 1 is not a prime"),
        (["ell", "-p", "-3"], "p = -3 is not a prime"),
        (["verify", "--max-order", "-5"], "max_order = -5 is negative"),
        # refused when the spec is parsed, before 10^8 points are listed
        (["table", "cyclic:100000000"], "degree 100000000 exceeds the 4096-point cap"),
        (["table", "dihedral:100000000"], "degree 100000000 exceeds the 4096-point cap"),
        # r^m is not formed, so no 4,772-digit degree is printed
        (["table", "frob:3:10000:2"], "degree 3^10000 exceeds the 4096-point cap"),
        (["table", "agl1:4099"], "degree 4099 exceeds the 4096-point cap"),
        # past the 4300 digits Python converts, refused all the same
        (["table", "cyclic:" + "9" * 5000], "degree 99999999... (5000 digits) exceeds the 4096"),
        (["table", "frob:3:" + "1" * 5000 + ":2"], "(5000 digits) exceeds the 4096-point cap"),
        # leading zeros do not count toward a numeral's length
        (["table", "cyclic:" + "0" * 5000 + "4097"], "degree 4097 exceeds the 4096-point cap"),
    ],
)
def test_library_errors_are_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_leading_zeros_do_not_lengthen_a_numeral(capsys):
    code, out, _ = run_cli(capsys, "table", "cyclic:" + "0" * 5000 + "5", "--json")
    assert code == 0
    assert json.loads(out)["degrees"] == [1] * 5


@pytest.mark.parametrize(
    "exc", [InvariantError("lift out of range"), FactorizationError("stuck"), RuntimeError("no progress")]
)
def test_every_library_error_exits_2(capsys, monkeypatch, exc):
    def fail(built):
        raise exc

    monkeypatch.setattr(cli, "spectrum_of", fail)
    code, out, err = run_cli(capsys, "table", "sym:4")
    assert (code, out, err) == (2, "", f"error: {exc}\n")


@pytest.mark.parametrize(
    "argv, order",
    [
        (["table", "psl2:59"], "102660"),
        (["acd", "agl1:4096", "-p", "2"], "16773120"),
        (["table", "frob:2:12:4095"], "16773120"),
        (["table", "sym:3xpsl2:61"], "113460"),
        # 4096! has 13,020 digits, past the 4300 Python converts
        (["table", "sym:4096"], "36427363... (13020 digits)"),
        (["acd", "sym:4096", "-p", "2"], "36427363... (13020 digits)"),
    ],
)
def test_an_atom_above_the_enumeration_cap_is_refused_before_it_is_built(
    capsys, monkeypatch, argv, order
):
    def fail(recipe):
        raise AssertionError(f"{recipe.spec} was built")

    monkeypatch.setattr(cli, "build", fail)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: group of order {order} exceeds cap 100000\n")


def test_a_product_above_the_enumeration_cap_of_atoms_below_it_is_solved(capsys):
    # the spectrum is the product of its factors' spectra, each within the cap
    code, out, _ = run_cli(capsys, "table", "alt:7xcyclic:100")
    assert code == 0
    assert "order: 252000" in out
    assert "degrees: 1^100 6^100 10^200 14^200 15^100 21^100 35^100" in out


def test_acd_text(capsys):
    code, out, _ = run_cli(capsys, "acd", "alt:5", "-p", "2")
    assert code == 0
    assert "acd_2 = 5/2" in out
    assert "b_2 = 4/3 (below: False)" in out
    assert "a_2 = 5/2 (below: False)" in out


def test_acd_json(capsys):
    code, out, _ = run_cli(capsys, "acd", "agl1:11", "-p", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["acd"] == "20/11"
    assert payload["b_p"] == "20/11"
    assert payload["below_b"] is False
    assert payload["degrees"] == [1] * 10 + [10]


def test_ell(capsys):
    code, out, _ = run_cli(capsys, "ell", "-p", "17")
    assert code == 0
    assert "ell(17) = 6" in out
    assert "b_17 = 204/103" in out
    assert "a_17 = 9/1" in out


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "24")
    assert code == 0
    assert "violations: 0" in out
    assert "errors: 0" in out
    assert "VIOLATION" not in out


def test_verify_max_order_zero_runs_only_lie_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "0", "--lie")
    assert code == 0
    assert "checks: 96  confirmed: 96" in out
    # Lie coverage rows carry no acd_p, so none of them is informative
    assert out.rstrip().endswith("errors: 0  informative: 0")


def test_verify_json_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--max-order", "12", "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["summary"]["violations"] == 0
    assert payload["config"]["max_order"] == 12


def test_verify_json_to_an_unwritable_path_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def refuse(config):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "run_catalog", refuse)
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--max-order", "5", "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1


def test_verify_timings_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "8", "--timings")
    assert code == 0
    assert "elapsed:" in out


def test_lie_single(capsys):
    code, out, _ = run_cli(capsys, "lie", "--family", "psl", "--q", "7", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "psl:2:7"
    assert payload["order"] == 168
    assert payload["complete"] is True
    assert payload["missing"] == []
    labels = {w["label"]: w["degree"] for w in payload["witnesses"]}
    assert labels["steinberg"] == 7


def test_lie_fixed_family(capsys):
    code, out, _ = run_cli(capsys, "lie", "--family", "g2", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4245696
    assert "q-factor-included-in-phi_1_2-witness" in payload["flags"]


def test_lie_unsupported_case(capsys):
    code, _, err = run_cli(capsys, "lie", "--family", "sp4", "--q", "2")
    assert code == 2
    assert "error:" in err


def test_lie_requires_arguments(capsys):
    code, _, err = run_cli(capsys, "lie")
    assert code == 2


def test_lie_all(capsys):
    code, out, _ = run_cli(capsys, "lie", "--all")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 96
    assert all("complete" in l for l in lines)
    assert "MISSING" not in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "chardeg" in out


def run_module(*argv):
    # how a source checkout runs the CLI without installing: PYTHONPATH=src python -m chardeg
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cmd = [sys.executable, "-m", "chardeg", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_runs_the_cli():
    done = run_module("table", "sym:4")
    assert done.returncode == 0
    assert "degrees: 1^2 2 3^2" in done.stdout


def test_python_dash_m_reports_errors_on_one_line():
    done = run_module("table", "nope")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
