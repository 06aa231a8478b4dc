"""The command-line surface: outputs, formats, exit codes, round-trips."""

import csv
import io
import json
import subprocess
import sys

import pytest

from ramanujan_popuc.cli import main
from ramanujan_popuc.opuc_core import PopucSystem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- sums ----------------------------------------------------------------------


def test_sums_table(capsys):
    code, out, _ = run_cli(capsys, "sums", "--m", "5", "--n-max", "4")
    assert code == 0 and out.strip() == "4 -1 -1 -1 -1"
    code, out, _ = run_cli(capsys, "sums", "--m", "1", "--n-max", "2")
    assert code == 0 and out.strip() == "1 1 1"
    code, out, _ = run_cli(capsys, "sums", "--m", "6", "--n-max", "6")
    assert code == 0 and out.strip() == "2 1 -1 -2 -1 1 2"


def test_sums_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "sums", "--m", "10", "--n-max", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"modulus": 10, "values": [4, 1, -1, 1, -1, -4]}

    code, out, _ = run_cli(capsys, "sums", "--m", "6", "--n-max", "3", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["2", "1", "-1", "-2"]


def test_sums_usage_errors(capsys):
    assert run_cli(capsys, "sums", "--m", "0", "--n-max", "3")[0] == 2
    assert run_cli(capsys, "sums", "--m", "4", "--n-max", "-1")[0] == 2
    with pytest.raises(SystemExit) as e:
        main(["sums", "--m", "not-a-number", "--n-max", "1"])
    assert e.value.code == 2


# -- popuc ---------------------------------------------------------------------


def test_popuc_ramanujan_m5(capsys):
    code, out, _ = run_cli(capsys, "popuc", "--m", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verblunsky"] == ["-1/4", "-1/3", "-1/2", "-1"]
    # the full README payload: h and delta derive from verblunsky
    assert payload["phis"] == [
        ["1"],
        ["1/4", "1"],
        ["1/3", "1/3", "1"],
        ["1/2", "1/2", "1/2", "1"],
        ["1", "1", "1", "1", "1"],
    ]
    assert payload["h"] == ["1", "15/16", "5/6", "5/8"]
    assert payload["delta"] == ["1", "15/16", "25/32", "125/256"]
    assert payload["moments"] == ["1", "-1/4", "-1/4", "-1/4", "-1/4"]
    clone = PopucSystem.from_json_dict(payload)  # JSON round-trips
    assert clone.to_json_dict() == payload


def test_popuc_sturmian_kronecker(capsys):
    code, out, _ = run_cli(
        capsys, "popuc", "--kronecker", "1,2,3", "--family", "sturmian", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verblunsky"] == ["-2/3", "-1/5", "1/4", "1"]


def test_popuc_paranoid(capsys):
    code, _, _ = run_cli(capsys, "popuc", "--m", "7", "--paranoid")
    assert code == 0
    code, _, _ = run_cli(
        capsys, "popuc", "--kronecker", "1,2,5", "--family", "sturmian", "--paranoid"
    )
    assert code == 0


def test_popuc_csv_has_coefficient_rows(capsys):
    code, out, _ = run_cli(capsys, "popuc", "--m", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    phi_rows = [r for r in rows if r["series"] == "phi"]
    # sum over n of (n+1) coefficients for Phi_0..Phi_4
    assert len(phi_rows) == sum(n + 1 for n in range(5))
    assert {"series", "n", "k", "value"} <= set(rows[0].keys())


def test_popuc_usage_errors(capsys):
    assert run_cli(capsys, "popuc", "--kronecker", "2,2")[0] == 2
    assert run_cli(capsys, "popuc", "--m", "5", "--kronecker", "1,2")[0] == 2
    assert run_cli(capsys, "popuc")[0] == 2
    assert run_cli(capsys, "popuc", "--m", "0")[0] == 2
    assert run_cli(capsys, "popuc", "--kronecker", "1,x")[0] == 2


# -- dual ----------------------------------------------------------------------


def test_dual_m5(capsys):
    code, out, _ = run_cli(capsys, "dual", "--m", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(payload["checks"].values())
    assert payload["weights"]["passed"] is True
    assert payload["ramanujan"]["verblunsky"] == ["-1/4", "-1/3", "-1/2", "-1"]
    assert payload["sturmian"]["verblunsky"] == ["-1/2", "-1/3", "-1/4", "-1"]


def test_dual_self_dual_pair(capsys):
    code, out, _ = run_cli(capsys, "dual", "--kronecker", "1,2")
    assert code == 0 and "ok" in out


def test_dual_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "dual", "--kronecker", "1,2,5", "--format", "json")
    assert code == 0
    from ramanujan_popuc.closed_forms import cf_ramanujan_anti2p

    payload = json.loads(out)
    cf = cf_ramanujan_anti2p(5)
    assert payload["ramanujan"]["verblunsky"] == cf.verblunsky.to_json_list()


def test_dual_impossible_tolerance_is_check_failure(capsys):
    code, _, err = run_cli(capsys, "dual", "--m", "5", "--precision", "0")
    assert code == 1 and "check failed" in err


def test_dual_high_precision_digits(capsys):
    code, out, _ = run_cli(
        capsys, "dual", "--m", "7", "--digits", "40", "--precision", "1e-30", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["weights"]["max_residual"] < 1e-30


# -- verify ----------------------------------------------------------------------


def test_verify_trivial_and_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-m", "1")
    assert code == 0 and "1/1 verified" in out

    code, out, _ = run_cli(capsys, "verify", "--max-m", "30", "--families", "prime")
    assert code == 0
    assert "FAIL" not in out and out.count("PASS") == 9


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-m", "8", "--families", "all")
    assert code == 0 and "FAIL" not in out


def test_verify_usage(capsys):
    assert run_cli(capsys, "verify", "--max-m", "0")[0] == 2


# -- explore ----------------------------------------------------------------------


def test_explore_15(capsys):
    code, out, _ = run_cli(capsys, "explore", "--p", "3", "--q", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 15 and len(payload["verblunsky"]) == 8
    assert payload["verblunsky"][-1] == "-1"
    assert "no closed form" in payload["note"]


def test_explore_usage_errors(capsys):
    assert run_cli(capsys, "explore", "--p", "3", "--q", "3")[0] == 2
    assert run_cli(capsys, "explore", "--p", "4", "--q", "5")[0] == 2


def test_explore_5_7_has_24_coefficients(capsys):
    code, out, _ = run_cli(capsys, "explore", "--p", "5", "--q", "7", "--format", "json")
    assert code == 0 and len(json.loads(out)["verblunsky"]) == 24


# -- environment default format ----------------------------------------------------


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("RAMANUJAN_POPUC_FORMAT", "json")
    code, out, _ = run_cli(capsys, "sums", "--m", "5", "--n-max", "1")
    assert code == 0
    assert json.loads(out)["values"] == [4, -1]
    monkeypatch.delenv("RAMANUJAN_POPUC_FORMAT")
    code, out, _ = run_cli(capsys, "sums", "--m", "5", "--n-max", "1")
    assert code == 0 and out.strip() == "4 -1"  # unset means table


def test_format_env_invalid_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RAMANUJAN_POPUC_FORMAT", "bogus")
    with pytest.raises(SystemExit) as e:
        main(["sums", "--m", "5", "--n-max", "1"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RAMANUJAN_POPUC_FORMAT='bogus'" in captured.err
    assert "table, json, csv" in captured.err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ramanujan_popuc.cli", "sums", "--m", "5", "--n-max", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "4 -1 -1 -1 -1"
