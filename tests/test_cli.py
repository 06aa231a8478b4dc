"""The command-line surface: outputs, formats, exit codes, round-trips."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ramanujan_popuc import cli, opuc_core
from ramanujan_popuc.cli import main
from ramanujan_popuc.errors import InteriorCoefficientOutOfRangeError, InternalInconsistencyError
from ramanujan_popuc.opuc_core import PopucSystem
from ramanujan_popuc.polynomials import parse_rational


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


def test_popuc_payload_with_an_interior_coefficient_out_of_range_does_not_load(capsys):
    payload = json.loads(run_cli(capsys, "popuc", "--m", "5", "--format", "json")[1])
    payload["verblunsky"][0] = "3/2"
    message = "|a_0| = 3/2 >= 1 below the terminal index"
    with pytest.raises(InteriorCoefficientOutOfRangeError, match=f"^{re.escape(message)}$"):
        PopucSystem.from_json_dict(payload)


def test_loading_a_popuc_payload_reuses_the_builders_check(capsys, monkeypatch):
    """The loader proves the rungs and moments by ``_verify_annihilation``,
    once, and steps no recurrence and recovers no moment on its own."""
    payload = json.loads(run_cli(capsys, "popuc", "--m", "7", "--format", "json")[1])
    calls = []
    verify = opuc_core._verify_annihilation

    def forbidden(*args):
        raise AssertionError("the loader re-ran the recurrence")

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(opuc_core, "szego_step", forbidden)
    monkeypatch.setattr(opuc_core, "moments_from_ladder", forbidden)
    monkeypatch.setattr(opuc_core, "_verify_annihilation", counting)
    clone = PopucSystem.from_json_dict(payload)
    assert len(calls) == 1 and clone.to_json_dict() == payload


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


def test_verify_prints_a_fail_line_for_each_route_that_disagrees(capsys, monkeypatch):
    power_sums, prime = cli.moments_from_power_sums, cli.cf_ramanujan_prime
    monkeypatch.setattr(cli, "moments_from_power_sums", lambda c, n: power_sums(c, n + 1))
    detail = "power-sum moments disagree with Ramanujan-sum moments"
    assert run_cli(capsys, "verify", "--max-m", "5", "--families", "prime") == (1, (
        f"FAIL  {'prime M=3':<28} {detail}\n"
        f"FAIL  {'prime M=5':<28} {detail}\n"
        "0/2 verified\n"
    ), "")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "cf_ramanujan_prime", lambda p: prime(3))
    assert run_cli(capsys, "verify", "--max-m", "5", "--families", "prime") == (1, (
        "PASS  prime M=3\n"
        f"FAIL  {'prime M=5':<28} closed form disagrees with engine\n"
        "1/2 verified\n"
    ), "")


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


def test_importing_the_package_and_cli_loads_no_optional_dependency():
    """mpmath loads only when a `--digits` check runs, and sympy and
    hypothesis are test oracles: importing the package and its CLI in a
    fresh interpreter loads none of them, so none adds to start-up time."""
    code = (
        "import sys, ramanujan_popuc, ramanujan_popuc.cli; "
        "print(sorted({'mpmath', 'sympy', 'hypothesis'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# -- the one output path: every byte, each format ------------------------------

# stdout of each command, byte for byte (csv rows end in \r\n, as the csv
# module writes them).
GOLDEN = {
    "sums --m 6 --n-max 6": (
        "2 1 -1 -2 -1 1 2\n"
    ),
    "sums --m 6 --n-max 6 --format json": (
        '{"modulus": 6, "values": [2, 1, -1, -2, -1, 1, 2]}\n'
    ),
    "sums --m 6 --n-max 6 --format csv": (
        "n,value\r\n"
        "0,2\r\n"
        "1,1\r\n"
        "2,-1\r\n"
        "3,-2\r\n"
        "4,-1\r\n"
        "5,1\r\n"
        "6,2\r\n"
    ),
    "popuc --m 7": (
        "family     : ramanujan:7\n"
        "N          : 5\n"
        "verblunsky : -1/6  -1/5  -1/4  -1/3  -1/2  -1\n"
        "h          : 1  35/36  14/15  7/8  7/9  7/12\n"
        "delta      : 1  35/36  49/54  343/432  2401/3888  16807/46656\n"
        "moments    : 1  -1/6  -1/6  -1/6  -1/6  -1/6  -1/6\n"
        "Phi_0      : 1\n"
        "Phi_1      : z + 1/6\n"
        "Phi_2      : z^2 + 1/5*z + 1/5\n"
        "Phi_3      : z^3 + 1/4*z^2 + 1/4*z + 1/4\n"
        "Phi_4      : z^4 + 1/3*z^3 + 1/3*z^2 + 1/3*z + 1/3\n"
        "Phi_5      : z^5 + 1/2*z^4 + 1/2*z^3 + 1/2*z^2 + 1/2*z + 1/2\n"
        "Phi_6      : z^6 + z^5 + z^4 + z^3 + z^2 + z + 1\n"
    ),
    "popuc --m 7 --format json": (
        '{"family": "ramanujan:7", "N": 5, "verblunsky": ["-1/6", "-1/5", "-1/4", "-1/3", '
        '"-1/2", "-1"], "phis": [["1"], ["1/6", "1"], ["1/5", "1/5", "1"], ["1/4", "1/4", '
        '"1/4", "1"], ["1/3", "1/3", "1/3", "1/3", "1"], ["1/2", "1/2", "1/2", "1/2", "1/2", '
        '"1"], ["1", "1", "1", "1", "1", "1", "1"]], "h": ["1", "35/36", "14/15", "7/8", '
        '"7/9", "7/12"], "delta": ["1", "35/36", "49/54", "343/432", "2401/3888", '
        '"16807/46656"], "moments": ["1", "-1/6", "-1/6", "-1/6", "-1/6", "-1/6", '
        '"-1/6"]}\n'
    ),
    "popuc --m 7 --format csv": (
        "series,n,k,value\r\n"
        "phi,0,0,1\r\n"
        "phi,1,0,1/6\r\n"
        "phi,1,1,1\r\n"
        "phi,2,0,1/5\r\n"
        "phi,2,1,1/5\r\n"
        "phi,2,2,1\r\n"
        "phi,3,0,1/4\r\n"
        "phi,3,1,1/4\r\n"
        "phi,3,2,1/4\r\n"
        "phi,3,3,1\r\n"
        "phi,4,0,1/3\r\n"
        "phi,4,1,1/3\r\n"
        "phi,4,2,1/3\r\n"
        "phi,4,3,1/3\r\n"
        "phi,4,4,1\r\n"
        "phi,5,0,1/2\r\n"
        "phi,5,1,1/2\r\n"
        "phi,5,2,1/2\r\n"
        "phi,5,3,1/2\r\n"
        "phi,5,4,1/2\r\n"
        "phi,5,5,1\r\n"
        "phi,6,0,1\r\n"
        "phi,6,1,1\r\n"
        "phi,6,2,1\r\n"
        "phi,6,3,1\r\n"
        "phi,6,4,1\r\n"
        "phi,6,5,1\r\n"
        "phi,6,6,1\r\n"
        "verblunsky,0,,-1/6\r\n"
        "verblunsky,1,,-1/5\r\n"
        "verblunsky,2,,-1/4\r\n"
        "verblunsky,3,,-1/3\r\n"
        "verblunsky,4,,-1/2\r\n"
        "verblunsky,5,,-1\r\n"
        "h,0,,1\r\n"
        "h,1,,35/36\r\n"
        "h,2,,14/15\r\n"
        "h,3,,7/8\r\n"
        "h,4,,7/9\r\n"
        "h,5,,7/12\r\n"
        "delta,0,,1\r\n"
        "delta,1,,35/36\r\n"
        "delta,2,,49/54\r\n"
        "delta,3,,343/432\r\n"
        "delta,4,,2401/3888\r\n"
        "delta,5,,16807/46656\r\n"
        "moment,0,,1\r\n"
        "moment,1,,-1/6\r\n"
        "moment,2,,-1/6\r\n"
        "moment,3,,-1/6\r\n"
        "moment,4,,-1/6\r\n"
        "moment,5,,-1/6\r\n"
        "moment,6,,-1/6\r\n"
    ),
    "popuc --kronecker 1,2,5 --family sturmian": (
        "family     : sturmian:1,2,5\n"
        "N          : 5\n"
        "verblunsky : -4/5  -1/9  1/8  -1/7  1/6  1\n"
        "h          : 1  9/25  16/45  7/20  12/35  1/3\n"
        "delta      : 1  9/25  16/125  28/625  48/3125  16/3125\n"
        "moments    : 1  -4/5  3/5  -2/5  1/5  0  1/5\n"
        "Phi_0      : 1\n"
        "Phi_1      : z + 4/5\n"
        "Phi_2      : z^2 + 8/9*z + 1/9\n"
        "Phi_3      : z^3 + 7/8*z^2 - 1/8\n"
        "Phi_4      : z^4 + 6/7*z^3 + 1/7\n"
        "Phi_5      : z^5 + 5/6*z^4 - 1/6\n"
        "Phi_6      : z^6 + z^5 - z - 1\n"
    ),
    "popuc --kronecker 1,2,5 --family sturmian --format json": (
        '{"family": "sturmian:1,2,5", "N": 5, "verblunsky": ["-4/5", "-1/9", "1/8", "-1/7", '
        '"1/6", "1"], "phis": [["1"], ["4/5", "1"], ["1/9", "8/9", "1"], ["-1/8", "0", '
        '"7/8", "1"], ["1/7", "0", "0", "6/7", "1"], ["-1/6", "0", "0", "0", "5/6", "1"], '
        '["-1", "-1", "0", "0", "0", "1", "1"]], "h": ["1", "9/25", "16/45", "7/20", '
        '"12/35", "1/3"], "delta": ["1", "9/25", "16/125", "28/625", "48/3125", "16/3125"], '
        '"moments": ["1", "-4/5", "3/5", "-2/5", "1/5", "0", "1/5"]}\n'
    ),
    "popuc --kronecker 1,2,5 --family sturmian --format csv": (
        "series,n,k,value\r\n"
        "phi,0,0,1\r\n"
        "phi,1,0,4/5\r\n"
        "phi,1,1,1\r\n"
        "phi,2,0,1/9\r\n"
        "phi,2,1,8/9\r\n"
        "phi,2,2,1\r\n"
        "phi,3,0,-1/8\r\n"
        "phi,3,1,0\r\n"
        "phi,3,2,7/8\r\n"
        "phi,3,3,1\r\n"
        "phi,4,0,1/7\r\n"
        "phi,4,1,0\r\n"
        "phi,4,2,0\r\n"
        "phi,4,3,6/7\r\n"
        "phi,4,4,1\r\n"
        "phi,5,0,-1/6\r\n"
        "phi,5,1,0\r\n"
        "phi,5,2,0\r\n"
        "phi,5,3,0\r\n"
        "phi,5,4,5/6\r\n"
        "phi,5,5,1\r\n"
        "phi,6,0,-1\r\n"
        "phi,6,1,-1\r\n"
        "phi,6,2,0\r\n"
        "phi,6,3,0\r\n"
        "phi,6,4,0\r\n"
        "phi,6,5,1\r\n"
        "phi,6,6,1\r\n"
        "verblunsky,0,,-4/5\r\n"
        "verblunsky,1,,-1/9\r\n"
        "verblunsky,2,,1/8\r\n"
        "verblunsky,3,,-1/7\r\n"
        "verblunsky,4,,1/6\r\n"
        "verblunsky,5,,1\r\n"
        "h,0,,1\r\n"
        "h,1,,9/25\r\n"
        "h,2,,16/45\r\n"
        "h,3,,7/20\r\n"
        "h,4,,12/35\r\n"
        "h,5,,1/3\r\n"
        "delta,0,,1\r\n"
        "delta,1,,9/25\r\n"
        "delta,2,,16/125\r\n"
        "delta,3,,28/625\r\n"
        "delta,4,,48/3125\r\n"
        "delta,5,,16/3125\r\n"
        "moment,0,,1\r\n"
        "moment,1,,-4/5\r\n"
        "moment,2,,3/5\r\n"
        "moment,3,,-2/5\r\n"
        "moment,4,,1/5\r\n"
        "moment,5,,0\r\n"
        "moment,6,,1/5\r\n"
    ),
    "explore --p 3 --q 5": (
        "M = 3 * 5 = 15   (exploratory - no closed form known)\n"
        "1/8 1/9 -2/7 1/5 -9/16 -1/5 2/3 -1\n"
    ),
    "explore --p 3 --q 5 --format json": (
        '{"p": 3, "q": 5, "M": 15, "verblunsky": ["1/8", "1/9", "-2/7", "1/5", "-9/16", '
        '"-1/5", "2/3", "-1"], "note": "exploratory - no closed form known"}\n'
    ),
    "explore --p 3 --q 5 --format csv": (
        "n,a\r\n"
        "0,1/8\r\n"
        "1,1/9\r\n"
        "2,-2/7\r\n"
        "3,1/5\r\n"
        "4,-9/16\r\n"
        "5,-1/5\r\n"
        "6,2/3\r\n"
        "7,-1\r\n"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_is_byte_exact(capsys, command):
    assert run_cli(capsys, *command.split()) == (0, GOLDEN[command], "")


# SHA-256 of the whole JSON output (with its newline) of larger ladders,
# recorded before the scalar layer moved onto integers
GOLDEN_SHA256 = {
    "popuc --m 211": "3bde4ed15e78b4ed80d1b4109d79c8138d69375d9b4805afa6106ab4d5bcc523",
    "popuc --m 211 --family sturmian": (
        "032d9eb7e68b3e441633133d2283f32f701d5c061c825ce3a24f8cfbca84a5e2"
    ),
    "popuc --kronecker 1,6,13,15,21,25,26,35": (
        "9ae07e7a67967e7cda8822f5d53f18916b530706fae07e784086bf11e02141ff"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN_SHA256))
def test_json_output_hash_is_unchanged(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


def test_verify_sweep_output_hash_is_unchanged(capsys):
    """Every line of the 332-spec sweep, recorded before its builders and
    weight check stopped building Fractions and Polys only to compare them."""
    code, out, err = run_cli(capsys, "verify", "--max-m", "60", "--families", "all")
    assert (code, err) == (0, "note: kronecker-enum caps orders at 12, below --max-m 60\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d017a4ef55a1475869aac5dbd31f662d9e046b63f48282913a70a40093e92ef6"
    )


# SHA-256 of the whole table and CSV output of larger ladders, recorded
# before the rational text form moved behind one render/parse pair
GOLDEN_SHA256_TEXT = {
    "popuc --m 211 --format table": (
        "46acad4a1e688de8317f8e68b8c987cb8f512067d372ee054f85a9b89fa9ad7a"
    ),
    "popuc --m 211 --format csv": (
        "7f91d3df7248741ca34b5e60c2e22487a5278c23de382461118c37aa3bd3e18f"
    ),
    "popuc --kronecker 1,6,13,15,21,25,26,35 --family sturmian --format csv": (
        "6a3139e4e9e585ee0d41a4a725f8b41d7fb492064d1fed20dc6c4625d03ae6ad"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN_SHA256_TEXT))
def test_text_output_hash_is_unchanged(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256_TEXT[command]


def test_popuc_prints_minors_past_the_digit_limit(capsys):
    # M = 1409 is prime, so Delta_n = p^(n-1) (p-n) / (p-1)^n with p = 1409,
    # and Delta_{N+1} = Delta_{p-1} has more than 4300 digits
    p = 1409
    outputs = {}
    for fmt in ("table", "csv", "json"):
        code, outputs[fmt], err = run_cli(capsys, "popuc", "--m", str(p), "--format", fmt)
        assert (code, err) == (0, "")
    last = json.loads(outputs["json"])["delta"][-1]
    assert len(last) > 4300
    assert parse_rational(last) == Fraction(p ** (p - 2), (p - 1) ** (p - 1))
    assert f"delta,{p - 2},,{last}\r\n" in outputs["csv"]
    assert f"  {last}\nmoments    : " in outputs["table"]


DUAL_123_TABLE = [
    "spec             : {1,2,3}",
    "charpoly         : z^4 + z^3 - z - 1",
    "ramanujan a      : -1/4  1/5  2/3  1",
    "sturmian  a      : -2/3  -1/5  1/4  1",
    "exact shared_charpoly       : ok",
    "exact mirror_map            : ok",
    "exact sturm_condition       : ok",
    "exact h_terminal_equal      : ok",
]
DUAL_CSV_COLUMNS = [
    "root_index",
    "root_re",
    "root_im",
    "equal_mass_residual",
    "sturmian_positive",
]


def test_dual_table_lines_and_csv_columns(capsys):
    # Residual digits depend on libm, so only the text around them is pinned.
    code, out, _ = run_cli(capsys, "dual", "--kronecker", "1,2,3")
    lines = out.splitlines()
    assert code == 0 and lines[:-1] == DUAL_123_TABLE
    assert re.fullmatch(
        r"weights          : max residual \d\.\d{3}e-\d\d over 4 roots \(tol 1e-12\)", lines[-1]
    )
    code, out, _ = run_cli(capsys, "dual", "--kronecker", "1,2,3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and rows[0] == DUAL_CSV_COLUMNS
    assert [(r[0], r[-1]) for r in rows[1:]] == [(str(i), "True") for i in range(4)]
    code, out, _ = run_cli(capsys, "dual", "--kronecker", "1,2,3", "--format", "json")
    payload = json.loads(out)
    assert list(payload) == ["spec", "charpoly", "ramanujan", "sturmian", "checks", "weights"]
    assert list(payload["weights"]) == [
        "tol",
        "passed",
        "max_residual",
        "roots_checked",
    ]


def test_dual_digits_csv_has_the_double_runs_columns_and_roots(capsys):
    argv = ("dual", "--kronecker", "1,2,5", "--format", "csv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out_digits, _ = run_cli(capsys, *argv, "--digits", "30")
    assert code == 0
    double, digits = (list(csv.reader(io.StringIO(text))) for text in (out, out_digits))
    assert digits[0] == double[0] == DUAL_CSV_COLUMNS
    assert len(digits) == len(double) == 7
    for (_, re_, im, residual, positive), coarse in zip(digits[1:], double[1:]):
        assert abs(float(re_) - float(coarse[1])) <= 1e-15
        assert abs(float(im) - float(coarse[2])) <= 1e-15
        assert float(residual) < 1e-30 and positive == "True"


@pytest.mark.parametrize(
    "flag",
    ["--digits=0", "--digits=-3", "--precision=nan", "--precision=inf", "--precision=-inf"],
)
def test_dual_out_of_range_precision_flags_are_usage_errors(capsys, flag):
    code, out, err = run_cli(capsys, "dual", "--m", "5", flag)
    name, value = flag.split("=")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} must be") and value in err


@pytest.mark.parametrize("m", ["1", "2"])
def test_dual_digits_with_a_single_root(capsys, m):
    # N + 1 = 1: both rungs Phi_N and Phi'_{N+1} are constants.
    code, out, _ = run_cli(capsys, "dual", "--m", m, "--digits", "20", "--format", "json")
    assert code == 0 and json.loads(out)["weights"]["max_residual"] == 0.0


def test_verify_kronecker_enum_cap_is_noted_on_stderr(capsys):
    argv = ("verify", "--families", "kronecker-enum", "--max-m")
    code12, out12, err12 = run_cli(capsys, *argv, "12")
    code13, out13, err13 = run_cli(capsys, *argv, "13")
    assert code12 == code13 == 0
    assert out13 == out12 and out12.endswith("298/298 verified\n")
    assert err12 == ""
    assert err13 == "note: kronecker-enum caps orders at 12, below --max-m 13\n"


def _check_subject_on_stub(monkeypatch, charpoly, sigma):
    """cli._check_subject on KroneckerSpec([1, 2]) with build_dual_pair
    replaced by a stub whose Ramanujan side is popuc_from_moments on this
    moment table, and the weight check by a no-op."""
    from fractions import Fraction
    from types import SimpleNamespace

    from ramanujan_popuc import cli
    from ramanujan_popuc.opuc_core import MomentSequence, popuc_from_moments
    from ramanujan_popuc.polynomials import KroneckerSpec, Poly

    moments = MomentSequence(tuple(Fraction(s) for s in sigma))

    def build(spec):
        system = popuc_from_moments(moments, spec.total_degree)
        return SimpleNamespace(charpoly=Poly(map(Fraction, charpoly)), ramanujan=system)

    monkeypatch.setattr(cli, "build_dual_pair", build)
    monkeypatch.setattr(cli, "verify_weights", lambda pair, tol: None)
    return cli._check_subject(KroneckerSpec([1, 2]))


def test_check_subject_catches_a_nonzero_delta_past_the_terminal(monkeypatch):
    # z^2 + 1/4: roots +-i/2, power-sum moments (1, 0, -1/4), Delta_3 = 15/16;
    # the builder's sweep rejects it before verify compares the moments
    ok, detail = _check_subject_on_stub(monkeypatch, ["1/4", 0, 1], [1, 0, "-1/4"])
    assert not ok and detail.startswith("TerminalMassError: ")
    # z^2 - 1, the two-point measure on +-1: Delta_3 = 0
    assert _check_subject_on_stub(monkeypatch, [-1, 0, 1], [1, 0, 1]) == (True, "ok")


def test_check_subject_names_a_lower_minor_that_is_not_positive(monkeypatch):
    # (z - 2)(z - 3): moments (1, 5/2, 13/2), Delta_2 = -21/4; the Schur
    # recursion stops there instead of reaching Delta_3
    ok, detail = _check_subject_on_stub(monkeypatch, [6, -5, 1], [1, "5/2", "13/2"])
    assert not ok and detail.startswith("SingularMomentError: ")
    assert "Delta_2 = -21/4 is not positive" in detail
    # z^2 - 2z - 1: moments (1, 1, 3), Delta_2 = 0 and Delta_3 = -4; a zero
    # lower minor ends the recursion too, and must not pass for Delta_3
    ok, detail = _check_subject_on_stub(monkeypatch, [-1, -2, 1], [1, 1, 3])
    assert not ok and detail.startswith("SingularMomentError: ")
    assert "Delta_2 = 0 is not positive" in detail


def test_main_reuses_one_parser_and_reads_the_format_on_every_call(capsys, monkeypatch):
    from ramanujan_popuc import cli

    cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    monkeypatch.setenv("RAMANUJAN_POPUC_FORMAT", "json")
    out = run_cli(capsys, "sums", "--m", "5", "--n-max", "1")[1]
    assert out == '{"modulus": 5, "values": [4, -1]}\n'
    monkeypatch.setenv("RAMANUJAN_POPUC_FORMAT", "csv")
    assert run_cli(capsys, "sums", "--m", "5", "--n-max", "1")[1].startswith("n,value")
    monkeypatch.setenv("RAMANUJAN_POPUC_FORMAT", "bogus")
    with pytest.raises(SystemExit) as e:
        main(["verify", "--max-m", "1"])
    assert e.value.code == 2


def test_main_reports_an_internal_inconsistency_with_exit_1(capsys, monkeypatch):
    def build(spec):
        raise InternalInconsistencyError("two routes disagree")

    monkeypatch.setattr(cli, "build_dual_pair", build)
    code, out, err = run_cli(capsys, "dual", "--m", "5")
    assert (code, out, err) == (1, "", "internal inconsistency: two routes disagree\n")
