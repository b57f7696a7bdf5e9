import json
import subprocess
import sys

import numpy as np
import pytest

from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem.cli import main
from sgadmem.states import load_state, make_noisy, make_pure, save_state
from sgadmem.witness import gmn


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate -----------------------------------------------------------------

def test_validate_passes_on_admissible_grid(capsys):
    code, out, _ = run(capsys, ["validate", "--n", "1", "--m", "0",
                                "--omega-t", "0.5,1,5"])
    assert code == 0
    assert "validation passed" in out
    assert out.count("PASS") == 4


def test_validate_fails_naming_offenders(capsys):
    code, out, _ = run(capsys, ["validate", "--n", "0.2", "--m", "0.48",
                                "--omega-t", "0.05"])
    assert code == 1
    assert "k3" in out
    assert "FAIL" in out


def test_validate_json_report(capsys):
    code, out, _ = run(capsys, ["validate", "--n", "1", "--m", "0",
                                "--omega-t", "0.5,2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 4


def test_validate_reports_each_inadmissible_time_and_runs_the_rest(capsys):
    # Omega*t = 0.5 has no operator set at n = 1, m = 0.5; 1 and 5 have
    code, out, _ = run(capsys, ["validate", "--n", "1", "--m", "0.5",
                                "--omega-t", "0.5,1,5", "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    failed = [c for c in report["checks"] if c["check"] == "admissibility"]
    assert len(failed) == 1 and "Omega*t=0.5" in failed[0]["error"]
    ran = {c["check"]: c["pass"] for c in report["checks"] if c["check"] != "admissibility"}
    assert ran == {"kraus-completeness": True, "choi-positivity": True,
                   "correlated-vs-integrator": True,
                   "uncorrelated-populations-vs-integrator": True}


def test_validate_rejects_value_lists(capsys):
    code, out, err = run(capsys, ["validate", "--n", "1,0", "--m", "0",
                                  "--omega-t", "1,5"])
    assert code == 2 and out == ""
    assert "input error" in err and "--n" in err
    code, _, err = run(capsys, ["validate", "--n", "1", "--m", "0,0.1"])
    assert code == 2 and "--m" in err


# -- evolve ---------------------------------------------------------------------

def test_evolve_dfs_constant_gmn(capsys):
    code, out, _ = run(capsys, ["evolve", "--family", "ghz2", "--mu", "1",
                                "--n", "1", "--omega-t", "0,1,20"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("omega_t,gmn,")
    for ln in lines[1:]:
        fields = ln.split(",")
        assert abs(float(fields[1]) - 1.0) <= 1e-3
        assert fields[-1] == "optimal"


def test_evolve_rows_carry_error_markers(capsys):
    # mu=0 at a time below the operator-sum domain: the row is marked
    # instead of aborting the sweep
    code, out, _ = run(capsys, ["evolve", "--family", "ghz1", "--mu", "0",
                                "--n", "1", "--omega-t", "0.1,1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert "cp-violation" in lines[1]
    assert lines[2].split(",")[-1] == "optimal"


def test_evolve_rejects_value_lists(capsys):
    code, out, err = run(capsys, ["evolve", "--family", "w", "--mu", "0.2,0.9",
                                  "--omega-t", "1"])
    assert code == 2 and out == ""
    assert "input error" in err and "--mu" in err
    code, _, err = run(capsys, ["evolve", "--family", "w", "--m", "0,0.1",
                                "--omega-t", "1"])
    assert code == 2 and "--m" in err


# -- asymptotic sweep -------------------------------------------------------------

def test_asymptotic_deterministic_across_runs_and_workers(tmp_path, capsys):
    args = ["asymptotic", "--family", "ghz2", "--alpha", "0.4", "--n", "0.1",
            "--grid", "0.9:1:0.05"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    for path, workers in zip(paths, ("1", "1", "2")):
        code, _, _ = run(capsys, args + ["--workers", workers, "--out", str(path)])
        assert code == 0
    base = paths[0].read_bytes()
    assert base == paths[1].read_bytes()
    assert base == paths[2].read_bytes()
    lines = base.decode().strip().splitlines()
    assert lines[0] == ("family,param,n,mu,gmn,neg_A_BC,neg_B_AC,neg_C_AB,"
                        "xstate_margin,status")
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[3]) == 1.0 and float(last[4]) > 1e-3


def test_asymptotic_json_format(capsys):
    code, out, _ = run(capsys, ["asymptotic", "--family", "w", "--beta", "0",
                                "--n", "1", "--grid", "0:1:0.5",
                                "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert set(rows[0]) == {"family", "param", "n", "mu", "gmn", "neg_A_BC",
                            "neg_B_AC", "neg_C_AB", "xstate_margin", "status"}
    assert all(r["status"] == "optimal" for r in rows)


def test_asymptotic_honours_tol(capsys):
    code, out, _ = run(capsys, ["asymptotic", "--family", "w", "--beta", "0.3",
                                "--n", "1", "--grid", "0.5:0.5:1", "--tol", "1e-2"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    rho = asymptotic_state(make_noisy("w", beta=0.3), SgadParams(1.0, 1.0, 0.0), 0.5)
    assert row[4] == format(gmn(rho, tol=1e-2).value, ".12g")


# -- gmn ---------------------------------------------------------------------------

def test_gmn_family_and_witness_export(tmp_path, capsys):
    wfile = tmp_path / "witness.json"
    code, out, _ = run(capsys, ["gmn", "--family", "ghz1", "--out", str(wfile)])
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert abs(value - 1.0) <= 1e-3
    witness = load_state(wfile)
    assert np.abs(witness - witness.conj().T).max() < 1e-9
    expect = np.trace(witness @ make_pure("ghz1")).real
    assert abs(expect - (-value / 2.0)) <= 1e-6


def test_gmn_json_format(capsys):
    code, out, _ = run(capsys, ["gmn", "--family", "ghz1", "--alpha", "0.5",
                                "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"value", "lower", "upper", "status", "iterations", "gap",
                           "negativities"}
    assert report["status"] == "optimal" and report["iterations"] > 0
    assert report["lower"] <= 0.125 <= report["upper"]
    assert set(report["negativities"]) == {"A|BC", "B|AC", "C|AB"}
    code, out, _ = run(capsys, ["gmn", "--family", "ghz1", "--alpha", "0.2",
                                "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 0.0 and report["iterations"] == 0


def test_gmn_matrix_file(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_state(path, np.eye(8) / 8.0)
    code, out, _ = run(capsys, ["gmn", str(path)])
    assert code == 0
    assert float(out.splitlines()[0].split("=")[1]) <= 1e-6


def test_gmn_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["gmn", str(tmp_path / "missing.json")])
    assert code == 2 and "input error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, ["gmn", str(bad)])
    assert code == 2
    code, _, err = run(capsys, ["gmn"])
    assert code == 2  # neither file nor family


def test_gmn_rejects_value_lists(capsys):
    code, out, err = run(capsys, ["gmn", "--family", "ghz1", "--alpha", "0.5,0.7"])
    assert code == 2 and out == ""
    assert "input error" in err and "--alpha" in err


@pytest.mark.parametrize("argv", [
    ["gmn", "--family", "ghz1", "--beta", "0.3"],
    ["evolve", "--family", "w", "--alpha", "0.5", "--omega-t", "1"],
    ["asymptotic", "--family", "w", "--alpha", "0.5", "--n", "1", "--mu", "0.5"],
], ids=lambda argv: argv[0])
def test_weight_of_the_other_family_is_an_input_error(capsys, argv):
    # GHZ families take --alpha and W families --beta, as in scan
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "input error" in err and argv[3] in err


@pytest.mark.parametrize("argv", [
    ["asymptotic", "--family", "ghz1", "--alpha", "1.5", "--n", "1", "--mu", "0.5"],
    ["asymptotic", "--family", "ghz1", "--n", "1", "--mu", "1.5"],
    ["asymptotic", "--family", "ghz1", "--n", "1", "--grid", "0.5:2:0.5"],
    ["scan", "--family", "ghz1", "--scan", "alpha", "--grid", "0.6:0.9:0"],
], ids=["alpha", "mu", "mu-grid", "scan-resolution"])
def test_out_of_range_input_is_an_input_error(capsys, argv):
    # checked before any row is computed, as gmn and evolve do
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "input error" in err


def test_non_finite_channel_inputs_are_input_errors(capsys):
    code, out, err = run(capsys, ["asymptotic", "--family", "ghz1", "--n", "nan",
                                  "--mu", "0.5"])
    assert code == 2 and out == ""
    assert "input error" in err and "n=nan" in err
    code, _, err = run(capsys, ["evolve", "--family", "ghz1", "--n", "1", "--mu", "0.5",
                                "--omega-t", "nan"])
    assert code == 2
    assert "input error: t must be nonnegative" in err


def test_invalid_state_rejected(tmp_path, capsys):
    path = tmp_path / "unnormalized.json"
    save_state(path, np.eye(8))  # trace 8
    code, _, err = run(capsys, ["gmn", str(path)])
    assert code == 2
    assert "trace" in err


# -- scan ------------------------------------------------------------------------

def test_scan_initial_state_boundary(capsys):
    code, out, _ = run(capsys, ["scan", "--family", "ghz1", "--scan", "alpha",
                                "--grid", "0.35:0.55:0.02"])
    assert code == 0
    boundary = float(out.split("=")[1].split("(")[0])
    assert abs(boundary - 0.429) <= 0.02


def test_scan_reports_missing_threshold(capsys):
    code, out, _ = run(capsys, ["scan", "--family", "ghz1", "--scan", "alpha",
                                "--grid", "0.6:0.9:0.05"])
    assert code == 0
    assert "no gmn threshold" in out


def test_scan_exits_3_on_non_optimal_probe(capsys):
    code, out, _ = run(capsys, ["scan", "--family", "ghz1", "--scan", "alpha",
                                "--grid", "0.3:0.6:0.05", "--tol", "1e-16"])
    assert code == 3
    assert "status = optimal" not in out


def test_scan_rejects_value_lists(capsys):
    code, out, err = run(capsys, ["scan", "--family", "ghz1", "--scan", "alpha",
                                  "--grid", "0.3:0.6", "--n", "1,2"])
    assert code == 2 and out == ""
    assert "input error" in err and "--n" in err
    code, _, err = run(capsys, ["scan", "--family", "ghz2", "--scan", "mu",
                                "--asymptotic", "--grid", "0:1", "--mu", "0.1,0.2"])
    assert code == 2 and "--mu" in err


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sgadmem.cli", "gmn", "--family", "ghz2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "gmn = " in proc.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["asymptotic", "--format", "yaml"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "--family", "ghz1"],
    ["evolve", "--family", "ghz1", "--workers", "2"],
    ["asymptotic", "--family", "ghz1", "--m", "0.5"],
    ["gmn", "--family", "ghz1", "--n", "5"],
    ["scan", "--family", "ghz1", "--scan", "alpha", "--grid", "0.3:0.6", "--omega-t", "1"],
], ids=lambda argv: argv[0])
def test_unread_option_is_a_usage_error(argv):
    # each subcommand accepts only the options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
