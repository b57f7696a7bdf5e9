import argparse
import concurrent.futures
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem import channel, cli, witness
from sgadmem.cli import main
from sgadmem.states import load_state, make_noisy, make_pure, save_state
from sgadmem.witness import gmn, threshold_scan, xstate_criterion


def run(capsys, argv):
    """(exit code, stdout, stderr) of main; a usage error's exit is its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
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
    # the admissibility failure first, then the checks in table order
    assert [c["check"] for c in report["checks"]] == ["admissibility", *cli.VALIDATE_CHECKS]
    assert list(cli.VALIDATE_CHECKS) == ["kraus-completeness", "choi-positivity",
                                         "correlated-vs-integrator",
                                         "uncorrelated-populations-vs-integrator"]


@pytest.mark.parametrize("grid", ["0", "inf", "0,inf"])
def test_validate_lists_only_the_checks_that_compared_something(capsys, grid):
    # t = 0 and t = inf give the integrator nothing to compare, so its two
    # checks are not listed, rather than passed with a residual of 0
    code, out, _ = run(capsys, ["validate", "--omega-t", grid, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [c["check"] for c in report["checks"]] == ["kraus-completeness", "choi-positivity"]
    code, out, _ = run(capsys, ["validate", "--omega-t", grid])
    assert code == 0
    assert [line.split()[1].rstrip(":") for line in out.splitlines()[:-1]] == \
        ["kraus-completeness", "choi-positivity"]
    assert out.splitlines()[-1] == "validation passed"
    code, out, _ = run(capsys, ["validate", "--omega-t", f"{grid},1", "--format", "json"])
    assert code == 0
    assert [c["check"] for c in json.loads(out)["checks"]] == list(cli.VALIDATE_CHECKS)


@pytest.mark.parametrize("argv", [["--omega-t", "1e308"], ["--omega-t", "1e7"],
                                  ["--n", "5", "--omega-t", "1e6"]])
def test_validate_time_beyond_the_integrator_is_an_input_error(capsys, argv):
    # too many steps for a float, or a step power that drifts off the trace:
    # an input error naming the time, with no report
    code, out, err = run(capsys, ["validate", *argv])
    assert code == 2 and out == ""
    time = repr(float(argv[-1]))
    assert err.startswith("input error: ") and f"t_final={time}" in err
    assert "beyond the integrator's reach" in err


def test_validate_runs_the_asymptote_without_the_integrator(capsys):
    # t = inf is the asymptote: every check built on the maps runs there, and
    # only the integrator comparisons, which take finite times, skip it
    code, out, _ = run(capsys, ["validate", "--omega-t", "1,inf", "--format", "json"])
    assert code == 0
    with_inf = json.loads(out)
    code, out, _ = run(capsys, ["validate", "--omega-t", "1", "--format", "json"])
    finite = json.loads(out)
    assert with_inf["passed"] is True
    assert [c["check"] for c in with_inf["checks"]] == [c["check"] for c in finite["checks"]]
    assert all(c["pass"] for c in with_inf["checks"])


def test_default_grid_is_admissible(capsys):
    # the default n, m and Omega*t grid lie inside the operator set's domain
    code, out, _ = run(capsys, ["validate"])
    assert code == 0 and "validation passed" in out and "FAIL" not in out
    code, out, _ = run(capsys, ["evolve", "--family", "ghz1"])
    assert code == 0 and "cp-violation" not in out
    assert len(out.strip().splitlines()) == 1 + len(cli.OPTIONS["--omega-t"]["default"])


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


def test_pure_w_asymptotes_near_mu_1_solve_optimal(capsys):
    # the mu = 0.99 row ended numerical-failure, and the sweep exited 3, while
    # every step stopped at 0.98 of the way to the boundary
    code, out, _ = run(capsys, ["asymptotic", "--family", "w", "--n", "0.1",
                                "--mu", "0.98,0.99,1"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(row[3], row[-1]) for row in rows] == [
        ("0.98", "optimal"), ("0.99", "optimal"), ("1", "optimal")]


def test_asymptotic_honours_tol(capsys):
    code, out, _ = run(capsys, ["asymptotic", "--family", "w", "--beta", "0.3",
                                "--n", "1", "--grid", "0.5:0.5:1", "--tol", "1e-2"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    rho = asymptotic_state(make_noisy("w", beta=0.3), SgadParams(1.0, 1.0, 0.0), 0.5)
    assert row[4] == format(gmn(rho, tol=1e-2).value, ".12g")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rows_match_the_per_row_path(capsys, workers):
    # each row on its own: one asymptotic_state call on its one state, then
    # _measure_row
    code, out, _ = run(capsys, ["asymptotic", "--family", "ghz2", "--alpha", "0.4,0.9",
                                "--n", "0.1,2", "--mu", "0,0.37,1", "--workers", workers])
    assert code == 0
    expect = [",".join(cli.SWEEP_COLUMNS)]
    for alpha in (0.4, 0.9):
        for n in (0.1, 2.0):
            for mu in (0.0, 0.37, 1.0):
                rho = asymptotic_state(make_noisy("ghz2", alpha=alpha), SgadParams(1.0, n, 0.0), mu)
                row = ("ghz2", alpha, n, mu, *cli._measure_row(rho, 1e-8))
                expect.append(",".join(cli._fmt(v) for v in row))
    assert out.splitlines() == expect


def test_sweep_measures_asymptotic_state_bit_for_bit(monkeypatch, capsys):
    measured = []

    def record(rho, tol):
        measured.append(np.array(rho))
        return (0.0, 0.0, 0.0, 0.0, 0.0, "optimal")

    monkeypatch.setattr(cli, "_measure_row", record)
    argv = ["asymptotic", "--family", "w", "--beta", "0,0.3", "--n", "0.3,1", "--mu", "0,0.37,1"]
    assert run(capsys, argv)[0] == 0
    expect = [asymptotic_state(make_noisy("w", beta=beta), SgadParams(1.0, n, 0.0), mu)
              for beta in (0.0, 0.3) for n in (0.3, 1.0) for mu in (0.0, 0.37, 1.0)]
    assert np.array(measured).tobytes() == np.array(expect).tobytes()


def test_sweep_builds_each_n_maps_once_per_process(monkeypatch, capsys):
    # the uncorrelated builder calls kraus_single only on a cache miss
    built = []
    kraus_single = channel.kraus_single

    def count(p, t):
        if t == math.inf:
            built.append(p.n)
        return kraus_single(p, t)

    def sweep(ns):
        argv = ["asymptotic", "--family", "ghz2", "--alpha", "0.4,0.9",
                "--n", ",".join(map(str, ns)), "--mu", "0,0.5,1"]
        assert run(capsys, argv)[0] == 0

    monkeypatch.setattr(channel, "kraus_single", count)
    monkeypatch.setattr(cli, "_measure_row", lambda rho, tol: (0.0,) * 5 + ("optimal",))
    channel._correlated_superop.cache_clear()
    channel._uncorrelated_superop.cache_clear()
    ten = [k / 10 for k in range(1, 11)]
    sweep(ten)
    assert built == ten
    sweep(ten)
    assert built == ten
    # more n values than the cache holds: still one build each
    many = [k + 2.0 for k in range(channel._uncorrelated_superop.cache_info().maxsize + 2)]
    sweep(many)
    assert built == ten + many


def test_grid_of_more_than_a_million_points_is_an_input_error(capsys):
    for grid in ("0:1:1e-12", "0:1:1e-320"):  # the second overflows the count
        code, out, err = run(capsys, ["asymptotic", "--family", "ghz1", "--grid", grid])
        assert (code, out) == (2, "")
        assert err == f"input error: grid {grid} has more than 1000000 points\n"
    assert len(cli._grid("0:999999:1")) == 10**6
    with pytest.raises(ValueError, match="more than 1000000 points"):
        cli._grid("0:1000000:1")


def test_measure_row_margin_matches_xstate_criterion():
    # an asymptotic state that is Hermitian only to rounding, as the sweep's
    # are; its largest margin changes in the last bit unless it is symmetrized
    rng = np.random.default_rng(8)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = g @ g.conj().T / np.trace(g @ g.conj().T).real
    rho = asymptotic_state(rho0, SgadParams(1.0, 1.0, 0.0), 0.37)
    assert np.abs(rho - rho.conj().T).max() > 0
    margin = cli._measure_row(rho, 1e-8)[4]
    assert margin == max(r.margin for r in xstate_criterion(rho))


@pytest.mark.parametrize("text, expect", [
    ("0:1:0.6", [0.0, 0.6]),
    ("0:0.5:0.3", [0.0, 0.3]),
    ("0:1:0.15", [0.15 * k for k in range(7)]),
    ("0.09:1:0.07", [0.09 + 0.07 * k for k in range(13)] + [1.0]),
    ("0.93:0.995:0.01", [0.93 + 0.01 * k for k in range(7)]),
    ("0:1:0.01", [0.01 * k for k in range(101)]),
    ("0.5:0.5:1", [0.5]),
])
def test_grid_points(text, expect):
    assert cli._grid(text) == expect


def test_grid_never_passes_stop():
    # every point is start + k*step, except that a last point past stop by
    # rounding is stop itself, and the next point would pass stop
    steps = (0.01, 0.02, 0.03, 0.07, 0.15, 0.3, 0.45, 0.6, 0.7)
    for start in [0.05 * k for k in range(20)]:
        for step in steps:
            vals = cli._grid(f"{start}:1:{step}")
            assert max(vals) <= 1.0
            assert vals[:-1] == [start + k * step for k in range(len(vals) - 1)]
            assert vals[-1] in (start + (len(vals) - 1) * step, 1.0)
            assert start + len(vals) * step > 1.0 + 1e-12


def test_asymptotic_grid_stops_at_its_stop(capsys):
    code, out, _ = run(capsys, ["asymptotic", "--family", "ghz1", "--n", "1",
                                "--grid", "0:1:0.6"])
    assert code == 0
    assert [row.split(",")[3] for row in out.strip().splitlines()[1:]] == ["0", "0.6"]


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


@pytest.mark.parametrize("argv, flags", [
    (["gmn", "--family", "w"], "--family"),
    (["gmn", "--alpha", "0.2"], "--alpha"),
    (["evolve", "--family", "ghz1", "--beta", "0.3", "--omega-t", "1"], "--family, --beta"),
], ids=["gmn-family", "gmn-alpha", "evolve-family-beta"])
def test_state_file_with_state_flags_is_an_input_error(tmp_path, capsys, argv, flags):
    # the file would silently replace the family and weight given as flags
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"family": "ghz1", "alpha": 0.9}))
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and flags in err


def test_gmn_rejects_value_lists(capsys):
    code, out, err = run(capsys, ["gmn", "--family", "ghz1", "--alpha", "0.5,0.7"])
    assert code == 2 and out == ""
    assert "input error" in err and "--alpha" in err


@pytest.mark.parametrize("argv, named", [
    (["gmn", "--family", "ghz1", "--beta", "0.3"], "--beta"),
    (["evolve", "--family", "w", "--alpha", "0.5", "--omega-t", "1"], "--alpha"),
    (["asymptotic", "--family", "w", "--alpha", "0.5", "--n", "1", "--mu", "0.5"], "--alpha"),
    (["scan", "--family", "w", "--alpha", "0.5", "--scan", "beta", "--grid", "0.3:0.7"], "--alpha"),
    (["scan", "--family", "w", "--scan", "alpha", "--grid", "0.3:0.6"],
     "--scan alpha does not apply to w, which takes --beta"),
    (["scan", "--family", "ghz1", "--scan", "beta", "--grid", "0.3:0.6"],
     "--scan beta does not apply to ghz1, which takes --alpha"),
], ids=["gmn", "evolve", "asymptotic", "scan", "scan-w-alpha", "scan-ghz1-beta"])
def test_weight_of_the_other_family_is_an_input_error(capsys, argv, named):
    # GHZ families take --alpha and W families --beta, and the message names the flag
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "input error" in err and named in err


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


@pytest.mark.parametrize("argv, message", [
    (["scan", "--family", "ghz1", "--scan", "alpha", "--grid", "0.6:0.9:0.05:junk"],
     "grid must be LO:HI or LO:HI:RESOLUTION, got 0.6:0.9:0.05:junk"),
    (["asymptotic", "--family", "ghz1", "--n", "1", "--grid", "0:inf:0.5"],
     "grid values must be finite, got 0:inf:0.5"),
    (["asymptotic", "--family", "ghz1", "--n", "1", "--mu", "0.3", "--grid", "0:1:0.5"],
     "give --mu or --grid, not both"),
    (["gmn", "--family", "w", "--tol", "nan"], "tol must be finite and positive, got nan"),
    (["gmn", "--family", "ghz1", "--alpha", "0.2", "--tol", "-1"],
     "tol must be finite and positive, got -1.0"),
    (["asymptotic", "--family", "ghz1", "--n", "1", "--mu", "0.5", "--workers", "0"],
     "--workers must be at least 1, got 0"),
    (["asymptotic", "--family", "ghz1", "--n", "", "--mu", "0.5"],
     "--n takes a comma list of numbers, got ''"),
    (["asymptotic", "--family", "ghz1", "--n", "1", "--mu", ""],
     "--mu takes a comma list of numbers, got ''"),
    (["asymptotic", "--family", "ghz1", "--n", "1,", "--mu", "0.5"],
     "--n takes a comma list of numbers, got '1,'"),
    (["asymptotic", "--family", "ghz1", "--n", "1", "--mu", "0.2,,0.4"],
     "--mu takes a comma list of numbers, got '0.2,,0.4'"),
    (["evolve", "--family", "ghz1", "--omega-t", "", "--tol", "nan"],
     "--omega-t takes a comma list of numbers, got ''"),
    (["asymptotic", "--family", "ghz1", "--grid", "1:0:0.1"], "grid needs step > 0 and stop >= start"),
    (["asymptotic", "--family", "ghz1", "--grid", "0:1:0"], "grid needs step > 0 and stop >= start"),
    (["asymptotic", "--mu", "0.5"], "need --family"),
    (["scan", "--scan", "alpha", "--grid", "0.3:0.6"], "need --family"),
    (["scan", "--family", "ghz1", "--scan", "alpha"], "need --grid LO:HI for the bracket"),
], ids=["scan-grid-parts", "grid-inf", "mu-and-grid", "tol-nan", "tol-negative", "workers-0",
        "n-empty", "mu-empty", "n-empty-token", "mu-empty-token", "omega-t-empty",
        "grid-stop-before-start", "grid-step-0", "asymptotic-no-family", "scan-no-family",
        "scan-no-grid"])
def test_malformed_input_is_an_input_error(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"input error: {message}\n")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool the CLI starts, with a fake pool that
    maps in-process."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # the CLI imports concurrent.futures only where it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


def test_worker_pool_is_sized_by_the_task_count(monkeypatch, capsys, pool_sizes):
    # asking for more workers than tasks must not fork them all, on a
    # machine with more CPUs than tasks
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    args = ["asymptotic", "--family", "ghz1", "--n", "1", "--workers", "64"]
    assert run(capsys, args + ["--grid", "0:1:0.5"])[0] == 0
    assert pool_sizes == [3]
    assert run(capsys, args + ["--mu", "0.5"])[0] == 0
    assert pool_sizes == [3]  # one task runs without a pool


def test_worker_pool_is_capped_by_the_cpu_count(capsys, pool_sizes):
    # --workers 1000 on the 101-row README sweep starts at most one worker
    # per CPU, and prints what one worker prints
    args = ["asymptotic", "--family", "ghz1", "--n", "1", "--grid", "0:1:0.01"]
    code, serial, err = run(capsys, args + ["--workers", "1"])
    assert code == 0 and err == "" and pool_sizes == []
    assert run(capsys, args + ["--workers", "1000"]) == (0, serial, "")
    assert pool_sizes == [min(101, os.cpu_count() or 1)]


def test_non_finite_channel_inputs_are_input_errors(capsys):
    code, out, err = run(capsys, ["asymptotic", "--family", "ghz1", "--n", "nan",
                                  "--mu", "0.5"])
    assert code == 2 and out == ""
    assert "input error" in err and "n=nan" in err
    code, _, err = run(capsys, ["evolve", "--family", "ghz1", "--n", "1", "--mu", "0.5",
                                "--omega-t", "nan"])
    assert code == 2
    assert "input error: t must be nonnegative" in err


@pytest.mark.parametrize("argv", [
    ["asymptotic", "--family", "ghz1", "--n", "1e308", "--mu", "0.5"],
    ["evolve", "--family", "ghz1", "--n", "1e308", "--omega-t", "1"],
    ["scan", "--family", "ghz2", "--scan", "mu", "--asymptotic", "--n", "1e308", "--grid", "0:1"],
    ["validate", "--n", "1e308"],
], ids=lambda argv: argv[0])
def test_n_whose_2n_plus_1_overflows_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "input error: n=1e+308 is too large: 2n + 1 overflows\n"


def test_invalid_state_rejected(tmp_path, capsys):
    path = tmp_path / "unnormalized.json"
    save_state(path, np.eye(8))  # trace 8
    code, _, err = run(capsys, ["gmn", str(path)])
    assert code == 2
    assert "trace" in err
    # a NaN passes every comparison, so it must be caught by name
    nan = np.eye(8) / 8
    nan[0, 0] = np.nan
    path = tmp_path / "nan.json"
    save_state(path, nan)
    for command in ("gmn", "evolve"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2 and not out
        assert "non-finite entries at (0, 0)" in err
    # a square matrix of another size is no three-qubit state, and the error
    # names its shape
    for dim in (2, 4, 16):
        path = tmp_path / f"dim{dim}.json"
        save_state(path, np.eye(dim) / dim)
        for command in ("gmn", "evolve"):
            code, out, err = run(capsys, [command, str(path)])
            assert (code, out) == (2, "")
            assert err == f"input error: not an 8x8 matrix: shape ({dim}, {dim})\n"


@pytest.mark.parametrize("obj, key", [
    ({"family": "ghz1", "alpha": "0.5"}, "'alpha'"),
    ({"family": "ghz1", "alpha": True}, "'alpha'"),
    ({"family": 5}, "'family'"),
    ({"re": 5}, "'re'"),
    (7, "int"),
    ("re", "str"),
    ({"family": "ghz1", "re": [[1, 0], [0, 0]]}, "['re']"),
    ({"re": (np.eye(8) / 8).tolist(), "alpha": 0.3}, "['alpha']"),
    ({"dim": 8}, "state JSON needs either 'family' or 're'/'im' entries"),
], ids=["alpha-str", "alpha-bool", "family-int", "re-scalar", "top-int", "top-str",
        "family-and-re", "re-and-alpha", "neither-family-nor-re"])
def test_state_file_outside_the_schema_is_an_input_error(tmp_path, capsys, obj, key):
    # each was a traceback with exit 1, or a silently ignored key
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    for command in ("gmn", "evolve"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2 and out == ""
        assert err.startswith("input error:") and key in err and "Traceback" not in err


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


@pytest.mark.parametrize("argv, message", [
    (["--scan", "alpha", "--grid", "0.42:0.44:0.005", "--n", "5"], "asymptotic"),
    (["--scan", "alpha", "--grid", "0.42:0.44:0.005", "--mu", "0.3"], "asymptotic"),
    (["--scan", "alpha", "--grid", "0.42:0.44:0.005", "--alpha", "0.5"], "scanned"),
    (["--scan", "mu", "--asymptotic", "--grid", "0.93:0.995", "--mu", "0.5"], "scanned"),
    (["--scan", "alpha", "--asymptotic", "--grid", "0.4:0.5"], "needs mu"),
    (["--scan", "mu", "--grid", "0.1:0.9"], "--scan mu requires --asymptotic"),
], ids=["n-without-asymptotic", "mu-without-asymptotic", "fixed-alpha", "fixed-mu",
        "asymptotic-without-mu", "mu-scan-without-asymptotic"])
def test_scan_rejects_options_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, ["scan", "--family", "ghz2"] + argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and message in err


def test_asymptotic_weight_scan_bisects_its_line(monkeypatch, capsys):
    # with --asymptotic and a fixed --mu, a weight scan probes the t -> inf
    # states of the family mixtures
    results = []

    def recording(*args, **kwargs):
        results.append(threshold_scan(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "threshold_scan", recording)
    code, out, _ = run(capsys, ["scan", "--family", "ghz2", "--scan", "alpha", "--asymptotic",
                                "--mu", "0.97", "--n", "0.1", "--grid", "0.3:0.6"])
    assert code == 0
    assert out == ("boundary alpha = 0.396387 (bracket [0.396094, 0.396680], 11 evaluations)\n"
                   "status = optimal\n")
    bath = SgadParams(1.0, 0.1, 0.0)
    own = threshold_scan(lambda alpha: asymptotic_state(make_noisy("ghz2", alpha=alpha), bath, 0.97),
                         (0.3, 0.6))
    assert [r.bracket for r in results] == [own.bracket]


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


def test_every_argument_is_declared_in_options():
    # OPTIONS is the one table of arguments: a subcommand's parser holds
    # -h and entries of that table, named by first option string or by dest
    undeclared = []
    for name, sub in cli.build_parser().subcommands.items():
        for action in sub._actions:
            key = action.option_strings[0] if action.option_strings else action.dest
            if key != "-h" and key not in cli.OPTIONS:
                undeclared.append((name, key))
    assert undeclared == []


# -- one parser per process ----------------------------------------------------

@pytest.fixture
def fresh_parser():
    # start with no parser built, and leave none built from a patched argparse
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


MIXED = [
    ["asymptotic", "--family", "ghz1", "--n", "0.5", "--mu", "0.3"],
    ["asymptotic", "--family", "ghz1", "--mu", "0.3"],
    ["asymptotic", "--format", "yaml"],  # usage error
    ["validate", "--omega-t", "1,5"],
    ["asymptotic", "--family", "w", "--beta", "1.5", "--mu", "0.5"],  # input error
    ["evolve", "--family", "ghz2", "--mu", "1"],  # default --n, --m and --omega-t
    ["gmn", "--family", "ghz1", "--alpha", "0.2"],
    ["scan", "--family", "ghz1", "--scan", "alpha", "--grid", "0.6:0.9:0.05"],
    ["validate", "--omega-t", "0.1"],  # fails admissibility
    ["asymptotic", "--family", "ghz1", "--mu", "0.3"],
]


PARSER_TABLE = [
    ["validate", "--n", "2", "--omega-t", "1,5"],
    ["evolve", "--family", "w", "--mu", "0.5", "state.json"],
    ["asymptotic", "--family", "ghz1", "--n", "1", "--mu", "0.3", "--workers", "1"],
    ["gmn", "--family", "ghz2", "--alpha", "0.5", "--format", "json"],
    ["scan", "--family", "ghz1", "--scan", "alpha", "--grid", "0.3:0.6", "--asymptotic"],
    [],
    ["-h"],
    ["asymptotic", "-h"],
    ["bogus", "--x"],
    ["--family", "ghz1", "asymptotic"],
    ["asymptotic", "--m", "1"],
    ["asymptotic", "--fam", "ghz1"],
    ["asymptotic", "--format", "yaml"],
    ["asymptotic", "--family", "ghz1", "--mu", "0.5", "--", "extra"],
    ["scan", "--family", "ghz1"],  # no --scan
]


@pytest.mark.parametrize("argv", PARSER_TABLE, ids=lambda argv: " ".join(argv) or "empty")
def test_subcommand_parser_matches_the_root_parser(monkeypatch, capsys, fresh_parser, argv):
    # main parses a named subcommand with that subcommand's parser; the
    # namespace it runs, its output and its exit code are the root parser's
    ran = []
    for name in ("_run_validate", "_run_evolve", "_run_asymptotic", "_run_gmn", "_run_scan"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(vars(args).copy()) or 0)
    monkeypatch.setattr(cli, "FLOAT_LISTS", ())  # leave the options as parsed

    def outcome(call):
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
        out = capsys.readouterr()
        return result, out.out, out.err

    fast = outcome(lambda: main(argv))
    if fast[0] == 0:  # main ran a subcommand: compare the namespace it ran
        fast = (ran.pop(), *fast[1:])
    assert fast == outcome(lambda: vars(cli.build_parser().parse_args(argv)))
    assert not ran


def test_one_row_validates_once_and_solves_two_spectra(monkeypatch, capsys):
    # the README sweep's GHZ1 asymptote is PPT, so gmn solves no program:
    # one eigensolve in validate, one for the three partial transposes
    calls = []
    validate, eigvalsh = witness.validate, np.linalg.eigvalsh

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(witness, "validate", counting("validate", validate))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
    code, out, _ = run(capsys, ["asymptotic", "--family", "ghz1", "--n", "1", "--mu", "0.3"])
    assert code == 0 and out.splitlines()[1].endswith(",optimal")
    assert sorted(calls) == ["eigvalsh", "eigvalsh", "validate"]


def test_main_builds_one_parser_tree(monkeypatch, capsys, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [run(capsys, argv)[0] for argv in MIXED]
    assert codes == [0, 0, 2, 0, 2, 0, 0, 0, 1, 0]
    assert len(built) == 6  # the root and its five subcommands, once
    assert not any(isinstance(option.get("default"), list) for option in cli.OPTIONS.values())


def test_reused_parser_matches_fresh_parsers(capsys, fresh_parser):
    reused = [run(capsys, argv) for argv in MIXED]
    fresh = []
    for argv in MIXED:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert reused == fresh


def test_reused_parser_keeps_defaults_and_recovers_from_errors(capsys):
    code, out, _ = run(capsys, ["asymptotic", "--family", "ghz1", "--n", "0.5", "--mu", "0.3"])
    assert code == 0 and out.splitlines()[1].split(",")[2] == "0.5"
    valid = ["asymptotic", "--family", "ghz1", "--mu", "0.3"]
    first = run(capsys, valid)
    assert first[0] == 0 and first[1].splitlines()[1].split(",")[2] == "1"
    for bad in (["asymptotic", "--format", "yaml"],
                ["asymptotic", "--family", "ghz1", "--mu", "1.5"]):
        code, out, err = run(capsys, bad)
        assert code == 2 and out == "" and err
        assert run(capsys, valid) == first
