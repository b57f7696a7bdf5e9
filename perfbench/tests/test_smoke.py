"""Each workload end to end at a tiny size, untraced and traced.

Slow (a few minutes in all): every run measures its set-up three times and
solves a handful of witness programs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)


def run_bench(*args):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run(workload, trace):
    result = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", str(trace), "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ROOT.joinpath("perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generic-states",
                           "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
