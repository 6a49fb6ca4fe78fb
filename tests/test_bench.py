"""The benchmark's own correctness check, run on this checkout's sources.

A traced benchmark run is marked incorrect when a function that
bench/workloads.py EXPECTED_CALLS lists for the workload records no calls,
even when every command exits 0. Running tiny traced workloads here catches
a change that routes work around a listed function: validate-tabular guards
the empirical estimator and take, student-logistic and roundtrip-profiles
guard fit_logistic, LogisticCdf.rho_pair and take on the logistic path.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _assert_traced_run_is_correct(workload, tmp_path):
    # A copy, so the run's .bench_work/ and .bench_out/ never touch the
    # checkout's while a real benchmark is running there.
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "1", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]


def test_traced_tabular_benchmark_is_correct(tmp_path):
    _assert_traced_run_is_correct("validate-tabular", tmp_path)


@pytest.mark.parametrize("workload", ["student-logistic", "roundtrip-profiles"])
def test_traced_logistic_benchmark_is_correct(workload, tmp_path):
    _assert_traced_run_is_correct(workload, tmp_path)
