"""Toy-size self-test of the benchmark: 120-day dataset, tiny budgets.

Run from the repository root with ``python3 -m pytest perfbench``.  It checks
that every metric named in BENCHMARK.json is printed and that no operation
fails; it makes no timing assertion.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
