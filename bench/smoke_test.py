"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q bench/smoke_test.py

Every workload runs once untraced and once traced. The result must name
every metric of BENCHMARK.json with its unit, and the traced layer self
times must be non-negative and sum to no more than the traced wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(tmp_path, workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_printed(tmp_path, workload):
    _record, result = run(tmp_path, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / ".bench_work").exists() or \
        not any((tmp_path / ".bench_work").iterdir())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_layer_metrics_and_self_times(tmp_path, workload):
    record, result = run(tmp_path, workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    self_s = record["self_s"]
    assert all(v >= 0.0 for v in self_s.values()), self_s
    assert sum(self_s.values()) <= record["wall_s"]
