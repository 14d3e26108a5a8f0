"""Tests of the benchmark itself.  From the checkout root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COPY_IGNORE = shutil.ignore_patterns("__pycache__", ".pytest_cache")


def run(root: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=175,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_end_to_end_metrics_match_benchmark_json(workload):
    proc, result = run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_match_benchmark_json():
    proc, result = run(ROOT, "mc-narrow", 1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"], proc.stdout
    assert units(result) == declared("per_layer")


def test_wrong_reference_is_counted_as_a_failure(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=COPY_IGNORE)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=COPY_IGNORE)
    path = tmp_path / "bench" / "references.json"
    refs = json.loads(path.read_text())
    refs["mc-narrow"]["rows"][1][3] *= 1 + 1e-6  # the plain ratio estimator's MSE
    path.write_text(json.dumps(refs))
    proc, result = run(tmp_path, "mc-narrow", 0)
    assert result is not None, proc.stderr
    assert not result["correct"]
    assert result["failed"] == 1
    assert "# FAILED reference" in proc.stdout


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=COPY_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = run(tmp_path, "mc-wide", 0)
    assert proc.returncode != 0
    assert result is None


def test_reference_tolerance_admits_reordering_but_not_another_stream():
    expected = {"rows": [["ng", 1.25, 1e-3, 0.0108, 12, 4988]]}
    reordered = {"rows": [["ng", 1.25 * (1 + 1e-13), 1e-3 * (1 + 1e-13), 0.0108 * (1 - 1e-13), 12, 4988]]}
    assert worker.compare(expected, reordered) == []
    other_stream = {"rows": [["ng", 1.25, 1.1e-3, 0.0108, 12, 4988]]}
    assert len(worker.compare(expected, other_stream)) == 1
    other_count = {"rows": [["ng", 1.25, 1e-3, 0.0108, 13, 4987]]}
    assert len(worker.compare(expected, other_count)) == 2


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 41)]
    assert worker.tail(values) == (30.0, 75.0, 40)
    assert worker.tail(values[:19]) == (15.0, 75.0, 19)
    assert worker.tail(values[:30]) == (23.25, 75.0, 30)
    assert worker.tail(values[:1]) == (1.0, 100.0, 1)
