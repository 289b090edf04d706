"""Tests of the benchmark itself, in ``--quick`` mode.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--quick", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_declared_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert declared == list(spec.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layers == list(spec.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(spec.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_quick_run_emits_every_end_to_end_metric(workload):
    result = result_line(bench(workload, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = result_line(bench(workload, "--trace", "1"))
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.hooks_missing"] == 0
    assert values["trace.layer_self_frac"] > 0.9


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_invalid_mapping_is_counted_as_failed(workload):
    proc = bench(workload, "--trace", "0", "--inject-invalid")
    result = result_line(proc)
    assert result["failed"] >= 1
    assert not result["correct"]
    assert "# failure" in proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper-map", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
