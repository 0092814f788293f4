"""Tiny-size runs of every workload emit exactly the metrics BENCHMARK.json names.

The runs happen in a fresh copy of the checkout, as the benchmark is run for
real: BENCHMARK.json, the benchmark and the package sources, nothing else.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy(dest, with_sources):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _copy(tmp_path_factory.mktemp("checkout"), with_sources=True)


def _bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(checkout, workload, trace):
    done = _bench(checkout, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in names]
    for spec in names:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_package_sources_exits_nonzero_and_prints_no_result(tmp_path):
    done = _bench(_copy(tmp_path, with_sources=False), "mc-oblivious", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
