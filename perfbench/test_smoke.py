"""Smoke test of the benchmark: the shortest run of each workload, untraced
and traced, prints every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_smoke.py

Each run still pays its set-up (up to a few seconds per workload), so the
whole file takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_shortest_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0


def test_fails_without_the_package(tmp_path):
    """Where only BENCHMARK.json and the benchmark's own files exist, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
