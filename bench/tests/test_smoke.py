"""Smoke test of the benchmark harness at minimal size.

One block of about one tiny job per kind, per workload, untraced and
traced.  No timing assertions: only that the harness runs, every oracle
passes and every metric of BENCHMARK.json is reported with its unit.

    python3 -m pytest bench/tests -q
"""

import functools
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@functools.cache
def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    meta, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert meta["workload"] == workload and meta["seed"] == 7 and meta["src_lines"] > 0
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] >= 1
        assert os.path.getsize(os.path.join(BENCH, "_work", f"{workload}-7-tiny", "spans.jsonl")) > 0
    else:
        assert meta["output_sha256"]


def test_traced_layers_match_the_workload():
    """SNF runs only on invariants; the enumeration layers only on enumerate."""
    _, inv = run("invariants", 1)
    _, enum = run("enumerate", 1)
    assert inv["metrics"]["algebra.smith_normal_form.calls"]["value"] > 0
    assert enum["metrics"]["algebra.smith_normal_form.calls"]["value"] == 0
    assert enum["metrics"]["geometry.circle_specs_report.calls_per_job"]["value"] == 2
    assert enum["metrics"]["graphs.paths_of_length.words"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero without a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
