"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json, and every end-to-end
figure the run prints besides, is present with a unit, and that the
benchmark refuses to run without the package sources.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PRINTED_E2E = {"items_per_s", "item_p50_ms", "item_tail_ms", "failed_frac", "known_defect_frac",
               "peak_rss_mb", "setup_s"}


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _check_result(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0  # known defects are reported apart from failures
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {s["name"]: s["unit"] for s in specs}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines = _lines(_run(workload, 0))
    _check_result(lines[-1], BENCH["end_to_end"])
    printed = next(line["end_to_end"] for line in lines if "end_to_end" in line)
    want = PRINTED_E2E | ({"route_rel_dev"} if workload == "demo-pipeline" else set())
    assert set(printed) == want
    assert all(m["unit"] for m in printed.values())
    assert {"percentile", "samples"} <= set(printed["item_tail_ms"])
    env = lines[0]["env"]
    assert {"nproc", "python", "numpy", "seed", "threads"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    lines = _lines(_run(workload, 1))
    _check_result(lines[-1], BENCH["per_layer"])
    spans = ROOT / next(line["trace"]["file"] for line in lines if "trace" in line)
    assert json.loads(spans.read_text(encoding="utf-8"))["spans"]


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_tmp" / f"smoke-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(WORKLOADS[0], 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
