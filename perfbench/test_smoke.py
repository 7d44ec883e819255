"""Smoke tests for the benchmark itself: run from the repository root with

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at its tiny size, passes its checks and prints every
end-to-end metric (untraced) or every per-layer metric (traced).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from run import END_TO_END  # noqa: E402

WORKLOADS = ("certify", "exact", "anytime", "audit")


def run_bench(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_and_prints_end_to_end_metrics(workload):
    proc, result = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    for name, unit in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
    assert "# fail_ratio 0.000000" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_and_prints_per_layer_metrics(workload):
    proc, result = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    units = tracer.metric_units()
    assert list(result["metrics"]) == list(units)
    assert all(result["metrics"][n]["unit"] == u for n, u in units.items())
    # the layers each workload exists to load are visible in the trace
    busy = {
        "certify": "oracle.enumerate_solutions.busy_s",
        "exact": "solver.solve.busy_s",
        "anytime": "solver.place.busy_s",
        "audit": "formats.load_instance.busy_s",
    }[workload]
    assert result["metrics"][busy]["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    """Without the library's sources the command must fail, printing no result."""
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
