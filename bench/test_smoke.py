"""Smoke test of the benchmark: every workload at a tiny size, both runs.

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_report_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--report", "--smoke", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {tuple(line.split()[:2]): line.split()[-1]
            for line in proc.stdout.splitlines() if line.startswith("  ")}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for wl in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert rows.get((wl["name"], m["name"])) == m["unit"], (wl["name"], m["name"])
    assert "nodes identical in the untraced and traced run: yes" in proc.stdout


def test_workload_run_ends_with_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chi_random", "--seed", "3",
         "--seconds", "0.5", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
