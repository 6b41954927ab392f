"""Smoke test: every workload on toy grids emits every metric, with no failure.

Makes no timing assertion; it only keeps the benchmark from rotting.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_every_workload_emits_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "toy", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "trace hook missing" not in proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    # run.py goes workload by workload, untraced then traced
    names = [line.split()[1] for line in lines if line.startswith("workload ")]
    assert names == [w["name"] for w in spec["workloads"] for _ in range(2)]
    assert len(results) == len(names)
    for i, result in enumerate(results):
        listed = spec["per_layer"] if i % 2 else spec["end_to_end"]
        assert result["correct"] is True, proc.stderr
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    error_rates = [line.split()[1] for line in lines if line.strip().startswith("error_rate")]
    assert error_rates == ["0"] * len(results)
