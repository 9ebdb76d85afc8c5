"""The benchmark's own test: quick mode passes every check and prints every declared metric.

    python3 -m pytest perfbench/test_quick.py

Runs from the repository root, like the benchmark itself.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_mode_checks_every_workload_and_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert len(lines) == len(spec["workloads"]) + 1
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    untraced, traced = lines[:-1], lines[-1:]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # a public function removed from smm is reported absent (null), never left out
    absent = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("absent: ")}
    for line in traced:
        assert {k: v["unit"] for k, v in line["metrics"].items()} == per_layer
        assert {k for k, v in line["metrics"].items() if v["value"] is None} == absent
    for line in untraced:
        assert {k: v["unit"] for k, v in line["metrics"].items()} == end_to_end
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_outside_a_checkout_the_benchmark_refuses(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "mc_reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
