"""Smoke test of the benchmark on its smallest workload; asserts no timings.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, trace: int = 0) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "star_r3_8",
           "--seed", "5", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    code, result = bench()
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric():
    code, result = bench(trace=1)
    assert code == 0
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["verdict.unachieved_birec"]["value"] == 6


def test_a_corrupted_pin_fails_the_run(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    pins["workloads"]["star_r3_8"]["targets"][2]["expected"]["structures"] += 1
    corrupted = tmp_path / "pins.json"
    corrupted.write_text(json.dumps(pins))
    code, result = bench("--pins", str(corrupted))
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
