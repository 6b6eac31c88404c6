#!/usr/bin/env python3
"""The benchmark's own test: every count metric of a traced run repeats
exactly when the same seed is traced again.

    python3 perfbench/check_counts.py [WORKLOAD ...]
    python3 -m pytest perfbench/check_counts.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracing import COUNT_METRICS

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["mesh-bundle", "image-sheaf", "image-stratify", "image-vineyard"]


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=240, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: result["metrics"][k]["value"] for k in COUNT_METRICS}


def check(workload: str, seed: int = 3) -> None:
    first, second = traced_counts(workload, seed), traced_counts(workload, seed)
    assert first == second, f"{workload}: {first} != {second}"
    assert any(first.values()), f"{workload}: every count is zero"


def test_counts_repeat():
    for workload in WORKLOADS:
        check(workload)


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        check(name)
        print(f"{name}: counts repeat exactly")
