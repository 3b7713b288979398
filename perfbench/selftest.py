#!/usr/bin/env python3
"""Small-scale self-test of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload at a tenth of its size on the default seed and on one
other seed, plain and traced, and fails unless each run passes its oracle
(``correct`` true, no failed operation) and prints exactly the metric names
and units that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = (99, 7)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            for trace in (0, 1):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                     "--scale", "0.1"],
                    cwd=HERE.parent, capture_output=True, text=True, timeout=170)
                label = f"{workload} seed={seed} trace={trace}"
                if done.returncode != 0:
                    problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                ok = result["correct"] and result["failed"] == 0 and units == declared[trace]
                print(f"{'ok  ' if ok else 'FAIL'} {label}: attempted={result['attempted']} "
                      f"failed={result['failed']}")
                if not ok:
                    problems.append(f"{label}: {result}")
                for name, metric in result["metrics"].items():
                    print(f"      {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
