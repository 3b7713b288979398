#!/usr/bin/env python3
"""Benchmark for ``kgenrich batch``: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload dbp-l2 --seed 99 --seconds 40 --trace 0

The workload is generated from the seed and written to disk as the files a
user would have. Each measured run is a fresh process that calls
``kgenrich.cli.main(["batch", ..., "--no-timings"])`` and then the workload's
overlap-mode consistency calls on the graphs the batch loaded. Runs go back to
back, one at a time (a closed loop with one client), until ``--seconds`` is
used up. Every run's outputs are checked against the generator's planted
truth.

``--trace 0`` prints the end-to-end metrics (medians over the runs);
``--trace 1`` alternates plain and traced runs, checks that both write the
same bytes, and prints the per-layer metrics from the traced ones. A run
record (git revision, machine, fixture sizes, every run's raw numbers) is
printed before the result, which is the last line: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import END_TO_END, PER_LAYER, layer_metrics
from oracle import check_run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 120


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Starts one measured process at a time and keeps what it reported."""

    def __init__(self, fixture: Path, work: Path, hash_seed: str):
        self.fixture, self.work = fixture, work
        self.env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        self.count = 0

    def run(self, mode: str) -> dict:
        self.count += 1
        out = self.work / f"run{self.count:03d}-{mode}"
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(self.fixture), str(out), mode],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        wall = time.perf_counter() - started
        result_path = out / "result.json"
        if done.returncode != 0 or not result_path.exists():
            sys.stderr.write(done.stderr[-2000:])
            return {"mode": mode, "out": out, "wall_s": wall, "crashed": True}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result.update(mode=mode, out=out, wall_s=wall, crashed=False)
        return result


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def _measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], dict | None]:
    """Run back to back until the next run would overrun the window."""
    deadline = time.perf_counter() + seconds
    memory = runner.run("memory") if trace else None
    order = ("plain", "traced") if trace else ("plain",)
    runs: list[dict] = []
    while True:
        mode = order[len(runs) % len(order)]
        same = [r["wall_s"] for r in runs if r["mode"] == mode]
        enough = len(runs) >= len(order)
        if enough and same and time.perf_counter() + statistics.median(same) > deadline:
            break
        run = runner.run(mode)
        runs.append(run)
        if run["crashed"]:
            break
    return runs, memory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fixture size factor; below 1 only for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kgenrich" / "cli.py").is_file():
        print(f"error: no kgenrich sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    # the hash seed follows the workload seed unless the caller fixed one
    hash_seed = os.environ.get("PYTHONHASHSEED") or str(args.seed % 4294967296)
    try:
        started = time.perf_counter()
        WORKLOADS[args.workload](args.seed, args.scale).write(work / "fixture")
        truth = json.loads((work / "fixture" / "expected.json").read_text(encoding="utf-8"))
        generate_s = time.perf_counter() - started
        runs, memory = _measure(Runner(work / "fixture", work, hash_seed),
                                args.seconds, bool(args.trace))
        attempted = failed = 0
        reference: dict[str, bytes] = {}
        for run in runs:
            bad, ops = check_run(truth, run, reference)
            run["failed_ops"] = sorted(bad)
            attempted += ops
            failed += len(bad)
        plain = [r for r in runs if r["mode"] == "plain" and not r["crashed"]]
        traced = [r for r in runs if r["mode"] == "traced" and not r["crashed"]]
        complete = bool(plain) and (traced or not args.trace)
        if not complete or (args.trace and (memory is None or memory["crashed"])):
            print("error: a measured run crashed; see stderr", file=sys.stderr)
            return 1

        if args.trace:
            values, self_times = layer_metrics(traced, memory)
            values["trace.overhead_s"] = _median(traced, "batch_s") - _median(plain, "batch_s")
            names = PER_LAYER
        else:
            values = {key: _median(plain, key)
                      for key in ("setup_s", "batch_s", "consistency_s", "peak_rss_mb")}
            values["total_s"] = statistics.median(
                r["setup_s"] + r["batch_s"] + r["consistency_s"] for r in plain)
            names = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}

        record = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace,
            "git_rev": _git_rev(), "source_sha256": _source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "pythonhashseed": hash_seed, "fixture": truth["sizes"],
            "generate_s": generate_s, "failed_ratio": failed / max(attempted, 1),
            "runs": [{k: v for k, v in r.items()
                      if k in ("mode", "wall_s", "setup_s", "batch_s", "consistency_s",
                               "peak_rss_mb", "failed_ops")} for r in runs],
        }
        if args.trace:
            record["memory"] = {k: memory[k] for k in ("bytes_per_edge", "edges")}
            record["self_time_s"] = self_times
            record["largest_self_time"] = max(self_times, key=self_times.get)
        print(json.dumps({"run_record": record}, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
