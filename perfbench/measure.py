"""One measured run: ``kgenrich batch`` on a generated fixture, then its consistency calls.

Usage: python3 perfbench/measure.py FIXTURE_DIR OUT_DIR plain|traced|memory

The benchmark starts this in a fresh process per run, so ``ru_maxrss`` is the
peak of this run alone. ``plain`` wraps only ``cli.load_graph`` (to time
set-up and keep the loaded graphs for the consistency calls); ``traced``
wraps every traced layer; ``memory`` loads the fixture's graphs under
tracemalloc and reports retained bytes per edge. The result is written to
OUT_DIR/result.json.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, install  # noqa: E402  (after the path set-up)


def _module(name: str):
    return importlib.import_module(f"kgenrich.{name}")


def measure_run(fixture: Path, out: Path, traced: bool) -> dict:
    truth = json.loads((fixture / "expected.json").read_text(encoding="utf-8"))
    tracer = Tracer()
    graphs: dict = {}
    install(tracer, graphs, full=traced)
    cli, config, pipeline = _module("cli"), _module("config"), _module("pipeline")
    granularity = _module("consistency").Granularity

    tracer.run_id = "batch"
    started = time.perf_counter()
    exit_code = cli.main(["batch", "--config", str(fixture / "config.yaml"),
                          "--properties-file", str(fixture / "properties.txt"),
                          "--class", truth["entity_class"], "--out-dir", str(out),
                          "--no-timings"])
    command_s = time.perf_counter() - started
    setup_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "load_graph")

    cfg = config.load_config(fixture / "config.yaml")
    reports: list[dict] = []
    consistency_s = 0.0
    for call in truth["consistency"] if exit_code == 0 else ():
        tracer.run_id = f"consistency:{call['property']}|{call['external']}"
        started = time.perf_counter()
        try:
            outcome = pipeline.run_consistency(
                graphs[cfg.target.tag], graphs[call["external"]], call["property"], cfg,
                granularity(call["granularity"]), entity_class=truth["entity_class"])
            reports.append(outcome.report_dict())
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            reports.append({"error": f"{type(exc).__name__}: {exc}"})
        consistency_s += time.perf_counter() - started

    return {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "batch_s": command_s - setup_s,
        "consistency_s": consistency_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "consistency": reports,
        "target_tag": cfg.target.tag,
        "spans": tracer.spans,
        "walked_subjects": len(tracer.walked_subjects),
    }


def measure_memory(fixture: Path) -> dict:
    config = _module("config")
    cfg = config.load_config(fixture / "config.yaml")
    kept, retained, edges = [], 0, 0
    tracemalloc.start()
    try:
        for spec in [cfg.target, *cfg.externals]:
            before = tracemalloc.get_traced_memory()[0]
            graph = config.load_graph(spec, cfg.prefixes)
            retained += tracemalloc.get_traced_memory()[0] - before
            edges += graph.edge_count
            kept.append(graph)
    finally:
        tracemalloc.stop()
    return {"bytes_per_edge": retained / edges, "edges": edges}


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[3] not in ("plain", "traced", "memory"):
        print(__doc__, file=sys.stderr)
        return 2
    fixture, out, mode = Path(argv[1]), Path(argv[2]), argv[3]
    out.mkdir(parents=True, exist_ok=True)
    result = measure_memory(fixture) if mode == "memory" else \
        measure_run(fixture, out, traced=mode == "traced")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    code = main(sys.argv)
    sys.stdout.flush()
    # skip tearing down the loaded graphs; it costs the next run's window time
    os._exit(code)
