"""Metric names and units, and per-layer metrics derived from traced runs.

A span's self time is its duration minus the durations of its child spans;
calls are single-threaded, so children never overlap. Counts come from the
attributes the wrappers recorded. Layer times sum over every call in the
process, batch and consistency alike.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "consistency_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "store.load_target_s": "s",
    "store.load_external_s": "s",
    "store.edges_per_s": "edges/s",
    "store.bytes_per_edge": "B",
    "gaps.detect_s": "s",
    "gaps.calls": "count",
    "gaps.known_pairs": "count",
    "gaps.gap_subjects": "count",
    "resolve.build_mapping_s": "s",
    "resolve.build_mapping_calls": "count",
    "resolve.pairs_s": "s",
    "resolve.resolve_s": "s",
    "resolve.coverage": "ratio",
    "align.enumerate_s": "s",
    "align.select_s": "s",
    "align.pair_walks": "count",
    "align.distinct_subjects": "count",
    "align.walks_per_subject": "ratio",
    "align.candidate_paths": "count",
    "align.support_ratio": "ratio",
    "align.lexical_overrides": "count",
    "retrieve.s": "s",
    "retrieve.calls": "count",
    "retrieve.candidates": "count",
    "retrieve.unresolved_ratio": "ratio",
    "validate.s": "s",
    "validate.closure_s": "s",
    "validate.closure_calls": "count",
    "validate.accept_ratio": "ratio",
    "consistency.run_s": "s",
    "consistency.agreement_s": "s",
    "consistency.comparisons": "count",
    "pipeline.self_s": "s",
    "pipeline.report_s": "s",
    "pipeline.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _one_run(run: dict) -> tuple[dict[str, float], dict[str, float]]:
    spans = run["spans"]  # [name, start, end, parent, run id, attrs]
    duration = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += duration[i]
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    attr: dict[tuple[str, str], float] = defaultdict(float)
    load = {"target": 0.0, "external": 0.0}
    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        own[name] += duration[i] - covered[i]
        total[name] += duration[i]
        calls[name] += 1
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                attr[(name, key)] += value
        if name == "load_graph":
            load["target" if attrs["tag"] == run["target_tag"] else "external"] += duration[i]

    walks = attr[("enumerate_paths", "pair_walks")]
    m = {
        "store.load_target_s": load["target"],
        "store.load_external_s": load["external"],
        "store.edges_per_s": _ratio(attr[("load_graph", "edges")], total["load_graph"]),
        "gaps.detect_s": own["detect_gaps"],
        "gaps.calls": calls["detect_gaps"],
        "gaps.known_pairs": attr[("detect_gaps", "known_pairs")],
        "gaps.gap_subjects": attr[("detect_gaps", "gap_subjects")],
        "resolve.build_mapping_s": own["build_mapping"],
        "resolve.build_mapping_calls": calls["build_mapping"],
        "resolve.pairs_s": own["alignment_pairs"],
        "resolve.resolve_s": own["resolve"],
        "resolve.coverage": _ratio(attr[("resolve", "mapped")], attr[("resolve", "nodes")]),
        "align.enumerate_s": own["enumerate_paths"],
        "align.select_s": own["select_path"],
        "align.pair_walks": walks,
        "align.distinct_subjects": run["walked_subjects"],
        "align.walks_per_subject": _ratio(walks, run["walked_subjects"]),
        "align.candidate_paths": attr[("enumerate_paths", "candidate_paths")],
        "align.support_ratio": _ratio(attr[("select_path", "support")], walks),
        "align.lexical_overrides": attr[("select_path", "lexical")],
        "retrieve.s": own["retrieve"],
        "retrieve.calls": calls["retrieve"],
        "retrieve.candidates": attr[("retrieve", "candidates")],
        "retrieve.unresolved_ratio": _ratio(attr[("retrieve", "unresolved")],
                                            attr[("retrieve", "candidates")]),
        "validate.s": own["validate_detailed"],
        "validate.closure_s": own["allowed_class_closure"],
        "validate.closure_calls": calls["allowed_class_closure"],
        "validate.accept_ratio": _ratio(attr[("validate_detailed", "accepted")],
                                        attr[("validate_detailed", "candidates")]),
        "consistency.run_s": total["run_consistency"],
        "consistency.agreement_s": own["agreement"] + own["literal_agreement"],
        "consistency.comparisons": (attr[("agreement", "comparisons")]
                                    + attr[("literal_agreement", "comparisons")]),
        "pipeline.self_s": own["batch_enrich"] + own["enrich_property"],
        "pipeline.report_s": total["write_statements"] + total["emit_report"],
        "pipeline.bytes_written": (attr[("write_statements", "bytes")]
                                   + attr[("emit_report", "bytes")]),
    }
    return m, dict(own)


def layer_metrics(traced: list[dict], memory: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (medians over the traced runs) and median self time per span name."""
    per_run = [_one_run(run) for run in traced]
    metrics = {name: statistics.median(m[name] for m, _ in per_run) for name in per_run[0][0]}
    metrics["store.bytes_per_edge"] = memory["bytes_per_edge"]
    names = {name for _, own in per_run for name in own}
    self_times = {name: statistics.median(own.get(name, 0.0) for _, own in per_run)
                  for name in sorted(names)}
    return metrics, self_times
