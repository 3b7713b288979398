"""In-memory span recorder that wraps kgenrich functions at their call sites.

Each wrapper replaces a module attribute (``cli.load_graph``,
``pipeline.detect_gaps``, ...) so that callers which look the name up at run
time go through it. A span is (name, start, end, parent span, run id, attrs);
``attrs`` holds counts derived from the wrapped call's arguments and return
value, computed after the span has ended. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable

AttrFn = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self.walked_subjects: set[tuple[str, str]] = set()
        self._stack: list[int] = []

    def wrap(self, module, name: str, attrs: AttrFn | None = None) -> None:
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        setattr(module, name, wrapper)


# -- attribute extractors -----------------------------------------------------


def _load_attrs(graphs: dict):
    def attrs(args, kwargs, graph):
        graphs[graph.tag] = graph
        spec = args[0]
        return {"tag": graph.tag, "format": spec.resolved_format(), "edges": graph.edge_count}
    return attrs


def _gaps_attrs(args, kwargs, partition):
    return {"known_pairs": len(partition.known),
            "gap_subjects": len(partition.unknown_subjects)}


def _resolve_attrs(args, kwargs, resolution):
    return {"nodes": len(args[1]), "mapped": len(resolution.mapped)}


def _enumerate_attrs(tracer: Tracer):
    # pipeline passes the set built by alignment_pairs: (external id, id or literal)
    def attrs(args, kwargs, ranked):
        graph, pairs, cfg = args[:3]
        tracer.walked_subjects.update((graph.tag, s) for s, _ in pairs)
        return {"pair_walks": min(len(pairs), cfg.sample_cap), "candidate_paths": len(ranked)}
    return attrs


def _select_attrs(args, kwargs, selected):
    graph, cfg = args[2], args[3]
    if selected is None:
        return {"graph": graph.tag, "support": 0, "lexical": 0}
    lexical = cfg.mode.value == "hybrid" and selected.similarity >= cfg.similarity_threshold
    return {"graph": graph.tag, "support": selected.support, "lexical": int(lexical)}


def _retrieve_attrs(args, kwargs, candidates):
    return {"candidates": len(candidates),
            "unresolved": sum(1 for c in candidates if c.unresolved)}


def _validate_attrs(args, kwargs, outcome):
    return {"candidates": len(args[1]), "accepted": len(outcome.accepted)}


def _agreement_attrs(args, kwargs, report):
    return {"comparisons": report.s_overlap + getattr(report, "skipped", 0)}


def _bytes_attrs(path_index: int):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_index])}
    return attrs


def install(tracer: Tracer, graphs: dict, *, full: bool) -> None:
    """Wrap ``cli.load_graph`` always, and every traced layer when ``full``."""
    # importlib, because the package re-exports functions named like modules
    cli, pipeline, validate = (importlib.import_module(f"kgenrich.{name}")
                               for name in ("cli", "pipeline", "validate"))
    tracer.wrap(cli, "load_graph", _load_attrs(graphs))
    if not full:
        return
    for name, attrs in (
            ("batch_enrich", None), ("enrich_property", None),
            ("detect_gaps", _gaps_attrs), ("build_mapping", None),
            ("alignment_pairs", None), ("resolve", _resolve_attrs),
            ("enumerate_paths", _enumerate_attrs(tracer)), ("select_path", _select_attrs),
            ("retrieve", _retrieve_attrs), ("validate_detailed", _validate_attrs),
            ("run_consistency", None), ("agreement", _agreement_attrs),
            ("literal_agreement", _agreement_attrs),
            ("write_statements", _bytes_attrs(1)), ("emit_report", _bytes_attrs(2))):
        tracer.wrap(pipeline, name, attrs)
    tracer.wrap(validate, "allowed_class_closure")
