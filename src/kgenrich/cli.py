"""Command-line interface.

Subcommands mirror the pipeline stages (load-check, detect-gaps, resolve,
align, retrieve, validate) plus the orchestrated runs (enrich, batch,
consistency, report). Exit codes: 0 success, 1 usage/config error, 2 data
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Mapping

from . import pipeline
from .align import AlignConfig, PropertyPath, score_candidates
from .config import MODE_ALIASES, GraphSpec, PipelineConfig, is_number, load_config, load_graph
from .consistency import Granularity, write_scatter_csv
from .errors import ConfigError, DataFormatError, UsageError
from .resolve import inverse_resolve, resolve
from .retrieve import read_candidates, write_candidates
from .store import Graph
from .validate import ValueTypeConstraint, load_constraints, write_verdicts


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _config(args) -> PipelineConfig:
    """The ``--config`` file with the command's alignment and validation flags applied."""
    if not getattr(args, "config", None):
        raise UsageError("this command requires --config")
    cfg = load_config(args.config)
    if hasattr(args, "max_len"):
        cfg.alignment = _align_config(cfg.alignment, args)
    if getattr(args, "cutoff_year", None) is not None:
        cfg.validation = replace(cfg.validation, cutoff_year=args.cutoff_year)
    return cfg


def _align_config(align: AlignConfig, args) -> AlignConfig:
    """``align`` with the flags given; an out-of-range value is a usage error."""
    flags = {"max_path_length": args.max_len, "sample_cap": args.sample_cap,
             "similarity_threshold": args.threshold, "mode": MODE_ALIASES.get(args.mode)}
    try:
        return replace(align, **{key: value for key, value in flags.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run(args, constraints: Mapping[str, ValueTypeConstraint] | None) -> pipeline.Run:
    """A stage command's run context; one that validates nothing passes ``{}``."""
    cfg = _config(args)
    return pipeline.Run(load_graph(cfg.target, cfg.prefixes), cfg, constraints=constraints)


def _external_graph(cfg: PipelineConfig, tag: str | None) -> Graph:
    """The external graph ``tag``, else the first one."""
    specs = [spec for spec in cfg.externals if tag in (None, spec.tag)]
    if not specs:
        raise ConfigError(f"no external graph with tag {tag!r} in config" if cfg.externals
                          else "missing config key: graphs.externals")
    return load_graph(specs[0], cfg.prefixes)


def _out(args, default_name: str) -> Path:
    directory = Path(getattr(args, "out_dir", None) or ".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory / default_name


def _write_outputs(args, cfg: PipelineConfig, statements, rows, summary=None) -> None:
    """The statement file and the report of ``enrich`` or ``batch``."""
    fmt = cfg.output.format
    pipeline.write_statements(statements, _out(args, "statements.tsv"))
    pipeline.emit_report(rows, fmt, _out(args, f"report.{fmt}"), summary=summary,
                         include_timings=cfg.output.include_timings and not args.no_timings)


# -- subcommand handlers -------------------------------------------------------


def _graph_arg(args) -> tuple[PipelineConfig, Graph]:
    """The ``--config`` file, else the defaults, and the ``--graph`` file loaded under it."""
    spec = GraphSpec(args.graph, args.tag, args.format)
    cfg = load_config(args.config) if args.config else PipelineConfig(target=spec)
    return cfg, load_graph(spec, cfg.prefixes)


def _cmd_load_check(args) -> int:
    graph = _graph_arg(args)[1]
    print(f"graph {graph.tag}: {graph.edge_count} edges, {graph.node_count} nodes, "
          f"{graph.stats.skipped} malformed lines skipped")
    return 0


def _cmd_detect_gaps(args) -> int:
    cfg, graph = _graph_arg(args)
    if args.type_prop:
        cfg.gaps.type_property = args.type_prop
    run = pipeline.Run(graph, cfg, entity_class=args.entity_class, constraints={})
    partition = run.gaps(args.property)
    lines = [(node, "known") for node in partition.known_subjects]
    lines += [(node, "unknown") for node in partition.unknown_subjects]
    out = "\n".join(f"{nid}\t{status}" for nid, status in sorted(lines))
    _write_or_print(args.out, "subject\tstatus\n" + out + ("\n" if out else ""))
    return 0


def _cmd_resolve(args) -> int:
    mapping = _run(args, {}).mapping(args.external_tag)
    ids = [line.strip() for line in Path(args.nodes).read_text(encoding="utf-8").splitlines()
           if line.strip()]
    if args.inverse:
        inv = inverse_resolve(mapping, ids)
        header, footer = "external\ttargets\tflags", ""
        rows = [(ext, ",".join(sorted(nodes)),
                 "ambiguous" if ext in inv.ambiguous else "-")
                for ext, nodes in sorted(inv.mapped.items())]
    else:
        res = resolve(mapping, ids)
        header, footer = "node\texternals", f"#coverage={res.coverage:.4f}\n"
        rows = [(node, ",".join(sorted(exts))) for node, exts in sorted(res.mapped.items())]
    body = "".join("\t".join(row) + "\n" for row in rows)
    _write_or_print(args.out, header + "\n" + body + footer)
    return 0


def _cmd_align(args) -> int:
    run = _run(args, {})
    external = _external_graph(run.cfg, args.external)
    ranked, selected = run.align(external, args.property, run.gaps(args.property))
    scored = score_candidates(external, run.target.label(args.property), ranked)
    lines = ["path\tsupport\tsimilarity\tselected"]
    for cand in scored:
        flag = "true" if selected and cand.steps == selected.steps else "false"
        lines.append(f"{cand.path_str}\t{cand.support}\t{cand.similarity:.4f}\t{flag}")
    _write_or_print(args.out, "\n".join(lines) + "\n")
    return 0


def _parse_path_arg(path_arg: str) -> PropertyPath:
    """The selected path of an align output file, else slash-joined non-empty steps."""
    candidate = Path(path_arg)
    if candidate.is_file():
        with open(candidate, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if "path" not in header or "selected" not in header:
                raise DataFormatError(f"{path_arg}: align file needs path and selected "
                                      f"columns; found {header}")
            col = {name: header.index(name) for name in ("path", "selected")}
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                if len(fields) > col["selected"] and fields[col["selected"]] == "true":
                    return PropertyPath(steps=tuple(fields[col["path"]].split("/")))
        raise DataFormatError(f"{path_arg}: no selected path row")
    if candidate.suffix.lower() == ".tsv":
        raise UsageError(f"--path {path_arg}: no such align file")
    steps = tuple(path_arg.split("/"))
    if not all(steps):
        raise UsageError(f"--path {path_arg!r}: a path step is empty")
    if candidate.is_dir():
        raise UsageError(f"--path {path_arg}: a directory, not an align file or a path")
    return PropertyPath(steps=steps)


def _cmd_retrieve(args) -> int:
    run = _run(args, {})
    external = _external_graph(run.cfg, args.external)
    path = _parse_path_arg(args.path)
    candidates = run.candidates(external, args.property, path,
                                run.gaps(args.property).unknown_subjects)
    write_candidates(candidates, args.out or "candidates.tsv")
    print(f"{len(candidates)} candidates written")
    return 0


def _cmd_validate(args) -> int:
    run = _run(args, load_constraints(args.constraints) if args.constraints else None)
    candidates = read_candidates(args.candidates)
    partition = run.gaps(args.property)
    if not partition.known:
        raise ConfigError(f"property {args.property} has no known values in "
                          f"{run.target.tag} to infer a datatype from")
    outcome = run.validate(args.property, partition.known, candidates)
    write_verdicts(outcome.verdicts, args.out or "verdicts.tsv")
    print(f"{len(outcome.accepted)} of {len(candidates)} candidates accepted")
    return 0


def _cmd_enrich(args) -> int:
    cfg = _config(args)
    target = load_graph(cfg.target, cfg.prefixes)
    external = _external_graph(cfg, args.external)
    result = pipeline.enrich_property(target, external, args.property, cfg,
                                      entity_class=args.entity_class)
    _write_outputs(args, cfg, result.statements, [result])
    print(f"{result.property}: status={result.status} s_w={result.s_w} "
          f"s_g={result.s_g} s_e={result.s_e}")
    return 0


def _cmd_batch(args) -> int:
    properties = _property_list(args)
    cfg = _config(args)
    target = load_graph(cfg.target, cfg.prefixes)
    externals = [load_graph(spec, cfg.prefixes) for spec in cfg.externals]
    if not externals:
        raise ConfigError("missing config key: graphs.externals")
    batch = pipeline.batch_enrich(target, externals, properties, cfg,
                                  entity_class=args.entity_class)
    statements = batch.statements()
    _write_outputs(args, cfg, statements, batch.all_rows,
                   {"median_novel_statements": batch.median_novel,
                    "properties": len(properties)})
    print(f"batch: {len(batch.rows)} rows, {len(statements)} validated statements")
    return 0


def _property_list(args) -> list[str]:
    if args.properties:
        properties = args.properties.split(",")
    elif args.properties_file:
        properties = Path(args.properties_file).read_text(encoding="utf-8").splitlines()
    else:
        raise UsageError("batch needs --properties or --properties-file")
    if properties := [p.strip() for p in properties if p.strip()]:
        return properties
    raise UsageError("batch needs at least one property")


def _cmd_consistency(args) -> int:
    cfg = _config(args)
    target = load_graph(cfg.target, cfg.prefixes)
    external = _external_graph(cfg, args.external)
    granularity = Granularity(args.granularity) if args.granularity else None
    outcome = pipeline.run_consistency(target, external, args.property, cfg,
                                       granularity, entity_class=args.entity_class)
    report_path = _out(args, "consistency.json")
    report_path.write_text(json.dumps(outcome.report_dict(), indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    if outcome.report.granularity is not None:
        write_scatter_csv(outcome.report, _out(args, "scatter.csv"))
    print(json.dumps(outcome.report_dict(), sort_keys=True))
    return 0


_RESULT_COUNTS = ("s_w", "s_g", "s_e", "n_k", "n_u", "n_f", "n_c")


def _result_row(raw, where: str) -> pipeline.EnrichmentResult:
    """One results-JSON row as a result; a missing or mistyped key is a data error."""
    if not isinstance(raw, dict) or "property" not in raw or "graph" not in raw:
        raise DataFormatError(f"{where} is not an object with property and graph")
    counts = {key: raw.get(key, 0) for key in _RESULT_COUNTS}
    for key, value in counts.items():
        if not is_number(value, int):
            raise DataFormatError(f"{where}: {key} must be an integer, not {value!r}")
    path = raw.get("path")
    if path is not None and not isinstance(path, str):
        raise DataFormatError(f"{where}: path must be a string, not {path!r}")
    timings = raw.get("timings", {})
    if not isinstance(timings, dict) or not all(map(is_number, timings.values())):
        raise DataFormatError(f"{where}: timings must map stage names to seconds")
    return pipeline.EnrichmentResult(
        property=raw["property"], graph=raw["graph"], status=raw.get("status", "ok"),
        selected_path=PropertyPath(steps=tuple(path.split("/"))) if path else None,
        timings=timings, **counts)


def _cmd_report(args) -> int:
    with open(args.results, encoding="utf-8") as fh:
        doc = json.load(fh)
    results = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(results, list) or not results:
        raise DataFormatError(f"{args.results}: expected an object with a non-empty results list")
    summary = doc.get("summary")
    if summary is not None and not isinstance(summary, dict):
        raise DataFormatError(f"{args.results}: summary must be an object, not {summary!r}")
    rows = [_result_row(raw, f"{args.results}: results[{i}]")
            for i, raw in enumerate(results)]
    pipeline.emit_report(rows, args.format, args.out or f"report.{args.format}",
                         include_timings=not args.no_timings, summary=summary)
    return 0


def _write_or_print(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- wiring --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="kgenrich",
                     description="Knowledge-graph enrichment from linked-data sources")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary, *required):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = add("load-check", _cmd_load_check, "load a graph and print stats", "--graph")
    p.add_argument("--format", choices=("nt", "tsv"), default="")
    p.add_argument("--tag", default="graph")
    p.add_argument("--config")

    p = add("detect-gaps", _cmd_detect_gaps, "partition subjects into known/unknown",
            "--graph", "--property")
    p.add_argument("--format", choices=("nt", "tsv"), default="")
    p.add_argument("--tag", default="graph")
    p.add_argument("--class", dest="entity_class")
    p.add_argument("--type-prop", help="type property (default: the config's, else P31)")
    p.add_argument("--config")
    p.add_argument("--out")

    p = add("resolve", _cmd_resolve, "map node ids through an entity mapping", "--config")
    p.add_argument("--graph-tag", dest="external_tag", required=True)
    p.add_argument("--nodes", required=True, help="file with one node id per line")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--out")

    p = add("align", _cmd_align, "rank and select external property paths",
            "--config", "--property")
    p.add_argument("--external", help="external graph tag (default: first)")
    p.add_argument("--max-len", type=int)
    p.add_argument("--sample-cap", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--mode", choices=("hybrid", "freq", "frequency", "string"))
    p.add_argument("--out")

    p = add("retrieve", _cmd_retrieve, "collect candidate statements over a path",
            "--config", "--property")
    p.add_argument("--path", required=True,
                   help="align output file or slash-joined steps")
    p.add_argument("--external")
    p.add_argument("--out")

    p = add("validate", _cmd_validate, "validate a candidate file",
            "--config", "--property", "--candidates")
    p.add_argument("--constraints")
    p.add_argument("--cutoff-year", type=int)
    p.add_argument("--out")

    p = add("enrich", _cmd_enrich, "run the full pipeline for one property",
            "--config", "--property")
    p.add_argument("--class", dest="entity_class")
    p.add_argument("--external")
    p.add_argument("--out-dir")
    p.add_argument("--no-timings", action="store_true")

    p = add("batch", _cmd_batch, "run the pipeline for many properties", "--config")
    p.add_argument("--properties", help="comma-separated property ids")
    p.add_argument("--properties-file")
    p.add_argument("--class", dest="entity_class")
    p.add_argument("--out-dir")
    p.add_argument("--no-timings", action="store_true")

    p = add("consistency", _cmd_consistency, "agreement on overlapping subjects",
            "--config", "--property")
    p.add_argument("--granularity", choices=("year", "day"))
    p.add_argument("--class", dest="entity_class")
    p.add_argument("--external")
    p.add_argument("--out-dir")

    p = add("report", _cmd_report, "re-render a JSON report", "--results")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--no-timings", action="store_true")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit:  # --help printed the help; usage errors raise UsageError
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
