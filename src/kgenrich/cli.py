"""Command-line interface.

Subcommands mirror the pipeline stages (load-check, detect-gaps, resolve,
align, retrieve, validate) plus the orchestrated runs (enrich, batch,
consistency). Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .align import PropertyPath, score_candidates
from .config import (GRAPH_LOADERS, MODE_ALIASES, GraphSpec, PipelineConfig, load_config,
                     load_graph)
from .consistency import Granularity, write_scatter_csv
from .errors import ConfigError, DataFormatError, UsageError
from .resolve import build_mapping, inverse_resolve, resolve
from .retrieve import read_candidates, write_candidates
from .store import Graph, read_tsv, write_atomic, write_tsv
from .validate import write_verdicts


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


# flag (argparse dest) -> the config key (section, key) it overrides for one command
_OVERRIDES = {
    "max_len": ("alignment", "max_path_length"),
    "sample_cap": ("alignment", "sample_cap"),
    "threshold": ("alignment", "similarity_threshold"),
    "mode": ("alignment", "mode"),
    "cutoff_year": ("validation", "cutoff_year"),
    "constraints": ("validation", "constraints"),
    "type_prop": ("gaps", "type_property"),
}


def _override(cfg: PipelineConfig, args) -> PipelineConfig:
    """``cfg`` with the key of each flag given set to the flag's value; a value that
    the key's section refuses is a usage error. A path flag is kept as given, so it
    is read from the working directory, not the config file's."""
    changes: dict[str, dict] = {}
    for flag, (section, key) in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value not in (None, ""):
            changes.setdefault(section, {})[key] = MODE_ALIASES[value] if flag == "mode" else value
    try:
        for section, keys in changes.items():
            setattr(cfg, section, replace(getattr(cfg, section), **keys))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _config(args) -> PipelineConfig:
    """The ``--config`` file with the command's flags applied."""
    if not getattr(args, "config", None):
        raise UsageError("this command requires --config")
    return _override(load_config(args.config), args)


def _externals(cfg: PipelineConfig, tag: str | None, every: bool = False) -> list[GraphSpec]:
    """The external graphs a command uses: the one tagged ``tag`` (else the first), or
    all of them when ``every``. Each one's mapping is checked before any graph loads."""
    if not cfg.externals:
        raise ConfigError("missing config key: graphs.externals")
    specs = cfg.externals if every else [s for s in cfg.externals if tag in (None, s.tag)][:1]
    if not specs:
        raise ConfigError(f"no external graph with tag {tag!r} in config")
    for spec in specs:
        cfg.mapping_for(spec.tag)
    return specs


def _graphs(cfg: PipelineConfig, tag: str | None,
            every: bool = False) -> tuple[Graph, list[Graph]]:
    """The target and the external graphs ``_externals`` picks, loaded in that order."""
    specs = _externals(cfg, tag, every)
    return load_graph(cfg.target, cfg.prefixes), [load_graph(s, cfg.prefixes) for s in specs]


def _out(args, default_name: str) -> Path:
    directory = Path(getattr(args, "out_dir", None) or ".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory / default_name


def _write_outputs(args, cfg: PipelineConfig, statements, rows, summary=None) -> None:
    """The statement file and the report of ``enrich`` or ``batch``."""
    fmt = cfg.output.format
    pipeline.write_statements(statements, _out(args, "statements.tsv"))
    pipeline.emit_report(rows, fmt, _out(args, f"report.{fmt}"), summary=summary,
                         include_timings=not args.no_timings)


# -- subcommand handlers -------------------------------------------------------


def _graph_arg(args) -> tuple[PipelineConfig, Graph]:
    """The ``--config`` file, else the defaults, and the ``--graph`` file loaded under it."""
    spec = GraphSpec(args.graph, args.tag, args.format)
    cfg = _override(load_config(args.config) if args.config else PipelineConfig(spec), args)
    return cfg, load_graph(spec, cfg.prefixes)


def _cmd_load_check(args) -> int:
    graph = _graph_arg(args)[1]
    print(f"graph {graph.tag}: {graph.edge_count} edges, {graph.node_count} nodes, "
          f"{graph.stats.skipped} malformed lines skipped, "
          f"{graph.stats.duplicates} duplicate lines")
    return 0


def _cmd_detect_gaps(args) -> int:
    cfg, graph = _graph_arg(args)
    run = pipeline.Run(graph, cfg, entity_class=args.entity_class, constraints={})
    partition = run.gaps(args.property)
    rows = [(node, "known") for node in partition.known_subjects]
    rows += [(node, "unknown") for node in partition.unknown_subjects]
    write_tsv(args.out, ("subject", "status"), sorted(rows))
    return 0


def _cmd_resolve(args) -> int:
    cfg = _config(args)
    (spec,) = _externals(cfg, args.external)
    ids = [line.strip() for line in Path(args.nodes).read_text(encoding="utf-8").splitlines()
           if line.strip()]
    mapping = build_mapping(load_graph(cfg.target, cfg.prefixes), cfg.mapping_for(spec.tag))
    if args.inverse:
        inv = inverse_resolve(mapping, ids)
        write_tsv(args.out, ("external", "targets", "flags"), [
            (ext, ",".join(nodes), "ambiguous" if ext in inv.ambiguous else "-")
            for ext, nodes in sorted(inv.mapped.items())])
    else:
        res = resolve(mapping, ids)
        write_tsv(args.out, ("node", "externals"), [
            *((node, ",".join(exts)) for node, exts in sorted(res.mapped.items())),
            (f"#coverage={res.coverage:.4f}",)])
    return 0


def _cmd_align(args) -> int:
    cfg = _config(args)
    target, (external,) = _graphs(cfg, args.external)
    run = pipeline.Run(target, cfg, constraints={})
    ranked, selected = run.align(external, args.property, run.gaps(args.property))
    scored = score_candidates(external, run.target.label(args.property), ranked)
    write_tsv(args.out, ("path", "support", "similarity", "selected"), [
        (cand.path_str, str(cand.support), f"{cand.similarity:.4f}",
         "true" if selected and cand.steps == selected.steps else "false")
        for cand in scored])
    return 0


def _parse_path_arg(path_arg: str) -> PropertyPath:
    """The one selected path of an align output file, else a path as ``path_str`` writes it."""
    candidate = Path(path_arg)
    if candidate.is_file():
        selected = [path for path in read_tsv(
            candidate, ("path", "selected"),
            lambda steps, flag: PropertyPath.parse(steps) if flag == "true" else None) if path]
        if len(selected) != 1:
            raise DataFormatError(f"{path_arg}: {len(selected) or 'no'} selected path rows; "
                                  "needs one")
        return selected[0]
    if candidate.suffix.lower() == ".tsv":
        raise UsageError(f"--path {path_arg}: no such align file")
    if path_arg and candidate.is_dir():  # Path("") is the working directory
        raise UsageError(f"--path {path_arg}: a directory, not an align file or a path")
    try:
        return PropertyPath.parse(path_arg)
    except ValueError as exc:
        raise UsageError(f"--path {exc}") from None


def _cmd_retrieve(args) -> int:
    cfg = _config(args)
    path = _parse_path_arg(args.path)
    target, (external,) = _graphs(cfg, args.external)
    run = pipeline.Run(target, cfg, constraints={})
    candidates = run.candidates(external, args.property, path,
                                run.gaps(args.property).unknown_subjects)
    write_candidates(candidates, args.out or "candidates.tsv")
    print(f"{len(candidates)} candidates written")
    return 0


def _cmd_validate(args) -> int:
    cfg = _config(args)
    candidates = read_candidates(args.candidates, args.property)
    run = pipeline.Run(load_graph(cfg.target, cfg.prefixes), cfg)
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
    target, (external,) = _graphs(cfg, args.external)
    result = pipeline.enrich_property(target, external, args.property, cfg,
                                      entity_class=args.entity_class)
    _write_outputs(args, cfg, result.statements, [result])
    print(f"{result.property}: status={result.status} s_w={result.s_w} "
          f"s_g={result.s_g} s_e={result.s_e}")
    return 0


def _cmd_batch(args) -> int:
    properties = _property_list(args)
    cfg = _config(args)
    target, externals = _graphs(cfg, None, every=True)
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
    properties = [p.strip() for p in properties if p.strip()]
    if not properties:
        raise UsageError("batch needs at least one property")
    if repeated := [p for p, count in Counter(properties).items() if count > 1]:
        raise UsageError(f"batch lists property {repeated[0]} more than once")
    return properties


def _cmd_consistency(args) -> int:
    cfg = _config(args)
    target, (external,) = _graphs(cfg, args.external)
    granularity = Granularity(args.granularity) if args.granularity else None
    outcome = pipeline.run_consistency(target, external, args.property, cfg,
                                       granularity, entity_class=args.entity_class)
    write_atomic(_out(args, "consistency.json"),
                 json.dumps(outcome.report_dict(), indent=2, sort_keys=True) + "\n")
    if outcome.report.granularity is not None:
        write_scatter_csv(outcome.report, _out(args, "scatter.csv"))
    print(json.dumps(outcome.report_dict(), sort_keys=True))
    return 0


# -- wiring --------------------------------------------------------------------


# flag -> its argparse keywords; the dest is the flag's name unless given
_FLAGS: dict[str, dict] = {
    "--config": {}, "--graph": {}, "--property": {}, "--properties-file": {},
    "--candidates": {}, "--constraints": {}, "--out": {}, "--out-dir": {},
    "--max-len": {"type": int}, "--sample-cap": {"type": int}, "--cutoff-year": {"type": int},
    "--threshold": {"type": float},
    "--inverse": {"action": "store_true"}, "--no-timings": {"action": "store_true"},
    "--format": {"choices": tuple(GRAPH_LOADERS), "default": ""},
    "--mode": {"choices": tuple(MODE_ALIASES)},
    "--granularity": {"choices": tuple(g.value for g in Granularity)},
    "--tag": {"default": "graph"}, "--class": {"dest": "entity_class"},
    "--properties": {"help": "comma-separated property ids"},
    "--type-prop": {"help": "type property (default: the config's, else P31)"},
    "--external": {"help": "external graph tag (default: the first)"},
    "--nodes": {"help": "file with one node id per line"},
    "--path": {"help": "align output file or slash-joined steps"},
}

# subcommand -> (handler, help, required flags, optional flags)
_COMMANDS = {
    "load-check": (_cmd_load_check, "load a graph and print stats",
                   ("--graph",), ("--format", "--tag", "--config")),
    "detect-gaps": (_cmd_detect_gaps, "partition subjects into known/unknown",
                    ("--graph", "--property"),
                    ("--format", "--tag", "--class", "--type-prop", "--config", "--out")),
    "resolve": (_cmd_resolve, "map node ids through an entity mapping",
                ("--config", "--nodes"), ("--external", "--inverse", "--out")),
    "align": (_cmd_align, "rank and select external property paths",
              ("--config", "--property"),
              ("--external", "--max-len", "--sample-cap", "--threshold", "--mode", "--out")),
    "retrieve": (_cmd_retrieve, "collect candidate statements over a path",
                 ("--config", "--property", "--path"), ("--external", "--out")),
    "validate": (_cmd_validate, "validate a candidate file",
                 ("--config", "--property", "--candidates"),
                 ("--constraints", "--cutoff-year", "--out")),
    "enrich": (_cmd_enrich, "run the full pipeline for one property",
               ("--config", "--property"), ("--class", "--external", "--out-dir", "--no-timings")),
    "batch": (_cmd_batch, "run the pipeline for many properties", ("--config",),
              ("--properties", "--properties-file", "--class", "--out-dir", "--no-timings")),
    "consistency": (_cmd_consistency, "agreement on overlapping subjects",
                    ("--config", "--property"),
                    ("--granularity", "--class", "--external", "--out-dir")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="kgenrich",
                     description="Knowledge-graph enrichment from linked-data sources")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag in (*required, *optional):
            p.add_argument(flag, required=flag in required, **_FLAGS[flag])
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
