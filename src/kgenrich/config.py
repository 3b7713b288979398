"""Declarative pipeline configuration.

One YAML (or JSON) file per experiment with sections: graphs, prefixes,
mappings, alignment, validation, gaps, output. Everything has a default
except the graph paths and the per-external-graph link mapping.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import yaml

from .align import AlignConfig, AlignMode
from .errors import ConfigError
from .resolve import IdTransform
from .store import (DEFAULT_LABEL_PROPERTIES, DEFAULT_MALFORMED_THRESHOLD,
                    Graph, load_edge_tsv, load_ntriples)
from .validate import ValidationSettings, ValueTypeConstraint, load_constraints

MODE_ALIASES = {
    "hybrid": AlignMode.HYBRID,
    "freq": AlignMode.FREQUENCY_ONLY,
    "frequency": AlignMode.FREQUENCY_ONLY,
    "string": AlignMode.STRING_ONLY,
}


@dataclass
class GraphSpec:
    path: str
    tag: str
    format: str = ""  # "nt" | "tsv"; inferred from the suffix when empty
    label_properties: tuple[str, ...] = DEFAULT_LABEL_PROPERTIES
    malformed_threshold: float = DEFAULT_MALFORMED_THRESHOLD

    def resolved_format(self) -> str:
        if self.format:
            return self.format
        suffix = Path(self.path).suffix.lower()
        if suffix in (".nt", ".ntriples"):
            return "nt"
        return "tsv"


@dataclass
class MappingSpec:
    link_property: str
    prefix: str = ""
    suffix: str = ""

    def transform(self) -> IdTransform:
        return IdTransform(prefix=self.prefix, suffix=self.suffix)


@dataclass
class GapSettings:
    type_property: str = "P31"
    no_value_sentinel: str | None = None


@dataclass
class OutputSettings:
    format: str = "tsv"  # "tsv" | "json"
    include_timings: bool = True


@dataclass
class PipelineConfig:
    target: GraphSpec
    externals: list[GraphSpec] = field(default_factory=list)
    prefixes: dict[str, str] = field(default_factory=dict)
    mappings: dict[str, MappingSpec] = field(default_factory=dict)
    alignment: AlignConfig = field(default_factory=AlignConfig)
    validation: ValidationSettings = field(default_factory=ValidationSettings)
    constraints_path: str | None = None
    gaps: GapSettings = field(default_factory=GapSettings)
    output: OutputSettings = field(default_factory=OutputSettings)

    def mapping_for(self, tag: str) -> MappingSpec:
        try:
            return self.mappings[tag]
        except KeyError:
            raise ConfigError(f"missing config key: mappings.{tag}") from None

    def load_constraint_table(self) -> dict[str, ValueTypeConstraint]:
        if not self.constraints_path:
            return {}
        return load_constraints(self.constraints_path)


def _require(section: Mapping, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing config key: {where}.{key}")
    return section[key]


def _mapping(raw, where: str) -> Mapping:
    """A config section: absent (None) reads as {}; anything but a mapping is an error."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be a mapping, not {type(raw).__name__}")
    return raw


def _optional(section: Mapping, key: str, types: tuple[type, ...], where: str):
    """``section[key]``, which must be absent, null or an instance of one of ``types``."""
    value = section.get(key)
    if value is not None and not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{where}.{key} must be {names}, not {value!r}")
    return value


def _one_of(value, allowed: tuple[str, ...], where: str) -> str:
    if value not in allowed:
        raise ConfigError(f"{where} must be one of {[a for a in allowed if a]}, not {value!r}")
    return value


def _boolean(value, where: str) -> bool:
    """A real boolean; ``bool("false")`` would be True."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, not {value!r}")
    return value


def _string_map(raw, where: str) -> dict[str, str]:
    raw = _mapping(raw, where)
    for key, value in raw.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            raise ConfigError(f"{where} must map strings to strings, not {key!r}: {value!r}")
    return dict(raw)


@contextmanager
def _values_of(where: str, errors: type | tuple = (TypeError, ValueError, OverflowError)):
    """Turn ``errors`` met while building ``where`` into a one-line ConfigError."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{where}: {' '.join(str(exc).split())}") from None


def _text(value, where: str, empty: bool = False) -> str:
    """A string, non-empty unless ``empty``; ``str()`` would pass a list or a null as text."""
    if not isinstance(value, str) or not (value or empty):
        kind = "string" if empty else "non-empty string"
        raise ConfigError(f"{where} must be a {kind}, not {value!r}")
    return value


def _string_list(value, where: str) -> tuple[str, ...]:
    """A list of non-empty strings; a lone string would split into characters."""
    if not (isinstance(value, (list, tuple))
            and all(isinstance(item, str) and item for item in value)):
        raise ConfigError(f"{where} must be a list of non-empty strings, not {value!r}")
    return tuple(value)


def _graph_spec(raw, where: str) -> GraphSpec:
    raw = _mapping(raw, where)
    with _values_of(where):
        return GraphSpec(
            path=_text(_require(raw, "path", where), f"{where}.path"),
            tag=_text(_require(raw, "tag", where), f"{where}.tag"),
            format=_one_of(raw.get("format", ""), ("", "nt", "tsv"), f"{where}.format"),
            label_properties=_string_list(
                raw.get("label_properties", DEFAULT_LABEL_PROPERTIES), f"{where}.label_properties"),
            malformed_threshold=float(raw.get("malformed_threshold",
                                              DEFAULT_MALFORMED_THRESHOLD)),
        )


def config_from_dict(data: Mapping) -> PipelineConfig:
    graphs = _mapping(_require(data, "graphs", "<root>"), "graphs")
    target = _graph_spec(_require(graphs, "target", "graphs"), "graphs.target")
    raw_externals = graphs.get("externals") or []
    if not isinstance(raw_externals, list):
        raise ConfigError("graphs.externals must be a list")
    externals = [_graph_spec(raw, f"graphs.externals[{i}]")
                 for i, raw in enumerate(raw_externals)]

    mappings = {}
    for tag, raw in _mapping(data.get("mappings"), "mappings").items():
        # a tag that would break the message's line is shown as its repr
        where = f"mappings.{tag}" if str(tag).isprintable() else f"mappings[{tag!r}]"
        raw = _mapping(raw, where)
        transform = _mapping(raw.get("transform"), f"{where}.transform")
        mappings[tag] = MappingSpec(
            link_property=_text(_require(raw, "link_property", where), f"{where}.link_property"),
            prefix=_text(raw.get("prefix", transform.get("prefix", "")), f"{where}.prefix", True),
            suffix=_text(raw.get("suffix", transform.get("suffix", "")), f"{where}.suffix", True),
        )

    align_raw = _mapping(data.get("alignment"), "alignment")
    mode_name = str(align_raw.get("mode", "hybrid")).lower()
    if mode_name not in MODE_ALIASES:
        raise ConfigError(f"alignment.mode must be one of {sorted(MODE_ALIASES)}")
    with _values_of("alignment"):
        alignment = AlignConfig(
            max_path_length=int(align_raw.get("max_path_length", 1)),
            sample_cap=int(align_raw.get("sample_cap", 200_000)),
            top_k=int(align_raw.get("top_k", 10)),
            similarity_threshold=float(align_raw.get("similarity_threshold", 0.9)),
            mode=MODE_ALIASES[mode_name],
            sample_seed=_optional(align_raw, "sample_seed", (int, float, str), "alignment"),
        )

    val_raw = _mapping(data.get("validation"), "validation")
    with _values_of("validation"):
        validation = ValidationSettings(
            cutoff_year=int(val_raw.get("cutoff_year", 2022)),
            depth_cap=int(val_raw.get("depth_cap", 20)),
            instance_of=_text(val_raw.get("instance_of", "P31"), "validation.instance_of"),
            subclass_of=_text(val_raw.get("subclass_of", "P279"), "validation.subclass_of"),
        )

    gaps_raw = _mapping(data.get("gaps"), "gaps")
    gap_settings = GapSettings(
        type_property=_text(gaps_raw.get("type_property", "P31"), "gaps.type_property"),
        no_value_sentinel=_optional(gaps_raw, "no_value_sentinel", (str,), "gaps"),
    )

    out_raw = _mapping(data.get("output"), "output")
    output = OutputSettings(
        format=_one_of(out_raw.get("format", "tsv"), ("tsv", "json"), "output.format"),
        include_timings=_boolean(out_raw.get("include_timings", True),
                                 "output.include_timings"),
    )

    return PipelineConfig(
        target=target, externals=externals,
        prefixes=_string_map(data.get("prefixes"), "prefixes"),
        mappings=mappings, alignment=alignment, validation=validation,
        constraints_path=_optional(val_raw, "constraints", (str,), "validation"),
        gaps=gap_settings, output=output,
    )


def load_config(path: str | Path) -> PipelineConfig:
    # a YAMLError's text names the line and column, over several lines
    with open(path, encoding="utf-8") as fh, _values_of(f"{path}: malformed YAML", yaml.YAMLError):
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    cfg = config_from_dict(data)
    # paths in the file are relative to the file's directory
    base = Path(path).parent
    cfg.target.path = str((base / cfg.target.path))
    for spec in cfg.externals:
        spec.path = str(base / spec.path)
    if cfg.constraints_path:
        cfg.constraints_path = str(base / cfg.constraints_path)
    return cfg


def load_graph(spec: GraphSpec, prefixes: Mapping[str, str] | None = None) -> Graph:
    """Load the graph ``spec`` names and freeze it out of the cyclic GC.

    The loader runs with the cyclic collector paused, and a graph that loads
    is then moved to the collector's permanent generation with
    ``gc.freeze()``, so later collections never rescan it. The freeze is
    process-wide: it also covers every other object alive at that moment.
    It is safe because a ``Graph`` holds no reference cycles, so a graph
    that is dropped is still freed by refcounting. The caller's
    ``gc.isenabled()`` state is restored whether or not the load succeeds.
    """
    loader = load_ntriples if spec.resolved_format() == "nt" else load_edge_tsv
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        graph = loader(spec.path, spec.tag, prefixes=prefixes,
                       label_properties=spec.label_properties,
                       malformed_threshold=spec.malformed_threshold)
        gc.freeze()
    finally:
        if was_enabled:
            gc.enable()
    return graph
