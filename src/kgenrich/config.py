"""Declarative pipeline configuration.

One YAML (or JSON) file per experiment with sections: graphs, prefixes,
mappings, alignment, validation, gaps, output. Everything has a default
except the graph paths and the per-external-graph link mapping. Every key
is read through one schema table (``_SCHEMA``): each value is checked, and a
key the table does not know is an error naming the closest known key.
"""

from __future__ import annotations

import difflib
import gc
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import yaml

from .align import AlignConfig, AlignMode
from .errors import ConfigError
from .resolve import MappingSpec
from .store import (DEFAULT_LABEL_PROPERTIES, DEFAULT_MALFORMED_THRESHOLD,
                    Graph, load_edge_tsv, load_ntriples)
from .validate import ValidationSettings

MODE_ALIASES = {
    "hybrid": AlignMode.HYBRID,
    "freq": AlignMode.FREQUENCY_ONLY,
    "frequency": AlignMode.FREQUENCY_ONLY,
    "string": AlignMode.STRING_ONLY,
}

# graph format -> its loader; the ``format`` key, ``--format`` and ``load_graph`` read it
GRAPH_LOADERS = {"nt": load_ntriples, "tsv": load_edge_tsv}


@dataclass
class GraphSpec:
    path: str
    tag: str
    format: str = ""  # a key of GRAPH_LOADERS; inferred from the suffix when empty
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
class GapSettings:
    type_property: str = "P31"
    no_value_sentinel: str | None = None


@dataclass
class OutputSettings:
    format: str = "tsv"  # "tsv" | "json"


@dataclass
class PipelineConfig:
    target: GraphSpec
    externals: list[GraphSpec] = field(default_factory=list)
    prefixes: dict[str, str] = field(default_factory=dict)
    mappings: dict[str, MappingSpec] = field(default_factory=dict)
    alignment: AlignConfig = field(default_factory=AlignConfig)
    validation: ValidationSettings = field(default_factory=ValidationSettings)
    gaps: GapSettings = field(default_factory=GapSettings)
    output: OutputSettings = field(default_factory=OutputSettings)

    def mapping_for(self, tag: str) -> MappingSpec:
        try:
            return self.mappings[tag]
        except KeyError:
            raise ConfigError(f"missing config key: mappings.{tag}") from None


def _dotted(where: str, key) -> str:
    """``where.key``; a key that would break the message's line is shown as its repr."""
    if isinstance(key, str) and key.isprintable() and key:
        return f"{where}.{key}" if where else key
    return f"{where}[{key!r}]"


def _mapping(raw, where: str) -> Mapping:
    """A config section: absent (None) reads as {}; anything but a mapping is an error."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where or 'config'} must be a mapping, not {type(raw).__name__}")
    return raw


@contextmanager
def _values_of(where: str, errors: type | tuple = ValueError):
    """Turn ``errors`` met while building ``where`` into a one-line ConfigError."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{where}: {' '.join(str(exc).split())}") from None


def is_number(value, kinds: type | tuple = (int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check(test: Callable[[object], bool], what: str, convert: Callable = lambda v: v):
    """A check of one value at its dotted key: ``convert(value)`` if ``test`` passes it,
    else an error saying what the value must be."""
    def check(value, where: str):
        if not test(value):
            raise ConfigError(f"{where} must be {what}, not {value!r}")
        return convert(value)
    return check


def _number(real: bool = False, low: float = -math.inf, high: float = math.inf):
    """An int (a float too if ``real``) in [low, high]; ``int()`` and ``float()``
    would pass 2.7, true, "12" and NaN."""
    bounds = ("" if low == -math.inf else f" >= {low}" if high == math.inf
              else f" in [{low}, {high}]")
    return _check(lambda v: is_number(v, (int, float) if real else int) and low <= v <= high,
                  f"{'a number' if real else 'an integer'}{bounds}", float if real else int)


def _one_of(*allowed: str):
    return _check(lambda v: v in allowed, f"one of {[a for a in allowed if a]}")


# ``str()`` would pass a list or a null as text
_ID = _check(lambda v: isinstance(v, str) and v != "", "a non-empty string")
_STRING = _check(lambda v: isinstance(v, str), "a string")
_STRING_OR_NULL = _check(lambda v: v is None or isinstance(v, str), "a string or null")


def _keyed(value, where: str, check) -> dict:
    """A mapping from strings (prefix names, external tags) to values that pass ``check``."""
    return {_STRING(key, f"{where} key"): check(item, _dotted(where, key))
            for key, item in _mapping(value, where).items()}


def _externals(value, where: str) -> list[GraphSpec]:
    """A list of graph specs with distinct tags: a batch report row is keyed by tag."""
    if not isinstance(value, (list, type(None))):
        raise ConfigError(f"{where} must be a list, not {value!r}")
    specs = [_section("graph", raw, f"{where}[{i}]") for i, raw in enumerate(value or ())]
    tags = [spec.tag for spec in specs]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"{where}[{i}].tag repeats {where}[{tags.index(tag)}].tag {tag!r}")
    return specs


def _pipeline(graphs: PipelineConfig, **sections) -> PipelineConfig:
    """The config that the ``graphs`` section started, with the other sections."""
    return replace(graphs, **sections)


def _section(name: str, raw, where: str):
    """``raw``, at the dotted key ``where``, read as section ``name`` of ``_SCHEMA``."""
    build, checks = _SCHEMA[name]
    raw = _mapping(raw, where)
    for key in raw:
        if key not in checks:
            close = difflib.get_close_matches(str(key), list(checks), n=1)
            hint = (f"did you mean {_dotted(where, close[0])}?" if close
                    else "known keys: " + ", ".join(_dotted(where, k) for k in checks))
            raise ConfigError(f"unknown config key: {_dotted(where, key)}; {hint}")
    for key, param in inspect.signature(build).parameters.items():
        if param.default is param.empty and param.kind is not param.VAR_KEYWORD and key not in raw:
            raise ConfigError(f"missing config key: {_dotted(where, key)}")
    values = {key: checks[key](value, _dotted(where, key)) for key, value in raw.items()}
    with _values_of(where):
        return build(**values)


# section -> (builder, {key: check}). The builder gets only the keys present, so a
# default is written once, in the builder (a dataclass field), and a key the builder
# has no default for is required.
_SCHEMA: dict[str, tuple[Callable, dict[str, Callable]]] = {
    "": (_pipeline, {
        "graphs": partial(_section, "graphs"),
        "prefixes": partial(_keyed, check=_STRING),
        "mappings": partial(_keyed, check=partial(_section, "mapping")),
        "alignment": partial(_section, "alignment"),
        "validation": partial(_section, "validation"),
        "gaps": partial(_section, "gaps"),
        "output": partial(_section, "output"),
    }),
    "graphs": (PipelineConfig, {"target": partial(_section, "graph"), "externals": _externals}),
    "graph": (GraphSpec, {
        "path": _ID,
        "tag": _ID,
        "format": _one_of("", *GRAPH_LOADERS),
        "label_properties": _check(lambda v: isinstance(v, (list, tuple)) and all(
            isinstance(item, str) and item for item in v), "a list of non-empty strings", tuple),
        "malformed_threshold": _number(real=True, low=0, high=1),
    }),
    "mapping": (MappingSpec, {"link_property": _ID, "prefix": _STRING, "suffix": _STRING}),
    "alignment": (AlignConfig, {
        "max_path_length": _number(),
        "sample_cap": _number(),
        "top_k": _number(),
        "similarity_threshold": _number(real=True),
        "mode": _check(lambda v: isinstance(v, str) and v.lower() in MODE_ALIASES,
                       f"one of {sorted(MODE_ALIASES)}", lambda v: MODE_ALIASES[v.lower()]),
        # NaN would seed random.Random by object identity, so differently per process
        "sample_seed": _check(lambda v: v is None or isinstance(v, str) or (
            is_number(v) and not math.isnan(v)), "a number, a string or null"),
    }),
    "validation": (ValidationSettings, {
        "constraints": _STRING_OR_NULL,
        "cutoff_year": _number(),
        "depth_cap": _number(low=0),
        "instance_of": _ID,
        "subclass_of": _ID,
    }),
    "gaps": (GapSettings, {"type_property": _ID, "no_value_sentinel": _STRING_OR_NULL}),
    "output": (OutputSettings, {"format": _one_of("tsv", "json")}),
}


def config_from_dict(data: Mapping) -> PipelineConfig:
    return _section("", data, "")


def load_config(path: str | Path) -> PipelineConfig:
    # a YAMLError's text names the line and column, over several lines
    with open(path, encoding="utf-8") as fh, _values_of(f"{path}: malformed YAML", yaml.YAMLError):
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    cfg = config_from_dict(data)
    # paths in the file are relative to the file's directory
    base = Path(path).parent
    for spec in [cfg.target, *cfg.externals]:
        spec.path = str(base / spec.path)
    if cfg.validation.constraints:
        cfg.validation = replace(cfg.validation,
                                 constraints=str(base / cfg.validation.constraints))
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
    loader = GRAPH_LOADERS[spec.resolved_format()]
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
