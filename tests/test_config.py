from __future__ import annotations

import gc
import math
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from kgenrich.align import AlignMode
from kgenrich.config import (_SCHEMA, GraphSpec, PipelineConfig, config_from_dict, is_number,
                             load_config, load_graph)
from kgenrich.errors import ConfigError, DataFormatError


def _minimal():
    return {
        "graphs": {
            "target": {"path": "t.tsv", "tag": "wd"},
            "externals": [{"path": "e.tsv", "tag": "dbp"}],
        },
        "mappings": {"dbp": {"link_property": "sitelink", "prefix": "dbr:"}},
    }


def test_defaults():
    cfg = config_from_dict(_minimal())
    assert cfg.alignment.max_path_length == 1
    assert cfg.alignment.sample_cap == 200_000
    assert cfg.alignment.top_k == 10
    assert cfg.alignment.similarity_threshold == 0.9
    assert cfg.alignment.mode is AlignMode.HYBRID
    assert cfg.validation.cutoff_year == 2022
    assert cfg.validation.depth_cap == 20
    assert cfg.gaps.type_property == "P31"


def test_missing_target_path_named():
    data = _minimal()
    del data["graphs"]["target"]["path"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert "graphs.target.path" in str(err.value)


def test_missing_mapping_named():
    cfg = config_from_dict(_minimal())
    with pytest.raises(ConfigError) as err:
        cfg.mapping_for("getty")
    assert "mappings.getty" in str(err.value)


def test_nested_transform_is_config_error():
    data = _minimal()
    data["mappings"]["dbp"] = {"link_property": "P1667",
                               "transform": {"prefix": "tgn:", "suffix": "-id"}}
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    message = str(err.value)
    assert message.startswith("unknown config key: mappings.dbp.transform; ")
    assert "mappings.dbp.prefix" in message and "mappings.dbp.suffix" in message


def test_mode_aliases():
    data = _minimal()
    data["alignment"] = {"mode": "freq"}
    assert config_from_dict(data).alignment.mode is AlignMode.FREQUENCY_ONLY
    data["alignment"] = {"mode": "string"}
    assert config_from_dict(data).alignment.mode is AlignMode.STRING_ONLY
    data["alignment"] = {"mode": "bogus"}
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_load_config_resolves_relative_paths(tmp_path):
    (tmp_path / "cfg").mkdir()
    cfg_file = tmp_path / "cfg" / "run.yaml"
    cfg_file.write_text(
        "graphs:\n"
        "  target: {path: data/t.tsv, tag: wd}\n"
        "  externals:\n"
        "    - {path: data/e.tsv, tag: dbp}\n"
        "mappings:\n"
        "  dbp: {link_property: sitelink, prefix: 'dbr:'}\n"
        "validation: {constraints: data/c.tsv}\n"
    )
    cfg = load_config(cfg_file)
    assert cfg.target.path.endswith("cfg/data/t.tsv")
    assert cfg.externals[0].path.endswith("cfg/data/e.tsv")
    assert cfg.validation.constraints.endswith("cfg/data/c.tsv")


@pytest.mark.parametrize("text,line", [
    ("graphs: [unclosed\n", 2),
    ("graphs:\n  target: !!python/object/apply:os.system [ls]\n", 2),
])
def test_malformed_yaml_is_one_line_config_error(tmp_path, text, line):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    message = str(err.value)
    assert message.startswith(f"{bad}: malformed YAML: ") and "\n" not in message
    assert f"line {line}, column " in message


def test_config_must_be_mapping(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError):
        load_config(bad)


# (id, section, value, named). Each id is written out, so deleting a case renames no
# other; the ids are the ones pytest generated when the cases had none.
_BAD_VALUES = [
    ("alignment-value0-alignment", "alignment", [1], "alignment"),
    ("alignment-value1-max_path_length", "alignment", {"max_path_length": 9}, "max_path_length"),
    ("alignment-value2-alignment", "alignment", {"max_path_length": "two"}, "alignment"),
    ("alignment-value3-alignment", "alignment", {"top_k": [3]}, "alignment"),
    ("alignment-value4-alignment", "alignment", {"similarity_threshold": "high"}, "alignment"),
    ("validation-value5-validation", "validation", {"cutoff_year": "soon"}, "validation"),
    ("validation-strict-validation", "validation", "strict", "validation"),
    ("gaps-3-gaps", "gaps", 3, "gaps"),
    ("output-value8-output", "output", ["tsv"], "output"),
    ("prefixes-value9-prefixes", "prefixes", ["dbr"], "prefixes"),
    ("mappings-value10-mappings.dbp", "mappings", {"dbp": ["sitelink"]}, "mappings.dbp"),
    ("graphs-value11-graphs.target", "graphs", {"target": "t.tsv"}, "graphs.target"),
    ("graphs-value12-graphs.target",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": "x"}},
     "graphs.target"),
    ("graphs-value13-graphs.externals",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd"}, "externals": {"a": 1}},
     "graphs.externals"),
    ("prefixes-value14-prefixes", "prefixes", {5: "http://dbpedia.org/resource/"}, "prefixes"),
    ("prefixes-value15-prefixes", "prefixes", {"dbr": 5}, "prefixes"),
    ("validation-value16-validation.constraints",
     "validation", {"constraints": 5}, "validation.constraints"),
    ("alignment-value17-alignment.sample_seed",
     "alignment", {"sample_seed": [1]}, "alignment.sample_seed"),
    ("alignment-value18-alignment", "alignment", {"max_path_length": float("inf")}, "alignment"),
    ("graphs-value19-graphs.target.format",
     "graphs", {"target": {"path": "t.nt", "tag": "wd", "format": "ntriples"}},
     "graphs.target.format"),
    ("graphs-value20-graphs.externals[0].format",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "e.nt", "tag": "dbp", "format": "NT"}]},
     "graphs.externals[0].format"),
    ("output-value21-output.format", "output", {"format": "xml"}, "output.format"),
    ("mappings-value22-mappings['db\\np'].link_property",
     "mappings", {"db\np": {"prefix": "dbr:"}}, "mappings['db\\np'].link_property"),
    ("graphs-value23-graphs.target.label_properties",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd", "label_properties": "label"}},
     "graphs.target.label_properties"),
    ("graphs-value24-graphs.externals[0].label_properties",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "e.tsv", "tag": "dbp", "label_properties": ["", 5]}]},
     "graphs.externals[0].label_properties"),
    ("gaps-value25-gaps.no_value_sentinel",
     "gaps", {"no_value_sentinel": 5}, "gaps.no_value_sentinel"),
    ("gaps-value26-gaps.no_value_sentinel",
     "gaps", {"no_value_sentinel": ["Q0"]}, "gaps.no_value_sentinel"),
    # timings are switched by --no-timings alone: the key is unknown whatever its value
    ("output-value27-output.include_timings",
     "output", {"include_timings": False}, "output.include_timings"),
    ("output-value28-output.include_timings",
     "output", {"include_timings": True}, "output.include_timings"),
    ("output-value29-output.include_timings",
     "output", {"include_timings": "false"}, "output.include_timings"),
    ("output-value30-output.include_timings",
     "output", {"format": "json", "include_timings": False}, "output.include_timings"),
    ("gaps-value31-gaps.type_property", "gaps", {"type_property": ["P31"]}, "gaps.type_property"),
    ("validation-value32-validation.instance_of",
     "validation", {"instance_of": 31}, "validation.instance_of"),
    ("validation-value33-validation.subclass_of",
     "validation", {"subclass_of": ""}, "validation.subclass_of"),
    ("mappings-value34-mappings.dbp.link_property",
     "mappings", {"dbp": {"link_property": ["sitelink"]}}, "mappings.dbp.link_property"),
    ("mappings-value35-mappings.dbp.prefix",
     "mappings", {"dbp": {"link_property": "P1", "prefix": None}}, "mappings.dbp.prefix"),
    ("mappings-value36-mappings.dbp.suffix",
     "mappings", {"dbp": {"link_property": "P1", "transform": {"suffix": 5}}},
     "mappings.dbp.suffix"),
    ("graphs-value37-graphs.target.path",
     "graphs", {"target": {"path": ["t.tsv"], "tag": "wd"}}, "graphs.target.path"),
    ("graphs-value38-graphs.target.tag",
     "graphs", {"target": {"path": "t.tsv", "tag": None}}, "graphs.target.tag"),
    ("graphs-value39-graphs.externals[0].path",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "", "tag": "dbp"}]}, "graphs.externals[0].path"),
    # numbers are checked, not coerced by int() or float()
    ("graphs-value40-graphs.target.malformed_threshold",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": -1}},
     "graphs.target.malformed_threshold"),
    ("graphs-value41-graphs.target.malformed_threshold",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": float("nan")}},
     "graphs.target.malformed_threshold"),
    ("graphs-value42-graphs.target.malformed_threshold",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": 1.5}},
     "graphs.target.malformed_threshold"),
    ("graphs-value43-graphs.target.malformed_threshold",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": True}},
     "graphs.target.malformed_threshold"),
    ("validation-value44-validation.depth_cap",
     "validation", {"depth_cap": -3}, "validation.depth_cap"),
    ("validation-value45-validation.depth_cap",
     "validation", {"depth_cap": 2.0}, "validation.depth_cap"),
    ("alignment-value46-alignment.max_path_length",
     "alignment", {"max_path_length": 2.7}, "alignment.max_path_length"),
    ("alignment-value47-alignment.max_path_length",
     "alignment", {"max_path_length": True}, "alignment.max_path_length"),
    ("alignment-value48-alignment.top_k", "alignment", {"top_k": 2.5}, "alignment.top_k"),
    ("validation-value49-validation.cutoff_year",
     "validation", {"cutoff_year": 1999.9}, "validation.cutoff_year"),
    ("alignment-value50-alignment.sample_cap",
     "alignment", {"sample_cap": "12"}, "alignment.sample_cap"),
    ("alignment-value51-alignment.similarity_threshold",
     "alignment", {"similarity_threshold": True}, "alignment.similarity_threshold"),
    ("alignment-value52-alignment.similarity_threshold",
     "alignment", {"similarity_threshold": float("nan")}, "alignment.similarity_threshold"),
    # NaN seeds random.Random by object identity, so each process samples differently
    ("alignment-value53-alignment.sample_seed",
     "alignment", {"sample_seed": float("nan")}, "alignment.sample_seed"),
    ("alignment-value54-alignment.sample_seed",
     "alignment", {"sample_seed": True}, "alignment.sample_seed"),
    # batch report rows are keyed by external tag
    ("graphs-value55-graphs.externals[1].tag",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "e.tsv", "tag": "dbp"}, {"path": "f.tsv", "tag": "dbp"}]},
     "graphs.externals[1].tag"),
    ("mappings-value56-mappings key must be a string",
     "mappings", {5: {"link_property": "P1"}}, "mappings key must be a string"),
    # an unknown key at any level, with the closest known key or the section's keys
    ("alignment-value57-unknown config key: alignment.max_path_lenght; "
     "did you mean alignment.max_path_length?",
     "alignment", {"max_path_lenght": 4},
     "unknown config key: alignment.max_path_lenght; did you mean alignment.max_path_length?"),
    ("alignment-value58-did you mean alignment.mode?",
     "alignment", {"mod": "string"}, "did you mean alignment.mode?"),
    ("validaton-value59-unknown config key: validaton; did you mean validation?",
     "validaton", {"cutoff_year": 1990}, "unknown config key: validaton; did you mean validation?"),
    ("graphs-value60-unknown config key: graphs.target.fromat; did you mean graphs.target.format?",
     "graphs", {"target": {"path": "t.nt", "tag": "wd", "fromat": "nt"}},
     "unknown config key: graphs.target.fromat; did you mean graphs.target.format?"),
    ("graphs-value61-did you mean graphs.externals?",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd"}, "extrnals": []},
     "did you mean graphs.externals?"),
    ("graphs-value62-graphs.externals[0].lable_properties; "
     "did you mean graphs.externals[0].label_properties?",
     "graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "e.tsv", "tag": "dbp", "lable_properties": ["l"]}]},
     "graphs.externals[0].lable_properties; did you mean graphs.externals[0].label_properties?"),
    ("mappings-value63-mappings.dbp.prefx",
     "mappings", {"dbp": {"link_property": "P1", "prefx": "dbr:"}}, "mappings.dbp.prefx"),
    ("validation-value64-validation.cutoff; did you mean validation.cutoff_year?",
     "validation", {"cutoff": 2020}, "validation.cutoff; did you mean validation.cutoff_year?"),
    ("gaps-value65-gaps.marker; known keys: gaps.type_property, gaps.no_value_sentinel",
     "gaps", {"marker": "Q0"}, "gaps.marker; known keys: gaps.type_property, "
                               "gaps.no_value_sentinel"),
    ("output-value66-output.fromat; did you mean output.format?",
     "output", {"fromat": "json"}, "output.fromat; did you mean output.format?"),
    ("extras-value67-unknown config key: extras; known keys: graphs, prefixes, mappings",
     "extras", {}, "unknown config key: extras; known keys: graphs, prefixes, mappings"),
    ("alignment-value68-unknown config key: alignment[7]",
     "alignment", {7: 1}, "unknown config key: alignment[7]"),
]


@pytest.mark.parametrize("section,value,named",
                         [pytest.param(*case, id=case_id) for case_id, *case in _BAD_VALUES])
def test_bad_section_or_value_is_config_error(section, value, named):
    data = _minimal()
    data[section] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    message = str(err.value)
    assert named in message and "\n" not in message


# -- config_from_dict over generated documents ---------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_ROOT_KEYS = list(_SCHEMA[""][1])


def _typos(key: str) -> list[str]:
    """Every string one edit (delete, insert, replace, swap) away from ``key``."""
    letters = "abcdefghijklmnopqrstuvwxyz_"
    splits = [(key[:i], key[i:]) for i in range(len(key) + 1)]
    return sorted({a + b[1:] for a, b in splits if b}
                  | {a + c + b for a, b in splits for c in letters}
                  | {a + c + b[1:] for a, b in splits if b for c in letters}
                  | {a + b[1] + b[0] + b[2:] for a, b in splits if len(b) > 1} - {key})


def _misspelled(known: list[str]):
    """A key one edit from a key of ``known`` that is not itself in ``known``."""
    return st.sampled_from(known).flatmap(
        lambda key: st.sampled_from(_typos(key))).filter(lambda typo: typo not in known)


def _sometimes_with(dicts, keys):
    """``dicts``, one time in 16 with one more entry under a key drawn from ``keys``."""
    return st.integers(0, 15).flatmap(lambda n: dicts if n else st.builds(
        lambda raw, key, value: {**raw, key: value}, dicts, keys, _JSON))


def _mostly(plausible):
    """``plausible`` seven times in eight, else any JSON value, so valid documents come up."""
    return st.integers(0, 7).flatmap(lambda n: plausible if n else _JSON)


def _value(*plausible):
    return _mostly(st.sampled_from(plausible))


def _key(plausible: str):
    """A mapping key: JSON keys are strings."""
    return st.one_of(st.just(plausible), st.just(plausible), st.text(max_size=4))


def _section(**keys):
    """A mapping under the real key names (each optional), now and then with a
    misspelled key, or any JSON value."""
    return _mostly(_sometimes_with(st.fixed_dictionaries({}, optional=keys),
                                   _misspelled(list(keys))))


def _id(plausible: str):
    """An id-valued key: ``plausible`` half the time, else a list, an int, null or ""."""
    return _mostly(st.just(plausible) | st.sampled_from([[plausible], 31, None, ""]))


_GRAPH_KEYS = {"format": _value("", "nt", "tsv", "ntriples"),
               "label_properties": _value(["label"]),
               "malformed_threshold": _value(0.05, 1, "0.5", -1, float("nan"), True)}
_GRAPH = _mostly(_sometimes_with(
    st.fixed_dictionaries({"path": _id("t.tsv"), "tag": _id("wd")}, optional=_GRAPH_KEYS),
    _misspelled(["path", "tag", *_GRAPH_KEYS])))
# unknown sections: a root key misspelled, or any other name
_DOCUMENT = _sometimes_with(st.fixed_dictionaries({
    "graphs": _sometimes_with(st.fixed_dictionaries(
        {"target": _GRAPH}, optional={"externals": _mostly(st.lists(_GRAPH, max_size=2))}),
        _misspelled(["target", "externals"])),
}, optional={
    "prefixes": st.dictionaries(_key("dbr"), _value("http://dbpedia.org/resource/"),
                                max_size=2),
    "mappings": st.dictionaries(_key("dbp"), _section(
        link_property=_id("sitelink"), prefix=_value("dbr:", "", None, 5),
        suffix=_value("", ["-id"])), max_size=2),
    "alignment": _section(max_path_length=_value(1, 4, 9, 2.7, True),
                          sample_cap=_value(10, 0, "12"), top_k=_value(3, "3", 2.5),
                          similarity_threshold=_value(0.9, 1, 2.0, True, float("nan")),
                          mode=_value("hybrid", "freq", "String"),
                          sample_seed=_value(7, "seed", 0.5, float("nan"), True)),
    "validation": _section(cutoff_year=_value(2022, 1999.9), depth_cap=_value(20, 0, -3, 2.0),
                           instance_of=_id("P31"), subclass_of=_id("P279"),
                           constraints=_value("c.tsv")),
    "gaps": _section(type_property=_id("P31"), no_value_sentinel=_value("Q0")),
    "output": _section(format=_value("tsv", "json", "xml")),
}), _misspelled(_ROOT_KEYS) | st.text(min_size=1, max_size=8).filter(
    lambda key: key not in _ROOT_KEYS))


def _name(where: str, key) -> str:
    """The dotted name a message gives ``key`` of the mapping at ``where``."""
    if isinstance(key, str) and key.isprintable() and key:
        return f"{where}.{key}" if where else key
    return f"{where}[{key!r}]"


def _sections(document: dict) -> list[tuple[str, dict, str]]:
    """(schema section, mapping, dotted name) of each mapping section in ``document``."""
    found = [("", document, "")]
    graphs = document.get("graphs")
    if isinstance(graphs, dict):
        externals = graphs.get("externals")
        found += [("graphs", graphs, "graphs"), ("graph", graphs.get("target"), "graphs.target")]
        found += [("graph", raw, f"graphs.externals[{i}]")
                  for i, raw in enumerate(externals if isinstance(externals, list) else [])]
    mappings = document.get("mappings")
    if isinstance(mappings, dict):
        found += [("mapping", raw, _name("mappings", tag)) for tag, raw in mappings.items()]
    found += [(name, document.get(name), name)
              for name in ("alignment", "validation", "gaps", "output")]
    return [(section, raw, where) for section, raw, where in found if isinstance(raw, dict)]


@given(_DOCUMENT)
def test_config_from_dict_returns_config_or_one_line_config_error(document):
    unknown = [_name(where, key) for section, raw, where in _sections(document)
               for key in raw if key not in _SCHEMA[section][1]]
    try:
        cfg = config_from_dict(document)
    except ConfigError as err:
        message = str(err)
        assert "\n" not in message
        if message.startswith("unknown config key: "):
            assert any(message.startswith(f"unknown config key: {name}; ") for name in unknown)
        return
    assert not unknown  # a misspelled key or an unknown section never loads
    assert isinstance(cfg, PipelineConfig)
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in cfg.prefixes.items())
    assert {spec.format for spec in [cfg.target, *cfg.externals]} <= {"", "nt", "tsv"}
    assert cfg.output.format in ("tsv", "json")
    assert cfg.validation.constraints is None or isinstance(cfg.validation.constraints, str)
    ids = [cfg.gaps.type_property, cfg.validation.instance_of, cfg.validation.subclass_of]
    ids += [value for spec in [cfg.target, *cfg.externals] for value in (spec.path, spec.tag)]
    ids += [spec.link_property for spec in cfg.mappings.values()]
    assert all(isinstance(value, str) and value for value in ids)
    assert all(isinstance(spec.prefix, str) and isinstance(spec.suffix, str)
               for spec in cfg.mappings.values())
    # numbers are the document's own, not coerced: 2.7, 2.0, true and "12" never load
    align, validation, graphs = cfg.alignment, cfg.validation, document["graphs"]
    integers = [align.max_path_length, align.sample_cap, align.top_k,
                validation.cutoff_year, validation.depth_cap]
    assert all(type(value) is int for value in integers) and validation.depth_cap >= 0
    numbers = [(document.get("alignment") or {}, key, getattr(align, key))
               for key in ("max_path_length", "sample_cap", "top_k", "similarity_threshold")]
    numbers += [(document.get("validation") or {}, key, getattr(validation, key))
                for key in ("cutoff_year", "depth_cap")]
    numbers += [(raw, "malformed_threshold", spec.malformed_threshold) for raw, spec in
                zip([graphs["target"], *(graphs.get("externals") or [])],
                    [cfg.target, *cfg.externals])]
    for section, key, value in numbers:
        raw = section.get(key, value)
        assert raw == value and type(raw) in ((int, float) if type(value) is float else (int,))
    assert all(0 <= spec.malformed_threshold <= 1 for spec in [cfg.target, *cfg.externals])
    seed = cfg.alignment.sample_seed
    assert seed is None or isinstance(seed, str) or (is_number(seed) and not math.isnan(seed))
    assert len({spec.tag for spec in cfg.externals}) == len(cfg.externals)


def _readme_config() -> dict:
    """The YAML block under README's "Config file" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1]
    return yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])


def test_readme_config_block_loads_and_shows_every_schema_key():
    document = _readme_config()
    assert isinstance(config_from_dict(document), PipelineConfig)
    shown = {section: set() for section in _SCHEMA}
    for section, raw, _ in _sections(document):
        shown[section] |= set(raw)
    assert {section: set(checks) - shown[section] for section, (_, checks) in _SCHEMA.items()} \
        == {section: set() for section in _SCHEMA}


@given(st.data())
def test_misspelled_key_is_a_one_line_error_naming_it(data):
    """One key of README's valid config is misspelled or renamed; at the root, that
    makes an unknown section."""
    document = _readme_config()
    section, raw, where = data.draw(st.sampled_from(_sections(document)))
    known = list(_SCHEMA[section][1])
    key = data.draw(st.sampled_from(sorted(raw)))
    typo = data.draw(_misspelled([key]).filter(lambda typo: typo not in known)
                     | st.text(min_size=1, max_size=8).filter(lambda typo: typo not in known))
    raw[typo] = raw.pop(key)
    with pytest.raises(ConfigError) as err:
        config_from_dict(document)
    message = str(err.value)
    assert message.startswith(f"unknown config key: {_name(where, typo)}; ")
    assert "\n" not in message
    # the closest known key is suggested, or the section's keys are listed
    assert any(_name(where, name) in message for name in known)


# -- load_graph and the cyclic GC ----------------------------------------------


@contextmanager
def _gc_state(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _edge_file(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text('node1\tlabel\tnode2\nQ1\tP31\tQ2\nQ2\tlabel\t"two"\nQ1\tP571\t1990\n')
    return GraphSpec(str(path), "wd")


@pytest.mark.parametrize("enabled", [True, False])
def test_load_graph_keeps_the_callers_gc_state(tmp_path, enabled):
    spec = _edge_file(tmp_path)
    with _gc_state(enabled):
        assert load_graph(spec).edge_count == 3
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_load_graph_keeps_the_callers_gc_state_on_data_error(tmp_path, enabled):
    bad = tmp_path / "bad.tsv"
    bad.write_text("node1\tnode2\nQ1\tQ2\n")
    with _gc_state(enabled):
        with pytest.raises(DataFormatError):
            load_graph(GraphSpec(str(bad), "wd"))
        assert gc.isenabled() is enabled


def test_load_graph_freezes_the_graph(tmp_path):
    spec = _edge_file(tmp_path)
    before = gc.get_freeze_count()
    graph = load_graph(spec)
    assert gc.get_freeze_count() > before
    # frozen objects are in no collectable generation
    assert not any(obj is graph._spo for obj in gc.get_objects())


def test_dropped_graph_is_freed_by_refcount(tmp_path):
    spec = _edge_file(tmp_path)
    graph = load_graph(spec)
    ref = weakref.ref(graph)
    with _gc_state(False):
        del graph
        assert ref() is None
