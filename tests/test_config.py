from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgenrich.align import AlignMode
from kgenrich.config import (GraphSpec, PipelineConfig, config_from_dict, load_config,
                             load_graph)
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


def test_nested_transform_keys():
    data = _minimal()
    data["mappings"]["dbp"] = {"link_property": "P1667",
                               "transform": {"prefix": "tgn:", "suffix": "-id"}}
    spec = config_from_dict(data).mapping_for("dbp")
    assert spec.transform().apply("7011781") == "tgn:7011781-id"


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
    assert cfg.constraints_path.endswith("cfg/data/c.tsv")


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


@pytest.mark.parametrize("section,value,named", [
    ("alignment", [1], "alignment"),
    ("alignment", {"max_path_length": 9}, "max_path_length"),
    ("alignment", {"max_path_length": "two"}, "alignment"),
    ("alignment", {"top_k": [3]}, "alignment"),
    ("alignment", {"similarity_threshold": "high"}, "alignment"),
    ("validation", {"cutoff_year": "soon"}, "validation"),
    ("validation", "strict", "validation"),
    ("gaps", 3, "gaps"),
    ("output", ["tsv"], "output"),
    ("prefixes", ["dbr"], "prefixes"),
    ("mappings", {"dbp": ["sitelink"]}, "mappings.dbp"),
    ("graphs", {"target": "t.tsv"}, "graphs.target"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": "x"}},
     "graphs.target"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd"}, "externals": {"a": 1}},
     "graphs.externals"),
    ("prefixes", {5: "http://dbpedia.org/resource/"}, "prefixes"),
    ("prefixes", {"dbr": 5}, "prefixes"),
    ("validation", {"constraints": 5}, "validation.constraints"),
    ("alignment", {"sample_seed": [1]}, "alignment.sample_seed"),
    ("alignment", {"max_path_length": float("inf")}, "alignment"),
    ("graphs", {"target": {"path": "t.nt", "tag": "wd", "format": "ntriples"}},
     "graphs.target.format"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "e.nt", "tag": "dbp", "format": "NT"}]},
     "graphs.externals[0].format"),
    ("output", {"format": "xml"}, "output.format"),
    ("mappings", {"db\np": {"prefix": "dbr:"}}, "mappings['db\\np'].link_property"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd", "label_properties": "label"}},
     "graphs.target.label_properties"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "e.tsv", "tag": "dbp", "label_properties": ["", 5]}]},
     "graphs.externals[0].label_properties"),
    ("gaps", {"no_value_sentinel": 5}, "gaps.no_value_sentinel"),
    ("gaps", {"no_value_sentinel": ["Q0"]}, "gaps.no_value_sentinel"),
    ("output", {"include_timings": "false"}, "output.include_timings"),
    ("output", {"include_timings": "no"}, "output.include_timings"),
    ("output", {"include_timings": "0"}, "output.include_timings"),
    ("output", {"include_timings": 0}, "output.include_timings"),
    ("gaps", {"type_property": ["P31"]}, "gaps.type_property"),
    ("validation", {"instance_of": 31}, "validation.instance_of"),
    ("validation", {"subclass_of": ""}, "validation.subclass_of"),
    ("mappings", {"dbp": {"link_property": ["sitelink"]}}, "mappings.dbp.link_property"),
    ("mappings", {"dbp": {"link_property": "P1", "prefix": None}}, "mappings.dbp.prefix"),
    ("mappings", {"dbp": {"link_property": "P1", "transform": {"suffix": 5}}},
     "mappings.dbp.suffix"),
    ("graphs", {"target": {"path": ["t.tsv"], "tag": "wd"}}, "graphs.target.path"),
    ("graphs", {"target": {"path": "t.tsv", "tag": None}}, "graphs.target.tag"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd"},
                "externals": [{"path": "", "tag": "dbp"}]}, "graphs.externals[0].path"),
    # numbers are checked, not coerced by int() or float()
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": -1}},
     "graphs.target.malformed_threshold"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": float("nan")}},
     "graphs.target.malformed_threshold"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": 1.5}},
     "graphs.target.malformed_threshold"),
    ("graphs", {"target": {"path": "t.tsv", "tag": "wd", "malformed_threshold": True}},
     "graphs.target.malformed_threshold"),
    ("validation", {"depth_cap": -3}, "validation.depth_cap"),
    ("validation", {"depth_cap": 2.0}, "validation.depth_cap"),
    ("alignment", {"max_path_length": 2.7}, "alignment.max_path_length"),
    ("alignment", {"max_path_length": True}, "alignment.max_path_length"),
    ("alignment", {"top_k": 2.5}, "alignment.top_k"),
    ("validation", {"cutoff_year": 1999.9}, "validation.cutoff_year"),
    ("alignment", {"sample_cap": "12"}, "alignment.sample_cap"),
    ("alignment", {"similarity_threshold": True}, "alignment.similarity_threshold"),
    ("alignment", {"similarity_threshold": float("nan")}, "alignment.similarity_threshold"),
])
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


def _mostly(plausible):
    """``plausible`` seven times in eight, else any JSON value, so valid documents come up."""
    return st.integers(0, 7).flatmap(lambda n: plausible if n else _JSON)


def _value(*plausible):
    return _mostly(st.sampled_from(plausible))


def _key(plausible: str):
    """A mapping key: JSON keys are strings."""
    return st.one_of(st.just(plausible), st.just(plausible), st.text(max_size=4))


def _section(**keys):
    """A mapping under the real key names (each optional), or any JSON value."""
    return _mostly(st.fixed_dictionaries({}, optional=keys))


def _id(plausible: str):
    """An id-valued key: ``plausible`` half the time, else a list, an int, null or ""."""
    return _mostly(st.just(plausible) | st.sampled_from([[plausible], 31, None, ""]))


_GRAPH = _mostly(st.fixed_dictionaries(
    {"path": _id("t.tsv"), "tag": _id("wd")},
    optional={"format": _value("", "nt", "tsv", "ntriples"),
              "label_properties": _value(["label"]),
              "malformed_threshold": _value(0.05, 1, "0.5", -1, float("nan"), True)}))
_DOCUMENT = st.fixed_dictionaries({
    "graphs": st.fixed_dictionaries(
        {"target": _GRAPH}, optional={"externals": _mostly(st.lists(_GRAPH, max_size=2))}),
}, optional={
    "prefixes": st.dictionaries(_key("dbr"), _value("http://dbpedia.org/resource/"),
                                max_size=2),
    "mappings": st.dictionaries(_key("dbp"), _section(
        link_property=_id("sitelink"), prefix=_value("dbr:", "", None, 5),
        suffix=_value("", ["-id"]),
        transform=_section(prefix=_value("tgn:", None), suffix=_value("-id", 5))), max_size=2),
    "alignment": _section(max_path_length=_value(1, 4, 9, 2.7, True),
                          sample_cap=_value(10, 0, "12"), top_k=_value(3, "3", 2.5),
                          similarity_threshold=_value(0.9, 1, 2.0, True, float("nan")),
                          mode=_value("hybrid", "freq", "String"),
                          sample_seed=_value(7, "seed")),
    "validation": _section(cutoff_year=_value(2022, 1999.9), depth_cap=_value(20, 0, -3, 2.0),
                           instance_of=_id("P31"), subclass_of=_id("P279"),
                           constraints=_value("c.tsv")),
    "gaps": _section(type_property=_id("P31"), no_value_sentinel=_value("Q0")),
    "output": _section(format=_value("tsv", "json", "xml"), include_timings=_value(False)),
})


@given(_DOCUMENT)
def test_config_from_dict_returns_config_or_one_line_config_error(document):
    try:
        cfg = config_from_dict(document)
    except ConfigError as err:
        assert "\n" not in str(err)
        return
    assert isinstance(cfg, PipelineConfig)
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in cfg.prefixes.items())
    assert {spec.format for spec in [cfg.target, *cfg.externals]} <= {"", "nt", "tsv"}
    assert cfg.output.format in ("tsv", "json")
    assert cfg.constraints_path is None or isinstance(cfg.constraints_path, str)
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
