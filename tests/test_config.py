from __future__ import annotations

import pytest

from kgenrich.align import AlignMode
from kgenrich.config import config_from_dict, load_config
from kgenrich.errors import ConfigError


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
])
def test_bad_section_or_value_is_config_error(section, value, named):
    data = _minimal()
    data[section] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    message = str(err.value)
    assert named in message and "\n" not in message
