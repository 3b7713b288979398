from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kgenrich
from kgenrich.cli import build_parser, main
from kgenrich.store import write_edge_tsv

from conftest import COMPANY_CLASS, INDUSTRY_PROP

CONSTRAINTS = (
    "#mode=both\n"
    "property\tallowed_class\n"
    "P452\tQ8148\n"
    "P452\tQ268592\n"
    "P452\tQ8187769\n"
    "P452\tQ3958441\n"
    "P452\tQ121359\n"
)

CONFIG = """\
graphs:
  target: {path: target.tsv, tag: wd}
  externals:
    - {path: external.tsv, tag: dbp}
prefixes: {}
mappings:
  dbp: {link_property: sitelink, prefix: "dbr:"}
alignment: {max_path_length: 1}
validation: {constraints: constraints.tsv}
gaps: {type_property: P31}
output: {format: tsv}
"""


def _write_workspace(directory: Path, company_fixture) -> Path:
    write_edge_tsv(company_fixture.target, directory / "target.tsv")
    write_edge_tsv(company_fixture.external, directory / "external.tsv")
    (directory / "constraints.tsv").write_text(CONSTRAINTS)
    (directory / "config.yaml").write_text(CONFIG)
    return directory


@pytest.fixture
def workspace(tmp_path, company_fixture):
    return _write_workspace(tmp_path, company_fixture)


def test_load_check(workspace, capsys):
    assert main(["load-check", "--graph", str(workspace / "target.tsv"),
                 "--tag", "wd"]) == 0
    out = capsys.readouterr().out
    assert "edges" in out and "0 malformed" in out


def test_load_check_data_error(workspace, capsys):
    bad = workspace / "bad.tsv"
    bad.write_text("node1\tnode2\nQ1\tQ2\n")
    assert main(["load-check", "--graph", str(bad)]) == 2
    assert "data error" in capsys.readouterr().err


def test_load_check_ntriples_suffix(workspace, capsys):
    path = workspace / "g.ntriples"
    path.write_text("<http://ex/a> <http://ex/p> <http://ex/b> .\n"
                    '<http://ex/a> <http://ex/q> "x"@en .\n')
    assert main(["load-check", "--graph", str(path)]) == 0
    assert "2 edges, 2 nodes, 0 malformed" in capsys.readouterr().out


@pytest.mark.parametrize("alignment", ["[1]", "{max_path_length: 9}"])
def test_bad_alignment_section_is_config_error(workspace, capsys, alignment):
    (workspace / "config.yaml").write_text(
        CONFIG.replace("alignment: {max_path_length: 1}", f"alignment: {alignment}"))
    code = main(["batch", "--config", str(workspace / "config.yaml"),
                 "--properties", INDUSTRY_PROP, "--out-dir", str(workspace / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: alignment") and err.count("\n") == 1


@pytest.mark.parametrize("old,new,named", [
    ("tag: wd}", "tag: wd, label_properties: label}", "graphs.target.label_properties"),
    ("gaps: {type_property: P31}", "gaps: {type_property: P31, no_value_sentinel: 5}",
     "gaps.no_value_sentinel"),
    ("output: {format: tsv}", 'output: {format: tsv, include_timings: "false"}',
     "output.include_timings"),
    ("{path: target.tsv,", "{path: [target.tsv],", "graphs.target.path"),
    ("tag: wd}", "tag: null}", "graphs.target.tag"),
    ("{path: external.tsv, tag: dbp}", "{path: external.tsv, tag: 5}",
     "graphs.externals[0].tag"),
    ("gaps: {type_property: P31}", "gaps: {type_property: [P31]}", "gaps.type_property"),
    ("validation: {", "validation: {instance_of: 31, ", "validation.instance_of"),
    ("validation: {", 'validation: {subclass_of: "", ', "validation.subclass_of"),
    ("link_property: sitelink", "link_property: [sitelink]", "mappings.dbp.link_property"),
    ('prefix: "dbr:"', "prefix: null", "mappings.dbp.prefix"),
])
def test_malformed_config_value_exits_1_with_one_line(workspace, capsys, old, new, named):
    (workspace / "config.yaml").write_text(CONFIG.replace(old, new))
    code = main(["batch", "--config", str(workspace / "config.yaml"),
                 "--properties", INDUSTRY_PROP, "--out-dir", str(workspace / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {named}") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["graphs: [unclosed\n",
                                  "graphs: !!python/object/apply:os.system [ls]\n"])
def test_malformed_yaml_exits_1_with_one_line(workspace, capsys, text):
    (workspace / "config.yaml").write_text(text)
    code = main(["batch", "--config", str(workspace / "config.yaml"),
                 "--properties", INDUSTRY_PROP, "--out-dir", str(workspace / "x")])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"config error: {workspace / 'config.yaml'}: malformed YAML: ")
    assert ", line " in err


# -- every argument vector exits 0, 1 or 2 with at most one stderr line ---------

def _subcommand_flags() -> dict[str, list[str]]:
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: sorted(flag for action in parser._actions for flag in action.option_strings)
            for name, parser in sub.choices.items()}


_FLAGS = _subcommand_flags()
# upper-case names stand for files the test writes; the rest are passed as they are
_VALUES = ["CONFIG", "BAD_YAML", "MISSING", "DIR", "EMPTY", INDUSTRY_PROP, "P571",
           "dbp", "a/b", "@@", "0", "-1", "nan"]
_ARGV = st.sampled_from(sorted(_FLAGS)).flatmap(lambda command: st.lists(
    st.tuples(st.sampled_from(_FLAGS[command]), st.sampled_from(_VALUES) | st.just(None)),
    max_size=6).map(lambda pairs: [command] + [a for pair in pairs for a in pair if a]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ARGV)
@example(["batch", "--config", "BAD_YAML", "--properties", INDUSTRY_PROP])
@example(["align", "--help"])
@example(["batch", "--config", "CONFIG", "--properties", INDUSTRY_PROP, "--out-dir", "DIR"])
@example(["align", "--config", "CONFIG", "--property", "P571", "--max-len", "-1"])
@example(["align", "--config", "CONFIG", "--property", "P571", "--threshold", "nan"])
@example(["report", "--results", "CONFIG"])
def test_any_argument_vector_exits_0_1_or_2_with_one_stderr_line(company_fixture, capsys,
                                                                 argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        ws = _write_workspace(Path(tmp), company_fixture)
        (ws / "bad.yaml").write_text("graphs: [unclosed\n")
        (ws / "empty.txt").write_text("")
        (ws / "dir").mkdir()
        files = {"CONFIG": ws / "config.yaml", "BAD_YAML": ws / "bad.yaml",
                 "MISSING": ws / "missing.tsv", "DIR": ws / "dir", "EMPTY": ws / "empty.txt"}
        os.chdir(ws)  # commands without --out write into the working directory
        try:
            code = main([str(files.get(arg, arg)) for arg in argv])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert capsys.readouterr().err.count("\n") <= 1


def test_usage_error_exit_code(capsys):
    assert main(["load-check"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_detect_gaps_tsv(workspace, capsys):
    assert main(["detect-gaps", "--graph", str(workspace / "target.tsv"),
                 "--property", INDUSTRY_PROP,
                 "--class", COMPANY_CLASS, "--type-prop", "P31"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "subject\tstatus"
    rows = dict(line.split("\t") for line in lines[1:])
    assert rows["Q1006"] == "unknown"
    assert sum(1 for v in rows.values() if v == "known") == 5


def test_detect_gaps_reads_type_property_from_config(workspace, capsys):
    graph = workspace / "typed.tsv"
    graph.write_text("node1\tlabel\tnode2\n"
                     "Q1\tP1\tC\nQ2\tP1\tC\nQ3\tP1\tD\nQ3\tP2\tC\nQ1\tP452\tQ9\n")
    cfg = workspace / "typed.yaml"
    cfg.write_text(CONFIG.replace("type_property: P31", "type_property: P1"))
    base = ["detect-gaps", "--graph", str(graph), "--property", INDUSTRY_PROP,
            "--class", "C", "--config", str(cfg)]
    assert main(base) == 0
    assert capsys.readouterr().out == "subject\tstatus\nQ1\tknown\nQ2\tunknown\n"
    # an explicit --type-prop still wins over the config
    assert main(base + ["--type-prop", "P2"]) == 0
    assert capsys.readouterr().out == "subject\tstatus\nQ3\tunknown\n"


def test_align_table(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    assert main(["align", "--config", cfg, "--property", INDUSTRY_PROP]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "path\tsupport\tsimilarity\tselected"
    selected = [line for line in lines[1:] if line.endswith("true")]
    assert len(selected) == 1
    assert selected[0].startswith("dbp:industry\t5\t1.0000")


def test_align_mode_flag(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    assert main(["align", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--mode", "freq"]) == 0
    out = capsys.readouterr().out
    assert "dbp:industry\t5" in out


@pytest.mark.parametrize("flag,value", [
    ("--max-len", "-1"), ("--max-len", "0"), ("--max-len", "7"),
    ("--sample-cap", "0"), ("--threshold", "nan"), ("--threshold", "2")])
def test_out_of_range_align_flag_is_usage_error(workspace, capsys, flag, value):
    code = main(["align", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_retrieve_validate_chain(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--path", "dbp:industry", "--out", str(cands)]) == 0
    body = cands.read_text()
    assert "Q1006" in body and "Q2002" in body
    verdicts = workspace / "verdicts.tsv"
    assert main(["validate", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--candidates", str(cands), "--out", str(verdicts)]) == 0
    assert "reject_reason" in verdicts.read_text().splitlines()[0]


def test_retrieve_missing_align_file_is_usage_error(workspace, capsys):
    # a mistyped align file name used to be read as one property step
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", "aligned_typo.tsv",
                 "--out", str(cands)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "aligned_typo.tsv" in err
    assert len(err.splitlines()) == 1
    assert not cands.exists()


@pytest.mark.parametrize("path", ["dbp:industry/", "/dbp:industry", "dbp:industry//dbp:x",
                                  "", "/", "{workspace}", "{workspace}/", "sub", "sub/"])
def test_retrieve_path_with_an_empty_step_or_a_directory_is_usage_error(
        workspace, capsys, monkeypatch, path):
    # an empty step or a directory used to give 0 candidates or an OSError (exit 2)
    monkeypatch.chdir(workspace)
    (workspace / "sub").mkdir()
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", path.format(workspace=workspace),
                 "--out", str(cands)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --path ")
    assert len(err.splitlines()) == 1
    assert not cands.exists()


def test_retrieve_align_file_without_columns_is_one_line_data_error(workspace, capsys):
    aligned = workspace / "aligned.tsv"
    aligned.write_text("steps\tchosen\ndbp:industry\ttrue\n")
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", str(aligned),
                 "--out", str(workspace / "cands.tsv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "path and selected columns" in err
    assert len(err.splitlines()) == 1


def test_candidate_file_without_columns_is_one_line_data_error(workspace, capsys):
    cands = workspace / "cands.tsv"
    cands.write_text("subject\tproperty\tobject\tpath\tflags\nQ1006\tP452\tQ2002\tx\t-\n")
    assert main(["validate", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--candidates", str(cands),
                 "--out", str(workspace / "v.tsv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("data error") and str(cands) in err
    assert "external_object" in err and "found ['subject'," in err


def test_candidate_row_missing_cells_is_one_line_data_error(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--path", "dbp:industry", "--out", str(cands)]) == 0
    header, *rows = cands.read_text().splitlines()
    # every row loses its last (flags) cell
    cands.write_text("\n".join([header] + [row.rsplit("\t", 1)[0] for row in rows]) + "\n")
    capsys.readouterr()
    assert main(["validate", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--candidates", str(cands), "--out", str(workspace / "v.tsv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"data error: {cands}:2:") and "needs 6 " in err


def test_property_without_known_values_is_config_error(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--path", "dbp:industry", "--out", str(cands)]) == 0
    capsys.readouterr()
    assert main(["validate", "--config", cfg, "--property", "P9999",
                 "--candidates", str(cands), "--out", str(workspace / "v.tsv")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("config error") and "P9999" in err
    assert "expected_datatype" not in err
    # consistency reports the same property with the same exit code
    assert main(["consistency", "--config", cfg, "--property", "P9999",
                 "--out-dir", str(workspace / "cons")]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("config error")


def test_stage_chain_equals_enrich(workspace):
    # align -> retrieve -> validate covers the whole entity universe, as enrich without --class
    cfg = str(workspace / "config.yaml")

    def rows(path, keep):
        lines = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        return sorted(tuple(cells[:3]) for cells in lines if keep(cells))

    for prop in (INDUSTRY_PROP, "P571"):
        aligned, cands, verdicts, out_dir = (workspace / f"{prop}-{name}"
                                             for name in ("aligned.tsv", "cands.tsv",
                                                          "verdicts.tsv", "out"))
        assert main(["align", "--config", cfg, "--property", prop,
                     "--out", str(aligned)]) == 0
        assert main(["retrieve", "--config", cfg, "--property", prop,
                     "--path", str(aligned), "--out", str(cands)]) == 0
        assert main(["validate", "--config", cfg, "--property", prop,
                     "--candidates", str(cands), "--out", str(verdicts)]) == 0
        assert main(["enrich", "--config", cfg, "--property", prop,
                     "--out-dir", str(out_dir), "--no-timings"]) == 0
        chain = rows(verdicts, lambda cells: cells[6] == "true")
        assert chain and chain == rows(out_dir / "statements.tsv", lambda cells: True)


def test_enrich_end_to_end(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    out_dir = workspace / "out"
    assert main(["enrich", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--class", COMPANY_CLASS, "--out-dir", str(out_dir)]) == 0
    statements = (out_dir / "statements.tsv").read_text()
    assert "Q1006\tP452\tQ2002" in statements
    report = (out_dir / "report.tsv").read_text()
    assert "dbp:industry" in report


def test_batch_deterministic_outputs(workspace):
    cfg = str(workspace / "config.yaml")
    outs = []
    for name in ("run1", "run2"):
        out_dir = workspace / name
        assert main(["batch", "--config", cfg,
                     "--properties", f"{INDUSTRY_PROP},P571,P17",
                     "--class", COMPANY_CLASS,
                     "--out-dir", str(out_dir), "--no-timings"]) == 0
        outs.append(((out_dir / "statements.tsv").read_bytes(),
                     (out_dir / "report.tsv").read_bytes()))
    assert outs[0] == outs[1]


def test_batch_report_contains_aggregate(workspace):
    cfg = str(workspace / "config.yaml")
    out_dir = workspace / "agg"
    assert main(["batch", "--config", cfg, "--properties", f"{INDUSTRY_PROP},P17",
                 "--class", COMPANY_CLASS, "--out-dir", str(out_dir),
                 "--no-timings"]) == 0
    report = (out_dir / "report.tsv").read_text()
    assert "(all)" in report
    assert "#median_novel_statements=" in report
    assert "no-alignment" in report


@pytest.mark.parametrize("source", ["--properties", "--properties-file"])
def test_empty_property_list_is_usage_error(workspace, capsys, source):
    listing = workspace / "properties.txt"
    listing.write_text("\n  \n\n")
    out_dir = workspace / "empty"
    code = main(["batch", "--config", str(workspace / "config.yaml"),
                 source, "," if source == "--properties" else str(listing),
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "usage error: batch needs at least one property\n"
    assert not out_dir.exists()


def test_resolve_forward_and_inverse(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    nodes = workspace / "nodes.txt"
    nodes.write_text("Q1001\nQ1006\nQ9999\n")
    assert main(["resolve", "--config", cfg, "--graph-tag", "dbp",
                 "--nodes", str(nodes)]) == 0
    out = capsys.readouterr().out
    assert "Q1001\tdbr:CompanyA" in out
    assert "#coverage=0.6667" in out
    externals = workspace / "ext.txt"
    externals.write_text("dbr:IndustryB\n")
    assert main(["resolve", "--config", cfg, "--graph-tag", "dbp",
                 "--nodes", str(externals), "--inverse"]) == 0
    assert "dbr:IndustryB\tQ2002" in capsys.readouterr().out


def test_consistency_outputs(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    out_dir = workspace / "cons"
    assert main(["consistency", "--config", cfg, "--property", "P571",
                 "--granularity", "year", "--class", COMPANY_CLASS,
                 "--out-dir", str(out_dir)]) == 0
    doc = json.loads((out_dir / "consistency.json").read_text())
    assert doc["expected_kind"] == "date"
    assert doc["r_agree"] == "100.00%"
    scatter = (out_dir / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "target_year,external_year"
    assert len(scatter) == 4


def test_consistency_item_property_writes_no_scatter(workspace):
    out_dir = workspace / "cons"
    assert main(["consistency", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--class", COMPANY_CLASS,
                 "--out-dir", str(out_dir)]) == 0
    doc = json.loads((out_dir / "consistency.json").read_text())
    assert doc["expected_kind"] == "item" and "granularity" not in doc
    assert not (out_dir / "scatter.csv").exists()


def test_report_rerender(workspace, tmp_path):
    cfg = str(workspace / "config.yaml")
    out_dir = workspace / "json_out"
    (workspace / "config_json.yaml").write_text(CONFIG.replace("format: tsv",
                                                               "format: json"))
    assert main(["enrich", "--config", str(workspace / "config_json.yaml"),
                 "--property", INDUSTRY_PROP, "--class", COMPANY_CLASS,
                 "--out-dir", str(out_dir)]) == 0
    rendered = tmp_path / "again.tsv"
    assert main(["report", "--results", str(out_dir / "report.json"),
                 "--format", "tsv", "--out", str(rendered), "--no-timings"]) == 0
    assert "dbp:industry" in rendered.read_text()


def test_report_rerender_of_json_equals_batch_tsv(workspace):
    # two externals, so the rows, the per-graph aggregates and the combined row all render
    two = CONFIG.replace("    - {path: external.tsv, tag: dbp}\n",
                         "    - {path: external.tsv, tag: dbp}\n"
                         "    - {path: external.tsv, tag: dbp2}\n")
    two = two.replace("mappings:\n",
                      "mappings:\n  dbp2: {link_property: sitelink, prefix: \"dbr:\"}\n")
    reports = {}
    for fmt in ("json", "tsv"):
        config = workspace / f"config_{fmt}.yaml"
        config.write_text(two.replace("format: tsv", f"format: {fmt}"))
        assert main(["batch", "--config", str(config),
                     "--properties", f"{INDUSTRY_PROP},P571,P17", "--class", COMPANY_CLASS,
                     "--out-dir", str(workspace / fmt), "--no-timings"]) == 0
        reports[fmt] = workspace / fmt / f"report.{fmt}"
    rendered = workspace / "again.tsv"
    assert main(["report", "--results", str(reports["json"]), "--format", "tsv",
                 "--no-timings", "--out", str(rendered)]) == 0
    batch_tsv = reports["tsv"].read_text()
    assert "(both)" in batch_tsv and "#median_novel_statements=" in batch_tsv
    assert rendered.read_bytes() == reports["tsv"].read_bytes()


@pytest.mark.parametrize("doc", [
    {"results": [{"graph": "dbp"}]},
    {"results": [{"property": "P452"}]},
    {"results": [1]},
    {"results": {"graph": "dbp", "property": "P452"}},
    [1],
    {"results": []},
    {},
    {"results": [{"graph": "d", "property": "p", "s_w": "x"}]},
    {"results": [{"graph": "d", "property": "p", "path": 3}]},
    {"results": [{"graph": "d", "property": "p"}], "summary": 3},
    {"results": [{"graph": "d", "property": "p", "timings": {"total": "x"}}]},
])
def test_malformed_results_json_is_one_line_data_error(tmp_path, capsys, doc):
    results = tmp_path / "report.json"
    results.write_text(json.dumps(doc))
    assert main(["report", "--results", str(results), "--out", str(tmp_path / "r.tsv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"data error: {results}: ")


def test_missing_mapping_is_config_error(workspace, capsys):
    broken = workspace / "broken.yaml"
    broken.write_text(CONFIG.replace("  dbp: {link_property: sitelink, prefix: \"dbr:\"}\n", "  {}\n"))
    code = main(["enrich", "--config", str(broken), "--property", INDUSTRY_PROP,
                 "--out-dir", str(workspace / "x")])
    assert code == 1
    assert "mappings.dbp" in capsys.readouterr().err


def test_load_check_malformed_escape_is_skipped(workspace, capsys):
    path = workspace / "escapes.tsv"
    rows = "".join(f"Q{i}\tP1\tQ{i + 1}\n" for i in range(20))
    path.write_text('node1\tlabel\tnode2\n' + rows + 'Q1\tP2\t"abc\\"\nQ1\tP3\t"\\uZZZZ"\n')
    assert main(["load-check", "--graph", str(path)]) == 0
    assert "2 malformed lines skipped" in capsys.readouterr().out


def test_batch_bytes_independent_of_hash_seed(workspace):
    # L=2 so the id-keyed walk over string-keyed sets runs
    (workspace / "config.yaml").write_text(
        CONFIG.replace("max_path_length: 1", "max_path_length: 2"))
    src = str(Path(kgenrich.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        out_dir = workspace / f"seed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "kgenrich.cli", "batch",
             "--config", str(workspace / "config.yaml"),
             "--properties", f"{INDUSTRY_PROP},P571,P17", "--class", COMPANY_CLASS,
             "--out-dir", str(out_dir), "--no-timings"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append([(out_dir / name).read_bytes()
                        for name in ("statements.tsv", "report.tsv")])
    assert outputs[0] == outputs[1]
