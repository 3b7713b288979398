from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kgenrich
from kgenrich import pipeline
from kgenrich.align import AlignMode, PropertyPath
from kgenrich.cli import build_parser, main
from kgenrich.config import load_config
from kgenrich.retrieve import write_candidates
from kgenrich.store import read_tsv, write_edge_tsv

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


def test_load_check_counts_duplicate_lines(workspace, capsys):
    path = workspace / "dup.tsv"
    path.write_text("node1\tlabel\tnode2\nQ1\tP1\tQ2\nQ1\tP1\tQ2\nQ1\tP1\t\"x\"\n"
                    "Q1\tP1\tQ2\nQ1\tP1\t\"x\"\n")
    assert main(["load-check", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == (
        "graph graph: 2 edges, 2 nodes, 0 malformed lines skipped, 3 duplicate lines\n")


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
    ("output: {format: tsv}", "output: {format: tsv, include_timings: false}",
     "unknown config key: output.include_timings"),
    ("{path: target.tsv,", "{path: [target.tsv],", "graphs.target.path"),
    ("tag: wd}", "tag: null}", "graphs.target.tag"),
    ("{path: external.tsv, tag: dbp}", "{path: external.tsv, tag: 5}",
     "graphs.externals[0].tag"),
    ("gaps: {type_property: P31}", "gaps: {type_property: [P31]}", "gaps.type_property"),
    ("validation: {", "validation: {instance_of: 31, ", "validation.instance_of"),
    ("validation: {", 'validation: {subclass_of: "", ', "validation.subclass_of"),
    ("link_property: sitelink", "link_property: [sitelink]", "mappings.dbp.link_property"),
    ('prefix: "dbr:"', "prefix: null", "mappings.dbp.prefix"),
    ("alignment: {max_path_length: 1}", "alignment: {max_path_lenght: 4}",
     "unknown config key: alignment.max_path_lenght; did you mean alignment.max_path_length?"),
    ("validation: {", "validaton: {", "unknown config key: validaton; did you mean validation?"),
    ("{path: external.tsv, tag: dbp}",
     "{path: external.tsv, tag: dbp}\n    - {path: target.tsv, tag: dbp}",
     "graphs.externals[1].tag"),
    ("  dbp: {link_property", "  5: {link_property", "mappings key must be a string"),
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
    assert main(["report", "--results", "report.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "'report'" in err and err.count("\n") == 1


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


_EMPTY_STEP_PATHS = ("dbp:industry/", "/dbp:industry", "dbp:industry//dbp:x", "")


@pytest.mark.parametrize("path", [*_EMPTY_STEP_PATHS,
                                  "/", "{workspace}", "{workspace}/", "sub", "sub/"])
def test_retrieve_path_with_an_empty_step_or_a_directory_is_usage_error(
        workspace, capsys, monkeypatch, path):
    # an empty step or a directory used to give 0 candidates or an OSError (exit 2);
    # "" is path text, not the working directory
    monkeypatch.chdir(workspace)
    (workspace / "sub").mkdir()
    cands = workspace / "cands.tsv"
    arg = path.format(workspace=workspace)
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", arg, "--out", str(cands)]) == 1
    cause = (f"{arg!r}: a path step is empty or has a stray backslash"
             if path in _EMPTY_STEP_PATHS else f"{arg}: a directory, not an align file or a path")
    assert capsys.readouterr().err == f"usage error: --path {cause}\n"
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


CANDIDATE_HEADER = "subject\tproperty\tobject\texternal_object\tpath\tflags\n"
GOOD_CANDIDATE = "Q1006\tP452\tQ2002\tdbr:IndustryB\tdbp:industry\t-\n"


def test_candidate_of_another_property_is_a_data_error_naming_its_line(workspace, capsys):
    # such a row used to be validated against P452 and written as accepted
    cands = workspace / "cands.tsv"
    cands.write_text(CANDIDATE_HEADER + GOOD_CANDIDATE
                     + "Q1006\tP571\tQ2002\tdbr:IndustryB\tdbp:industry\t-\n")
    verdicts = workspace / "v.tsv"
    assert main(["validate", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--candidates", str(cands),
                 "--out", str(verdicts)]) == 2
    assert capsys.readouterr().err == (f"data error: {cands}:3: a candidate of property "
                                       f"P571, not {INDUSTRY_PROP}\n")
    assert not verdicts.exists()


def test_candidate_without_a_subject_is_a_data_error_naming_its_line(workspace, capsys):
    cands = workspace / "cands.tsv"
    cands.write_text(CANDIDATE_HEADER + GOOD_CANDIDATE + "\t" + GOOD_CANDIDATE.split("\t", 1)[1])
    verdicts = workspace / "v.tsv"
    assert main(["validate", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--candidates", str(cands),
                 "--out", str(verdicts)]) == 2
    assert capsys.readouterr().err == f"data error: {cands}:3: a candidate row has no subject\n"
    assert not verdicts.exists()


def test_unknown_candidate_flag_is_a_data_error_naming_its_line(workspace, capsys):
    # such a row used to load as a resolved candidate, and its object was validated
    cands = workspace / "cands.tsv"
    cands.write_text(CANDIDATE_HEADER + GOOD_CANDIDATE.replace("\t-\n", "\tambiguous\n")
                     + GOOD_CANDIDATE.replace("\t-\n", "\tunresolvd\n"))
    verdicts = workspace / "v.tsv"
    assert main(["validate", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--candidates", str(cands),
                 "--out", str(verdicts)]) == 2
    assert capsys.readouterr().err == (f"data error: {cands}:3: unknown candidate flag "
                                       "'unresolvd'\n")
    assert not verdicts.exists()


@pytest.mark.parametrize("column,cell", [("path", "dbp:industry//x"), ("object", '"\\uZZ"')])
def test_malformed_candidate_cell_is_a_data_error_naming_its_line(workspace, capsys,
                                                                   column, cell):
    # the message used to name the cell's text but neither the file nor the line
    row = GOOD_CANDIDATE.replace("dbp:industry" if column == "path" else "Q2002", cell, 1)
    cands = workspace / "cands.tsv"
    cands.write_text(CANDIDATE_HEADER + GOOD_CANDIDATE + "\n" + row)
    assert main(["validate", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--candidates", str(cands),
                 "--out", str(workspace / "v.tsv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {cands}:4: ") and err.count("\n") == 1


def test_malformed_selected_path_in_an_align_file_is_a_data_error_naming_its_line(
        workspace, capsys):
    aligned = workspace / "aligned.tsv"
    aligned.write_text("path\tsupport\tsimilarity\tselected\n"
                       "dbp:product\t1\t0.0000\tfalse\n"
                       "dbp:industry//x\t5\t1.0000\ttrue\n")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", str(aligned), "--out", str(cands)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {aligned}:3: 'dbp:industry//x': ")
    assert err.count("\n") == 1 and not cands.exists()


def test_align_file_selecting_two_paths_is_a_data_error_naming_the_file(workspace, capsys):
    # only the first selected row used to be followed: "0 candidates written", exit 0
    aligned = workspace / "aligned.tsv"
    aligned.write_text("path\tsupport\tsimilarity\tselected\n"
                       "dbp:product\t1\t0.0000\ttrue\n"
                       "dbp:industry\t5\t1.0000\ttrue\n")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", str(aligned), "--out", str(cands)]) == 2
    assert capsys.readouterr().err == (f"data error: {aligned}: 2 selected path rows; "
                                       "needs one\n")
    assert not cands.exists()


def test_property_without_known_values_is_config_error(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--path", "dbp:industry", "--out", str(cands)]) == 0
    capsys.readouterr()
    # validate reads its candidates before the graph, so they are P9999's
    cands.write_text(cands.read_text().replace(f"\t{INDUSTRY_PROP}\t", "\tP9999\t"))
    assert main(["validate", "--config", cfg, "--property", "P9999",
                 "--candidates", str(cands), "--out", str(workspace / "v.tsv")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("config error") and "P9999" in err
    assert "ValidationSettings" not in err
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


@pytest.mark.parametrize("source", ["--properties", "--properties-file"])
def test_repeated_property_is_usage_error(workspace, capsys, source):
    # a repeated property used to give two identical rows and #properties=2
    listing = workspace / "properties.txt"
    listing.write_text("P452\nP571\n P452\n")
    out_dir = workspace / "repeated"
    code = main(["batch", "--config", str(workspace / "config.yaml"),
                 source, "P452,P571,P452" if source == "--properties" else str(listing),
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "usage error: batch lists property P452 more than once\n"
    assert not out_dir.exists()


def test_resolve_forward_and_inverse(workspace, capsys):
    cfg = str(workspace / "config.yaml")
    nodes = workspace / "nodes.txt"
    nodes.write_text("Q1001\nQ1006\nQ9999\n")
    assert main(["resolve", "--config", cfg, "--external", "dbp",
                 "--nodes", str(nodes)]) == 0
    out = capsys.readouterr().out
    assert "Q1001\tdbr:CompanyA" in out
    assert "#coverage=0.6667" in out
    externals = workspace / "ext.txt"
    externals.write_text("dbr:IndustryB\n")
    assert main(["resolve", "--config", cfg, "--external", "dbp",
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


@pytest.mark.parametrize("name", ["consistency.json", "scatter.csv", "report.json"])
def test_failed_rewrite_leaves_the_previous_file_and_no_temporary_file(workspace, monkeypatch,
                                                                       name):
    json_config = workspace / "config_json.yaml"
    json_config.write_text(CONFIG.replace("format: tsv", "format: json"))
    out_dir = workspace / "out"
    argv = (["batch", "--config", str(json_config), "--properties", "P571",
             "--class", COMPANY_CLASS, "--out-dir", str(out_dir), "--no-timings"]
            if name == "report.json" else
            ["consistency", "--config", str(workspace / "config.yaml"), "--property", "P571",
             "--granularity", "year", "--class", COMPANY_CLASS, "--out-dir", str(out_dir)])
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert name in before
    replace_file = os.replace

    def fail_on_name(source, destination):
        if Path(destination).name == name:
            raise OSError("disk full")
        replace_file(source, destination)

    monkeypatch.setattr("os.replace", fail_on_name)
    (out_dir / name).write_bytes(b"previous\n")
    before[name] = b"previous\n"
    assert main(argv) == 2
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_batch_json_report_holds_the_rows_and_summary_of_the_tsv_report(workspace):
    # two externals, so the rows, the per-graph aggregates and the combined row all render
    two = CONFIG.replace("    - {path: external.tsv, tag: dbp}\n",
                         "    - {path: external.tsv, tag: dbp}\n"
                         "    - {path: external.tsv, tag: dbp2}\n")
    two = two.replace("mappings:\n",
                      "mappings:\n  dbp2: {link_property: sitelink, prefix: \"dbr:\"}\n")
    for fmt in ("json", "tsv"):
        config = workspace / f"config_{fmt}.yaml"
        config.write_text(two.replace("format: tsv", f"format: {fmt}"))
        assert main(["batch", "--config", str(config),
                     "--properties", f"{INDUSTRY_PROP},P571,P17", "--class", COMPANY_CLASS,
                     "--out-dir", str(workspace / fmt), "--no-timings"]) == 0
    doc = json.loads((workspace / "json" / "report.json").read_text())
    header, *lines = (workspace / "tsv" / "report.tsv").read_text().splitlines()
    rows = [dict(zip(header.split("\t"), line.split("\t")))
            for line in lines if not line.startswith("#")]
    footer = [line[1:].split("=", 1) for line in lines if line.startswith("#")]
    assert {(row["graph"], row["property"]) for row in rows} >= {
        ("dbp", "(all)"), ("dbp2", "(all)"), ("(both)", "(all)")}
    assert [{key: "-" if value is None else str(value) for key, value in row.items()}
            for row in doc["results"]] == rows
    assert footer == [[key, str(value)] for key, value in doc["summary"].items()]
    assert [key for key, _ in footer] == ["median_novel_statements", "properties"]


def test_missing_mapping_is_config_error(workspace, capsys):
    broken = workspace / "broken.yaml"
    broken.write_text(CONFIG.replace("  dbp: {link_property: sitelink, prefix: \"dbr:\"}\n", "  {}\n"))
    code = main(["enrich", "--config", str(broken), "--property", INDUSTRY_PROP,
                 "--out-dir", str(workspace / "x")])
    assert code == 1
    assert "mappings.dbp" in capsys.readouterr().err


def test_load_check_format_flag_reads_a_txt_file_as_ntriples(workspace, capsys):
    path = workspace / "g.txt"
    path.write_text("<http://ex/a> <http://ex/p> <http://ex/b> .\n"
                    '<http://ex/a> <http://ex/q> "x"@en .\n')
    assert main(["load-check", "--graph", str(path), "--format", "nt"]) == 0
    assert "2 edges, 2 nodes, 0 malformed" in capsys.readouterr().out
    # by its suffix the file is an edge TSV, which needs a header line
    assert main(["load-check", "--graph", str(path)]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


def test_empty_config_flag_is_usage_error(workspace, capsys):
    assert main(["align", "--config", "", "--property", INDUSTRY_PROP]) == 1
    assert capsys.readouterr().err == "usage error: this command requires --config\n"


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


def test_stage_chain_with_an_unprefixed_property_iri_equals_enrich(workspace):
    # the IRI keeps its slashes as one step; split on them, retrieve found nothing
    iri = "http://other.org/p/rel"
    external = workspace / "external.tsv"
    external.write_text(external.read_text().replace("dbp:industry", iri))
    cfg = str(workspace / "config.yaml")
    aligned, cands, verdicts, out_dir = (workspace / name for name in (
        "aligned.tsv", "cands.tsv", "verdicts.tsv", "out"))
    assert main(["align", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--out", str(aligned)]) == 0
    assert read_tsv(aligned, ("path", "selected"))[0] == (PropertyPath((iri,)).path_str, "true")
    assert main(["retrieve", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--path", str(aligned), "--out", str(cands)]) == 0
    assert main(["validate", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--candidates", str(cands), "--out", str(verdicts)]) == 0
    assert main(["enrich", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--out-dir", str(out_dir), "--no-timings"]) == 0
    chain = sorted(row[:3] for row in read_tsv(
        verdicts, ("subject", "property", "object", "accepted")) if row[3] == "true")
    assert chain and chain == sorted(read_tsv(out_dir / "statements.tsv",
                                              ("node1", "label", "node2")))
    # the same path given as text on the command line
    again = workspace / "again.tsv"
    assert main(["retrieve", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--path", PropertyPath((iri,)).path_str, "--out", str(again)]) == 0
    assert again.read_bytes() == cands.read_bytes()


@pytest.mark.parametrize("argv", [
    ["resolve", "--external", "dbp", "--nodes", "NODES"],
    ["align", "--property", INDUSTRY_PROP],
    ["retrieve", "--property", INDUSTRY_PROP, "--path", "dbp:industry"],
    ["enrich", "--property", INDUSTRY_PROP],
    ["batch", "--properties", INDUSTRY_PROP],
    ["consistency", "--property", INDUSTRY_PROP],
])
def test_missing_mapping_is_refused_before_any_graph_loads(workspace, capsys, monkeypatch,
                                                           argv):
    broken = workspace / "broken.yaml"
    broken.write_text(CONFIG.replace('  dbp: {link_property: sitelink, prefix: "dbr:"}\n',
                                     "  {}\n"))
    # a command that needs no mapping still reads the config
    assert main(["detect-gaps", "--graph", str(workspace / "target.tsv"),
                 "--property", INDUSTRY_PROP, "--config", str(broken)]) == 0
    (workspace / "nodes.txt").write_text("Q1001\n")
    loaded = []
    monkeypatch.setattr("kgenrich.cli.load_graph", lambda spec, *rest: loaded.append(spec))
    monkeypatch.chdir(workspace)
    capsys.readouterr()
    argv = [arg.replace("NODES", "nodes.txt") for arg in argv]
    assert main([argv[0], "--config", str(broken), *argv[1:]]) == 1
    assert capsys.readouterr().err == "config error: missing config key: mappings.dbp\n"
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["resolve", "--nodes", "absent.txt"],
    ["validate", "--property", INDUSTRY_PROP, "--candidates", "absent.tsv"],
])
def test_missing_input_file_is_a_data_error_before_any_graph_loads(workspace, capsys,
                                                                  monkeypatch, argv):
    loaded = []
    monkeypatch.setattr("kgenrich.cli.load_graph", lambda spec, *rest: loaded.append(spec))
    monkeypatch.chdir(workspace)
    assert main([argv[0], "--config", "config.yaml", *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "absent." in err
    assert loaded == []


def test_align_file_with_a_short_row_is_a_data_error_naming_its_line(workspace, capsys):
    # the short row used to be skipped and the selected row after it used
    aligned = workspace / "aligned.tsv"
    aligned.write_text("path\tsupport\tsimilarity\tselected\n"
                       "dbp:product\t1\n"
                       "dbp:industry\t5\t1.0000\ttrue\n")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", str(aligned), "--out", str(cands)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {aligned}:2: ") and err.count("\n") == 1
    assert not cands.exists()


def test_validate_cutoff_year_flag_puts_a_date_at_or_after_it_out_of_range(workspace):
    cfg = str(workspace / "config.yaml")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", cfg, "--property", "P571",
                 "--path", "dbp:founded", "--out", str(cands)]) == 0
    verdicts = {}
    for name, flags in (("default", []), ("cutoff", ["--cutoff-year", "2010"])):
        out = workspace / f"{name}.tsv"
        assert main(["validate", "--config", cfg, "--property", "P571",
                     "--candidates", str(cands), "--out", str(out), *flags]) == 0
        verdicts[name] = {obj: (accepted, reason) for obj, accepted, reason
                          in read_tsv(out, ("object", "accepted", "reject_reason"))}
    assert verdicts["default"] == {"1999": ("true", "-"), "2010": ("true", "-")}
    assert verdicts["cutoff"] == {"1999": ("true", "-"), "2010": ("false", "out-of-range")}


class _RunBuilt(Exception):
    pass


@pytest.mark.parametrize("command,flag,text,section,key,value", [
    ("align", "--max-len", "2", "alignment", "max_path_length", 2),
    ("align", "--sample-cap", "5", "alignment", "sample_cap", 5),
    ("align", "--threshold", "0.5", "alignment", "similarity_threshold", 0.5),
    ("align", "--mode", "freq", "alignment", "mode", AlignMode.FREQUENCY_ONLY),
    ("validate", "--cutoff-year", "2010", "validation", "cutoff_year", 2010),
    # a flag's path is kept as given, so it is read from the working directory
    ("validate", "--constraints", "other.tsv", "validation", "constraints", "other.tsv"),
    ("detect-gaps", "--type-prop", "P2", "gaps", "type_property", "P2"),
])
def test_each_flag_overrides_its_config_key_and_nothing_else(
        workspace, monkeypatch, command, flag, text, section, key, value):
    cfg_file = workspace / "config.yaml"
    required = {"align": ["--config", cfg_file, "--property", INDUSTRY_PROP],
                "validate": ["--config", cfg_file, "--property", INDUSTRY_PROP,
                             "--candidates", workspace / "cands.tsv"],
                "detect-gaps": ["--graph", workspace / "target.tsv", "--property",
                                INDUSTRY_PROP, "--config", cfg_file]}
    write_candidates([], workspace / "cands.tsv")  # validate reads it before the graph
    seen = []

    def run(target, cfg, **kwargs):
        seen.append(cfg)
        raise _RunBuilt

    monkeypatch.setattr(pipeline, "Run", run)
    with pytest.raises(_RunBuilt):
        main([command, *map(str, required[command]), flag, text])
    expected = load_config(cfg_file)
    setattr(expected, section, replace(getattr(expected, section), **{key: value}))
    assert seen == [expected]


def test_validate_constraints_flag_overrides_the_config_table_from_the_working_directory(
        workspace, monkeypatch):
    cfg = str(workspace / "config.yaml")
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", cfg, "--property", INDUSTRY_PROP,
                 "--path", "dbp:industry", "--out", str(cands)]) == 0
    # no industry is an instance of Q0; the file is not next to the config
    elsewhere = workspace / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "other.tsv").write_text(f"property\tallowed_class\n{INDUSTRY_PROP}\tQ0\n")
    monkeypatch.chdir(elsewhere)
    verdicts = {}
    for name, flags in (("config", []), ("flag", ["--constraints", "other.tsv"])):
        out = workspace / f"{name}.tsv"
        assert main(["validate", "--config", cfg, "--property", INDUSTRY_PROP,
                     "--candidates", str(cands), "--out", str(out), *flags]) == 0
        verdicts[name] = {reason for (reason,) in read_tsv(out, ("reject_reason",))}
    assert "-" in verdicts["config"] and "wrong-value-type" not in verdicts["config"]
    assert verdicts["flag"] == {"wrong-value-type"}


@pytest.mark.parametrize("argv", [
    ["validate", "--property", INDUSTRY_PROP, "--candidates", "CANDS", "--out", "OUT"],
    ["enrich", "--property", INDUSTRY_PROP, "--out-dir", "OUT"],
    ["batch", "--properties", INDUSTRY_PROP, "--out-dir", "OUT"],
], ids=lambda argv: argv[0])
def test_missing_constraints_file_is_a_data_error_before_any_output(workspace, capsys, argv):
    missing = workspace / "missing.yaml"
    missing.write_text(CONFIG.replace("constraints: constraints.tsv", "constraints: nosuch.tsv"))
    cands = workspace / "cands.tsv"
    assert main(["retrieve", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--path", "dbp:industry", "--out", str(cands)]) == 0
    capsys.readouterr()
    files = {"CANDS": str(cands), "OUT": str(workspace / "out")}
    assert main([argv[0], "--config", str(missing),
                 *(files.get(arg, arg) for arg in argv[1:])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "nosuch.tsv" in err and err.count("\n") == 1
    assert not (workspace / "out").exists()


def test_align_with_an_unknown_external_tag_is_config_error(workspace, capsys):
    assert main(["align", "--config", str(workspace / "config.yaml"),
                 "--property", INDUSTRY_PROP, "--external", "nosuch"]) == 1
    assert capsys.readouterr().err == \
        "config error: no external graph with tag 'nosuch' in config\n"


def test_batch_without_externals_is_config_error(workspace, capsys):
    bare = workspace / "bare.yaml"
    bare.write_text(CONFIG.replace("  externals:\n    - {path: external.tsv, tag: dbp}\n", ""))
    out_dir = workspace / "bare"
    assert main(["batch", "--config", str(bare), "--properties", INDUSTRY_PROP,
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == "config error: missing config key: graphs.externals\n"
    # so does every command that takes --external
    (workspace / "nodes.txt").write_text("Q1001\n")
    out = str(out_dir / "out.tsv")
    for argv in (["resolve", "--nodes", str(workspace / "nodes.txt"), "--out", out],
                 ["align", "--property", INDUSTRY_PROP, "--out", out],
                 ["retrieve", "--property", INDUSTRY_PROP, "--path", "dbp:industry", "--out", out],
                 ["enrich", "--property", INDUSTRY_PROP, "--out-dir", str(out_dir)],
                 ["consistency", "--property", INDUSTRY_PROP, "--out-dir", str(out_dir)]):
        assert main([argv[0], "--config", str(bare), *argv[1:]]) == 1
        assert capsys.readouterr().err == \
            "config error: missing config key: graphs.externals\n", argv[0]
    assert not out_dir.exists()


def test_batch_without_a_property_list_is_usage_error(workspace, capsys):
    out_dir = workspace / "none"
    assert main(["batch", "--config", str(workspace / "config.yaml"),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == \
        "usage error: batch needs --properties or --properties-file\n"
    assert not out_dir.exists()


def test_readme_cli_block_parses_and_names_every_subcommand_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    parser = build_parser()
    commands = []
    for line in block.splitlines():
        # [a|b] stands for its first choice
        argv = [word.strip("[]").split("|")[0] for word in line.split()]
        assert argv[0] == "kgenrich"
        args = parser.parse_args(argv[1:])
        assert callable(args.handler)
        commands.append(args.command)
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands) == sorted(subparsers.choices)


def test_parser_has_each_commands_flags_and_choices():
    # written out here, not read from the cli tables, so a change to either shows
    expected = {
        "load-check": ({"--graph"}, {"--format", "--tag", "--config"}),
        "detect-gaps": ({"--graph", "--property"},
                        {"--format", "--tag", "--class", "--type-prop", "--config", "--out"}),
        "resolve": ({"--config", "--nodes"}, {"--external", "--inverse", "--out"}),
        "align": ({"--config", "--property"}, {"--external", "--max-len", "--sample-cap",
                                               "--threshold", "--mode", "--out"}),
        "retrieve": ({"--config", "--property", "--path"}, {"--external", "--out"}),
        "validate": ({"--config", "--property", "--candidates"},
                     {"--constraints", "--cutoff-year", "--out"}),
        "enrich": ({"--config", "--property"},
                   {"--class", "--external", "--out-dir", "--no-timings"}),
        "batch": ({"--config"},
                  {"--properties", "--properties-file", "--class", "--out-dir", "--no-timings"}),
        "consistency": ({"--config", "--property"},
                        {"--granularity", "--class", "--external", "--out-dir"}),
    }
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    actions = {name: [action for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)]
               for name, parser in sub.choices.items()}
    assert {name: ({a.option_strings[0] for a in acts if a.required},
                   {a.option_strings[0] for a in acts if not a.required})
            for name, acts in actions.items()} == expected
    assert {(name, a.option_strings[0]): tuple(a.choices)
            for name, acts in actions.items() for a in acts if a.choices} == {
        ("load-check", "--format"): ("nt", "tsv"),
        ("detect-gaps", "--format"): ("nt", "tsv"),
        ("align", "--mode"): ("hybrid", "freq", "frequency", "string"),
        ("consistency", "--granularity"): ("year", "day"),
    }


def test_resolve_graph_tag_flag_is_a_one_line_usage_error(workspace, capsys):
    # resolve names its external graph with --external, as align does
    (workspace / "nodes.txt").write_text("Q1001\n")
    assert main(["resolve", "--config", str(workspace / "config.yaml"), "--graph-tag", "dbp",
                 "--nodes", str(workspace / "nodes.txt")]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: unrecognized arguments: --graph-tag dbp\n"
