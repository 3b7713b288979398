#!/usr/bin/env python3
"""End-to-end demo on a small company/industry fixture.

Builds a target graph with one company missing its industry value and an
external graph that knows it, writes everything to a workspace directory,
then drives the CLI: align -> enrich -> consistency (item agreement for
P452, year agreement and a scatter.csv for P571). It also aligns the
date-valued P571 at up to 3 and up to 4 hops, which take the
literal-terminal last-hop lookup and, at 4, the two-hop join, and exits 1
unless ``dbp:founded`` is selected at both. For P452 it runs the stage chain
``align --out`` -> ``retrieve --path`` -> ``validate`` and exits 1 unless the
accepted rows equal the statements of ``enrich`` without ``--class``. Last it
runs ``batch`` over two externals (the external file again under the tag
``dbp2``, from a second config file) and exits 1 unless each ``(all)`` row's
``s_e`` is the sum of its graph's rows and the ``(both)`` row's ``s_e`` is the
number of statements written.
Reports are written without timings, so the workspace's bytes depend only on
the inputs. Inspect the workspace afterwards to see every intermediate file. Exits
with the first failing command's exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from kgenrich.cli import main as cli_main
from kgenrich.store import Graph, Literal, read_tsv, write_edge_tsv

CONFIG = """\
graphs:
  target: {path: target.tsv, tag: wd}
  externals:
    - {path: external.tsv, tag: dbp}
mappings:
  dbp: {link_property: sitelink, prefix: "dbr:"}
alignment: {max_path_length: 1, similarity_threshold: 0.9, top_k: 10}
validation: {constraints: constraints.tsv, cutoff_year: 2022}
gaps: {type_property: P31}
output: {format: tsv}
"""

# the same external file a second time, under its own tag
TWO_EXTERNALS = CONFIG.replace(
    "    - {path: external.tsv, tag: dbp}\n",
    "    - {path: external.tsv, tag: dbp}\n    - {path: external.tsv, tag: dbp2}\n").replace(
    '  dbp: {link_property: sitelink, prefix: "dbr:"}\n',
    '  dbp: {link_property: sitelink, prefix: "dbr:"}\n'
    '  dbp2: {link_property: sitelink, prefix: "dbr:"}\n')

CONSTRAINTS = (
    "#mode=both\n"
    "property\tallowed_class\n"
    + "".join(f"P452\t{c}\n"
              for c in ("Q8148", "Q268592", "Q8187769", "Q3958441", "Q121359"))
)


def build_target() -> Graph:
    g = Graph("wd")
    companies = [f"Q100{i}" for i in range(1, 7)]
    for i, company in enumerate(companies):
        g.add_edge(company, "P31", "Q783794")
        g.add_edge(company, "sitelink", Literal.string(f"Company{'ABCDEF'[i]}"))
    for i in range(1, 6):
        industry = f"Q200{i}"
        g.add_edge(industry, "P31", "Q8148")
        g.add_edge(industry, "sitelink", Literal.string(f"Industry{'ABCDE'[i - 1]}"))
        g.add_edge(companies[i - 1], "P452", industry)
    for company, year in zip(companies[:3], (1990, 1985, 2001)):
        g.add_edge(company, "P571", Literal.date(year))
    g.add_edge("P452", "label", Literal.string("industry"))
    g.add_edge("P571", "label", Literal.string("inception"))
    g.add_edge("Q783794", "label", Literal.string("company"))
    return g


def build_external() -> Graph:
    g = Graph("dbp")
    for company, industry in zip("ABCDEF", "ABCDEB"):
        g.add_edge(f"dbr:Company{company}", "dbp:industry", f"dbr:Industry{industry}")
    for company, year in zip("ABC", (1990, 1985, 2001)):
        g.add_edge(f"dbr:Company{company}", "dbp:founded", Literal.date(year))
    g.add_edge("dbr:CompanyA", "dbp:product", "dbr:IndustryA")
    g.add_edge("dbp:industry", "label", Literal.string("industry"))
    return g


def aggregates_add_up(out_dir: Path) -> bool:
    """Whether each ``(all)`` row's s_e sums its graph's rows and the ``(both)`` row's
    s_e counts the statement file's rows; prints what disagrees."""
    lines = [line.split("\t") for line in (out_dir / "report.tsv").read_text().splitlines()
             if not line.startswith("#")]  # the summary lines
    rows = [dict(zip(lines[0], cells)) for cells in lines[1:]]
    s_e: dict[str, int] = {}
    for row in rows:
        if row["property"] != "(all)":
            s_e[row["graph"]] = s_e.get(row["graph"], 0) + int(row["s_e"])
    s_e["(both)"] = len((out_dir / "statements.tsv").read_text().splitlines()) - 1
    aggregates = {row["graph"]: int(row["s_e"]) for row in rows if row["property"] == "(all)"}
    print(f"aggregate s_e {aggregates}, expected {s_e}")
    if aggregates != s_e:
        print("expected each (all) row to sum its rows and (both) to count the statements",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workspace", default="demo_workspace")
    args = parser.parse_args()

    ws = Path(args.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    write_edge_tsv(build_target(), ws / "target.tsv")
    write_edge_tsv(build_external(), ws / "external.tsv")
    (ws / "constraints.tsv").write_text(CONSTRAINTS)
    (ws / "config.yaml").write_text(CONFIG)
    (ws / "config_two_externals.yaml").write_text(TWO_EXTERNALS)
    cfg = str(ws / "config.yaml")
    out = str(ws / "out")

    def run(title: str, *argv: str, config: str = cfg) -> None:
        print(f"== {title} ==")
        code = cli_main([argv[0], "--config", config, *argv[1:]])
        if code != 0:
            raise SystemExit(code)

    run("candidate property paths for P452 (industry)", "align", "--property", "P452")
    aligned, cands, verdicts = (ws / name for name in
                                ("aligned_P452.tsv", "candidates_P452.tsv", "verdicts_P452.tsv"))
    run("stage chain for P452: align", "align", "--property", "P452", "--out", str(aligned))
    run("stage chain for P452: retrieve over the selected path", "retrieve",
        "--property", "P452", "--path", str(aligned), "--out", str(cands))
    run("stage chain for P452: validate", "validate", "--property", "P452",
        "--candidates", str(cands), "--out", str(verdicts))
    run("enrich P452 over every subject", "enrich", "--property", "P452",
        "--out-dir", str(ws / "out-all"), "--no-timings")
    chain = sorted(row[:3] for row in read_tsv(verdicts, ("subject", "property", "object",
                                                          "accepted")) if row[3] == "true")
    enriched = sorted(read_tsv(ws / "out-all" / "statements.tsv", ("node1", "label", "node2")))
    print(f"stage chain accepted {chain}")
    if not chain or chain != enriched:
        print(f"expected the stage chain to accept what enrich writes, {enriched}",
              file=sys.stderr)
        return 1
    for max_len in ("3", "4"):
        aligned = ws / f"aligned_P571_L{max_len}.tsv"
        run(f"paths up to {max_len} hops for P571 (inception), a date-valued property",
            "align", "--property", "P571", "--max-len", max_len, "--out", str(aligned))
        table = aligned.read_text()
        print(table)
        selected = [row.split("\t")[0] for row in table.splitlines() if row.endswith("\ttrue")]
        if selected != ["dbp:founded"]:
            print(f"expected dbp:founded to be selected for P571 at --max-len {max_len}, "
                  f"got {selected}", file=sys.stderr)
            return 1
    run("enrich P452 for companies (Q783794)", "enrich", "--property", "P452",
        "--class", "Q783794", "--out-dir", out, "--no-timings")
    print("\nvalidated statements:")
    print((ws / "out" / "statements.tsv").read_text())
    run("agreement with existing values (overlap mode)", "consistency",
        "--property", "P452", "--class", "Q783794", "--out-dir", out)
    run("inception-year agreement, with scatter.csv", "consistency",
        "--property", "P571", "--granularity", "year", "--class", "Q783794",
        "--out-dir", str(ws / "out-dates"))
    print((ws / "out-dates" / "scatter.csv").read_text())
    batch_out = ws / "out-batch"
    run("batch over two externals, dbp and dbp2", "batch", "--properties", "P452,P571",
        "--class", "Q783794", "--out-dir", str(batch_out), "--no-timings",
        config=str(ws / "config_two_externals.yaml"))
    if not aggregates_add_up(batch_out):
        return 1

    print(f"\nworkspace written to {ws}/ (see out/ for reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
