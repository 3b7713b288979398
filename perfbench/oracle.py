"""Checks one measured run's outputs against the generator's planted truth.

An operation is one (property, external) batch row or one consistency call.
A row fails when its status is not ``ok``, its path is not the planted one,
its novel count differs, or the statements file does not hold exactly the
planted statements for its property. A consistency call fails when its
agreement or novel counts differ. In a traced run, a row also fails when
selection did not fire by the planted rule (lexical override or frequency
fallback). Every run must write the same bytes as the first one.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path


def operations(truth: dict) -> list[str]:
    ops = [f"{p}|{e}" for e in truth["externals"] for p in truth["properties"]]
    ops += [f"consistency:{c['property']}|{c['external']}" for c in truth["consistency"]]
    return ops


def _tsv_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _check_rows(truth: dict, report: str) -> set[str]:
    rows = {f"{r['property']}|{r['graph']}": r for r in _tsv_rows(report)
            if r["status"] != "aggregate"}
    bad = set()
    for key, path in truth["paths"].items():
        row = rows.get(key)
        if row is None or row["status"] != "ok" or row["path"] != path \
                or int(row["s_e"]) != truth["novel"].get(key, 0):
            bad.add(key)
    return bad


def _check_statements(truth: dict, statements: str) -> set[str]:
    expected: dict[str, list[str]] = truth["statements"]
    got: Counter[str] = Counter()
    wrong_props = set()
    for row in _tsv_rows(statements):
        key = f"{row['node1']}\t{row['label']}\t{row['node2']}"
        got[key] += 1
        if row["source"] not in expected.get(key, ()) or row["provenance"] != "validated":
            wrong_props.add(row["label"])
    for key in set(got) | set(expected):
        if got[key] != (1 if key in expected else 0):
            wrong_props.add(key.split("\t")[1])
    return {f"{p}|{e}" for p in wrong_props for e in truth["externals"]}


def _check_consistency(truth: dict, reports: list[dict]) -> set[str]:
    bad = set()
    for i, call in enumerate(truth["consistency"]):
        got = reports[i] if i < len(reports) else {}
        if any(got.get(k) != call[k] for k in ("s_overlap", "s_agree", "s_disagree", "s_e")):
            bad.add(f"consistency:{call['property']}|{call['external']}")
    return bad


def _check_rules(truth: dict, spans: list) -> set[str]:
    """Lexical selections per external must match the planted rules."""
    expected: Counter[str] = Counter()
    for key, rule in truth["rules"].items():
        external = key.split("|")[1]
        uses = 1 + sum(1 for c in truth["consistency"]
                       if f"{c['property']}|{c['external']}" == key)
        expected[external] += uses if rule == "lexical" else 0
    got: Counter[str] = Counter()
    for span in spans:
        if span[0] == "select_path":
            got[span[5]["graph"]] += span[5]["lexical"]
    mismatched = {e for e in truth["externals"] if got[e] != expected[e]}
    return {op for op in operations(truth) if op.rsplit("|", 1)[1] in mismatched}


def check_run(truth: dict, run: dict, reference: dict[str, bytes]) -> tuple[set[str], int]:
    """Failed operations of one run, and the number it attempted."""
    ops = operations(truth)
    if run["crashed"] or run["exit_code"] != 0:
        return set(ops), len(ops)
    out: Path = run["out"]
    outputs = {name: (out / name).read_bytes() for name in ("statements.tsv", "report.tsv")}
    if not reference:
        reference.update(outputs)
    elif outputs != reference:
        return set(ops), len(ops)
    bad = _check_rows(truth, outputs["report.tsv"].decode("utf-8"))
    bad |= _check_statements(truth, outputs["statements.tsv"].decode("utf-8"))
    bad |= _check_consistency(truth, run["consistency"])
    if run["mode"] == "traced":
        bad |= _check_rules(truth, run["spans"])
    return bad, len(ops)
