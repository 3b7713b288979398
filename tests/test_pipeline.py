from __future__ import annotations

import json
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgenrich import pipeline, validate
from kgenrich.consistency import Granularity, agreement, literal_agreement
from kgenrich.errors import ConfigError
from kgenrich.pipeline import (NO_ALIGNMENT, EnrichmentResult, Run, batch_enrich,
                               emit_report, enrich_property, run_consistency,
                               write_statements)
from kgenrich.store import Literal, load_edge_tsv
from kgenrich.validate import RelationMode, ValueTypeConstraint

from conftest import (COMPANY_CLASS, INDUSTRY_CLASSES, INDUSTRY_PROP, graph_from_edges,
                      make_company_config, make_company_external)


def test_fig1_style_end_to_end(company_fixture):
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert result.status == "ok"
    assert result.selected_path.steps == ("dbp:industry",)
    assert result.s_w == 5 and result.n_k == 5 and result.n_u == 1
    assert result.s_g == 1 and result.s_e == 1 and result.n_c == 1
    assert result.s_total == result.s_w + result.s_e == 6
    (stmt,) = result.statements
    assert stmt.subject == fx.gap_subject
    assert stmt.object == fx.expected_value
    assert stmt.source_graph == "dbp"
    assert result.r_e == pytest.approx(0.2)
    assert result.r_c == 1.0 and result.r_r == 1.0


def test_no_emitted_subject_in_known_set(company_fixture):
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    partition = Run(fx.target, fx.cfg, entity_class=COMPANY_CLASS).gaps(INDUSTRY_PROP)
    assert {s.subject for s in result.statements} <= partition.unknown_subjects
    assert not {s.subject for s in result.statements} & partition.known_subjects


def test_timings_recorded(company_fixture):
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert set(result.timings) == {"entity_align", "property_align", "retrieval",
                                   "datatype_validation", "valuetype_validation",
                                   "total"}
    assert all(v >= 0 for v in result.timings.values())
    stage_max = max(v for k, v in result.timings.items() if k != "total")
    assert result.timings["total"] >= stage_max


def test_zero_known_statements_yields_no_alignment_marker(company_fixture):
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, "P9999", fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert result.status == NO_ALIGNMENT
    assert result.s_g == 0 and result.s_e == 0
    assert result.selected_path is None


def test_unalignable_object_property_yields_no_alignment(company_fixture):
    # P17 objects (countries) carry no sitelink, so no pair can be mapped
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, "P17", fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert result.status == NO_ALIGNMENT


def test_enrich_loads_config_constraints_when_none_given(tmp_path, company_fixture):
    fx = company_fixture
    # a second candidate for the gap company resolves to a company, not an industry
    fx.external.add_edge("dbr:CompanyF", "dbp:industry", "dbr:CompanyA")
    (tmp_path / "constraints.tsv").write_text(
        "#mode=both\nproperty\tallowed_class\n"
        + "".join(f"{INDUSTRY_PROP}\t{c}\n"
                  for c in sorted(fx.constraints[INDUSTRY_PROP].allowed_classes)))
    fx.cfg.constraints_path = str(tmp_path / "constraints.tsv")

    def run(**kwargs):
        result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                                 entity_class=COMPANY_CLASS, **kwargs)
        return result.s_g, result.s_e, result.statements

    loaded = run()
    assert loaded == run(constraints=fx.cfg.load_constraint_table())
    assert loaded[:2] == (2, 1)
    assert run(constraints={})[:2] == (2, 2)


def test_half_validated_fixture_rates():
    # five gap subjects, ten candidates, five pass validation
    target_edges = []
    external_edges = []
    for letter in "AB":
        target_edges += [(f"K{letter}", "P31", "C"),
                         (f"K{letter}", "sitelink", Literal.string(f"K{letter}")),
                         (f"K{letter}", "P452", f"V{letter}"),
                         (f"V{letter}", "P31", "T"),
                         (f"V{letter}", "sitelink", Literal.string(f"V{letter}"))]
        external_edges.append((f"dbr:K{letter}", "dbp:industry", f"dbr:V{letter}"))
    for i in range(5):
        target_edges += [(f"G{i}", "P31", "C"),
                         (f"G{i}", "sitelink", Literal.string(f"G{i}")),
                         (f"GOOD{i}", "P31", "T"),
                         (f"GOOD{i}", "sitelink", Literal.string(f"GOOD{i}")),
                         (f"BAD{i}", "P31", "OFF"),
                         (f"BAD{i}", "sitelink", Literal.string(f"BAD{i}"))]
        external_edges += [(f"dbr:G{i}", "dbp:industry", f"dbr:GOOD{i}"),
                           (f"dbr:G{i}", "dbp:industry", f"dbr:BAD{i}")]
    target = graph_from_edges("wd", target_edges + [("P452", "label", Literal.string("industry"))])
    external = graph_from_edges("dbp", external_edges)
    cfg = make_company_config()
    from kgenrich.validate import ValueTypeConstraint
    constraints = {"P452": ValueTypeConstraint("P452", frozenset({"T"}))}
    result = enrich_property(target, external, "P452", cfg, entity_class="C",
                             constraints=constraints)
    assert result.s_g == 10 and result.s_e == 5
    assert result.r_c == 0.5
    assert result.r_e == result.s_e / result.s_w == 2.5
    assert result.r_r == result.n_c / result.n_u == 1.0


def test_batch_rows_aggregates_and_dedup(company_fixture):
    fx = company_fixture
    external2 = make_company_external("dbp2")
    batch = batch_enrich(fx.target, [fx.external, external2],
                         [INDUSTRY_PROP, "P571", "P17"], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert len(batch.rows) == 6
    by_key = {(r.property, r.graph): r for r in batch.rows}
    assert by_key[("P17", "dbp")].status == NO_ALIGNMENT
    assert by_key[(INDUSTRY_PROP, "dbp")].s_e == 1
    assert by_key[("P571", "dbp")].s_e == 2

    tags = [a.graph for a in batch.aggregates]
    assert tags == ["dbp", "dbp2", "(both)"]
    per_graph = {a.graph: a for a in batch.aggregates}
    assert per_graph["dbp"].s_e == 3           # 1 industry + 2 founding dates
    # identical statements from the two externals deduplicate in the both row
    assert per_graph["(both)"].s_e == 3
    assert per_graph["(both)"].s_w == by_key[(INDUSTRY_PROP, "dbp")].s_w \
        + by_key[("P571", "dbp")].s_w + by_key[("P17", "dbp")].s_w
    assert len(batch.statements()) == 3
    assert batch.median_novel is not None


def _reference_row_sets(fx, external, row) -> tuple[set, set, set, set]:
    """Known subjects, gap subjects, candidate keys and statement keys behind one batch row."""
    if row.status.startswith("error"):
        return set(), set(), set(), set()
    run = Run(fx.target, fx.cfg, entity_class=COMPANY_CLASS, constraints=fx.constraints)
    partition = run.gaps(row.property)
    _, selected = run.align(external, row.property, partition)
    assert selected == row.selected_path
    candidates = accepted = []
    if selected is not None:
        candidates = run.candidates(external, row.property, selected,
                                    partition.unknown_subjects)
        accepted = run.validate(row.property, partition.known, candidates).accepted

    def keys(cands):
        return {(c.subject, row.property, c.object) for c in cands}

    return (set(partition.known_subjects), set(partition.unknown_subjects),
            keys(candidates), keys(accepted))


def _reference_aggregate(rows_with_sets, graph: str) -> EnrichmentResult:
    """Union arithmetic over rows that each keep their id sets, in the batch's row order."""
    s_w: dict[str, int] = {}
    timings: dict[str, float] = {}
    known, unknown, candidate_keys, statement_keys = set(), set(), set(), set()
    for row, (row_known, row_unknown, row_candidates, row_statements) in rows_with_sets:
        s_w.setdefault(row.property, row.s_w)
        for key, seconds in row.timings.items():
            timings[key] = timings.get(key, 0.0) + seconds
        known |= row_known
        unknown |= row_unknown
        candidate_keys |= row_candidates
        statement_keys |= row_statements
    return EnrichmentResult(
        property="(all)", graph=graph, status="aggregate", s_w=sum(s_w.values()),
        s_g=len(candidate_keys), s_e=len(statement_keys), n_k=len(known), n_u=len(unknown),
        n_f=len({key[0] for key in candidate_keys}),
        n_c=len({key[0] for key in statement_keys}), timings=timings)


@pytest.mark.parametrize("type_property", ["P31", "P9999"])
def test_batch_aggregates_equal_union_reference(company_fixture, type_property):
    # P9999 as the type property makes every row an error row
    fx = company_fixture
    fx.cfg.gaps.type_property = type_property
    externals = {"dbp": fx.external, "dbp2": make_company_external("dbp2")}
    properties = [INDUSTRY_PROP, "P571", "P17", "P9999", INDUSTRY_PROP]
    batch = batch_enrich(fx.target, list(externals.values()), properties, fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert len(batch.rows) == 10
    assert all(r.status.startswith("error") for r in batch.rows) == (type_property == "P9999")
    rows_with_sets = [(row, _reference_row_sets(fx, externals[row.graph], row))
                      for row in batch.rows]
    expected = [_reference_aggregate([rs for rs in rows_with_sets if rs[0].graph == tag], tag)
                for tag in externals]
    expected.append(_reference_aggregate(rows_with_sets, "(both)"))

    counts = ("property", "graph", "status", "s_w", "s_g", "s_e", "n_k", "n_u", "n_f", "n_c")
    assert len(batch.aggregates) == len(expected)
    for got, want in zip(batch.aggregates, expected):
        assert [getattr(got, f) for f in counts] == [getattr(want, f) for f in counts]
        assert got.timings == pytest.approx(want.timings)


def test_run_builds_each_mapping_and_closure_once(company_fixture, monkeypatch):
    fx = company_fixture
    closures, mappings = Counter(), []
    closure_of, mapping_of = validate.allowed_class_closure, pipeline.build_mapping

    def counted_closure(graph, allowed_classes, *args):
        closures[allowed_classes] += 1
        return closure_of(graph, allowed_classes, *args)

    def counted_mapping(target, link_property, transform=None):
        mappings.append(link_property)
        return mapping_of(target, link_property, transform)

    monkeypatch.setattr(validate, "allowed_class_closure", counted_closure)
    monkeypatch.setattr(pipeline, "build_mapping", counted_mapping)
    # two constrained properties share one allowed-class set, under different modes
    constraints = {**fx.constraints, "P571": ValueTypeConstraint(
        "P571", INDUSTRY_CLASSES, relation_mode=RelationMode.INSTANCE_OF)}
    batch = batch_enrich(fx.target, [fx.external, make_company_external("dbp2")],
                         [INDUSTRY_PROP, "P571", "P17", INDUSTRY_PROP], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=constraints)
    assert sum(row.s_g > 0 for row in batch.rows) == 6  # every validated row ran the check
    assert closures == Counter({INDUSTRY_CLASSES: 1})
    assert mappings == ["sitelink", "sitelink"]  # one per external graph


def test_batch_times_each_mapping_build_in_its_first_row(company_fixture, monkeypatch):
    build = pipeline.build_mapping

    def slow_mapping(*args):
        time.sleep(0.02)
        return build(*args)

    monkeypatch.setattr(pipeline, "build_mapping", slow_mapping)
    fx = company_fixture
    batch = batch_enrich(fx.target, [fx.external, make_company_external("dbp2")],
                         [INDUSTRY_PROP, "P571"], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    per_graph = {a.graph: a for a in batch.aggregates}
    for tag in ("dbp", "dbp2"):
        assert per_graph[tag].timings["entity_align"] >= 0.02
        assert per_graph[tag].timings["total"] >= per_graph[tag].timings["entity_align"]


def test_missing_mapping_fails_the_batch_even_when_every_row_errors(company_fixture):
    fx = company_fixture
    fx.cfg.gaps.type_property = "P9999"  # gap detection raises in every row
    with pytest.raises(ConfigError, match="mappings.nomap"):
        batch_enrich(fx.target, [fx.external, make_company_external("nomap")],
                     [INDUSTRY_PROP], fx.cfg, entity_class=COMPANY_CLASS,
                     constraints=fx.constraints)


# -- one statement identity: value equality, not the TSV rendering --------------


def _identity_batch(target_edges, external_edges):
    """A one-property (P1), one-external batch; entities are typed C, linked by sitelink."""
    target = graph_from_edges("wd", [*target_edges, ("P1", "label", Literal.string("p"))])
    external = graph_from_edges("dbp", external_edges)
    batch = batch_enrich(target, [external], ["P1"], make_company_config(),
                         entity_class="C", constraints={})
    (row,), (aggregate,) = batch.rows, batch.aggregates
    return row, aggregate


_COUNTERS = ("s_w", "s_g", "s_e", "n_k", "n_u", "n_f", "n_c")


def test_node_and_other_literal_with_one_rendering_count_twice_in_the_aggregate():
    # dbr:Y1 inverse-resolves to node V1; an N-Triples "V1"^^<custom> is Other("V1");
    # both render as V1 in a TSV
    link = [(node, "sitelink", Literal.string(node)) for node in ("K", "G", "V0")]
    target = [("K", "P31", "C"), ("G", "P31", "C"), ("K", "P1", "V0"),
              ("V1", "sitelink", Literal.string("Y1")), *link]
    external = [("dbr:K", "ext:p", "dbr:V0"), ("dbr:G", "ext:p", "dbr:Y1"),
                ("dbr:G", "ext:p", Literal.other("V1"))]
    row, aggregate = _identity_batch(target, external)
    assert row.s_g == 2
    assert [getattr(aggregate, f) for f in _COUNTERS] == [getattr(row, f) for f in _COUNTERS]


_KNOWN, _GAPS = ["S0", "S1"], ["S2", "S3"]
# node terminals Y<i> and Z, Other literals spelling node ids (target V<i>, unresolved
# external dbr:Y<i> and dbr:Z), and dates; V<i> has the external id dbr:Y<i> when linked
_TERMINAL = st.sampled_from(
    ["Y0", "Y1", "Z"] + [Literal.other(text) for text in ("V0", "V1", "dbr:Y1", "dbr:Z", "x")]
    + [Literal.date(1990), Literal.date(1990, 5), Literal.date(1990, 5, 1)])


@settings(max_examples=200, deadline=None)
@given(known=st.lists(st.tuples(st.sampled_from(_KNOWN), _TERMINAL), min_size=1, max_size=4),
       external=st.lists(st.tuples(st.sampled_from(_KNOWN + _GAPS),
                                   st.sampled_from(["ext:p", "ext:p", "ext:q"]), _TERMINAL),
                         max_size=10),
       linked=st.sets(st.sampled_from(["V0", "V1"])))
def test_aggregate_of_one_row_equals_the_row(known, external, linked):
    target = [edge for s in _KNOWN + _GAPS
              for edge in ((s, "P31", "C"), (s, "sitelink", Literal.string(s)))]
    target += [(v, "sitelink", Literal.string(f"Y{v[1:]}")) for v in sorted(linked)]
    target += [(s, "P1", obj.replace("Y", "V") if isinstance(obj, str) else obj)
               for s, obj in known]
    external_edges = [(f"dbr:{s}", p, f"dbr:{obj}" if isinstance(obj, str) else obj)
                      for s, p, obj in external]
    row, aggregate = _identity_batch(target, external_edges)
    assert [getattr(aggregate, f) for f in _COUNTERS] == [getattr(row, f) for f in _COUNTERS]


def test_batch_rows_sorted_by_enrichment_rate(company_fixture):
    fx = company_fixture
    batch = batch_enrich(fx.target, [fx.external],
                         [INDUSTRY_PROP, "P571", "P17", "P9999"],
                         fx.cfg, entity_class=COMPANY_CLASS, constraints=fx.constraints)
    rates = [r.r_e for r in batch.rows]
    defined = [r for r in rates if r is not None]
    assert defined == sorted(defined, reverse=True)
    # undefined rates (zero known statements) sort last
    assert rates.index(None) > max(i for i, r in enumerate(rates) if r is not None)


def test_batch_errors_do_not_abort(company_fixture):
    fx = company_fixture
    # an entity class whose type property is absent raises inside the run
    batch = batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert batch.rows[0].status == "ok"
    bad_cfg = make_company_config()
    bad_cfg.gaps.type_property = "P9999"
    batch = batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP], bad_cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert batch.rows[0].status.startswith("error:")


def test_emit_report_tsv_and_json(tmp_path, company_fixture):
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    tsv = emit_report([result], "tsv", tmp_path / "r.tsv")
    lines = tsv.read_text().splitlines()
    assert lines[0].startswith("graph\tproperty\tstatus\tpath")
    assert len(lines) == 2
    cells = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert cells["r_e"] == "20.00%" and cells["r_c"] == "100.00%"

    js = emit_report([result], "json", tmp_path / "r.json")
    doc = json.loads(js.read_text())
    assert doc["results"][0]["path"] == "dbp:industry"
    assert doc["results"][0]["r_r"] == "100.00%"


def test_emit_report_rate_formatting_and_empty_timings(tmp_path):
    result = EnrichmentResult(property="P19", graph="dbp", s_w=884_078,
                              s_g=884_078, s_e=461_089)
    tsv = emit_report([result], "tsv", tmp_path / "rates.tsv")
    row = tsv.read_text().splitlines()[1].split("\t")
    header = tsv.read_text().splitlines()[0].split("\t")
    cells = dict(zip(header, row))
    assert cells["r_c"] == "52.15%"
    assert cells["t_total"] == "0.00"
    zero = EnrichmentResult(property="P1", graph="dbp")
    row2 = emit_report([zero], "tsv", tmp_path / "zero.tsv").read_text().splitlines()[1]
    assert "\t-\t" in row2  # undefined rates render as '-'


def test_emit_report_deterministic_bytes(tmp_path, company_fixture):
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    a = emit_report([result], "tsv", tmp_path / "a.tsv", include_timings=False)
    b = emit_report([result], "tsv", tmp_path / "b.tsv", include_timings=False)
    assert a.read_bytes() == b.read_bytes()


def test_statement_file_loads_back(tmp_path, company_fixture):
    fx = company_fixture
    result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                             entity_class=COMPANY_CLASS, constraints=fx.constraints)
    out = tmp_path / "statements.tsv"
    write_statements(result.statements, out)
    g = load_edge_tsv(out, "enriched")
    assert g.edge_count == 1
    (obj,) = g.objects(fx.gap_subject, INDUSTRY_PROP)
    assert obj == fx.expected_value


def test_run_consistency_item_property(company_fixture):
    fx = company_fixture
    fx.external.add_edge("dbr:CompanyE", "dbp:industry", "dbr:IndustryA")
    outcome = run_consistency(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                              entity_class=COMPANY_CLASS, constraints=fx.constraints)
    report = outcome.report
    assert report is not None
    assert report.s_overlap == 6 and report.s_agree == 5 and report.s_disagree == 1
    assert report.r_agree_str == "83.33%"
    assert outcome.s_e == 1  # the novel side still runs
    assert outcome.s_w == 5


def test_run_consistency_literal_property(company_fixture):
    fx = company_fixture
    year = run_consistency(fx.target, fx.external, "P571", fx.cfg,
                           granularity=Granularity.YEAR,
                           entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert year.report.s_agree == 3
    assert year.report.r_agree == 1.0
    day = run_consistency(fx.target, fx.external, "P571", fx.cfg,
                          granularity=Granularity.DAY,
                          entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert day.report.s_agree == 2
    assert day.report.s_disagree == 1
    assert day.report.r_agree <= year.report.r_agree


@pytest.mark.parametrize("prop, granularity", [
    (INDUSTRY_PROP, None), ("P571", Granularity.YEAR), ("P571", Granularity.DAY)])
def test_run_consistency_equals_two_pass_reference(company_fixture, prop, granularity):
    # the reference retrieves and validates known and gap subjects separately
    fx = company_fixture
    fx.external.add_edge("dbr:CompanyE", "dbp:industry", "dbr:IndustryA")
    run = Run(fx.target, fx.cfg, entity_class=COMPANY_CLASS, constraints=fx.constraints)
    partition = run.gaps(prop)
    _, selected = run.align(fx.external, prop, partition)

    def accepted(subjects):
        candidates = run.candidates(fx.external, prop, selected, subjects)
        return run.validate(prop, partition.known, candidates).accepted

    overlap = accepted(partition.known_subjects)
    expected = (agreement(fx.target, overlap) if granularity is None
                else literal_agreement(fx.target, overlap, granularity))
    outcome = run_consistency(fx.target, fx.external, prop, fx.cfg, granularity,
                              entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert outcome.report == expected
    assert outcome.s_e == len(accepted(partition.unknown_subjects)) > 0
    assert outcome.report.s_overlap > 0
