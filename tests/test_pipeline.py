from __future__ import annotations

import copy
import dataclasses
import gc
import json
import time
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgenrich import pipeline, validate
from kgenrich.align import AlignMode, enumerate_paths
from kgenrich.config import MappingSpec, load_config, load_graph
from kgenrich.consistency import Granularity, agreement, literal_agreement
from kgenrich.errors import ConfigError
from kgenrich.pipeline import (NO_ALIGNMENT, EnrichmentResult, Run, batch_enrich,
                               emit_report, enrich_property, run_consistency,
                               write_statements)
from kgenrich.store import (_LITERAL_IN_EDGES, Literal, Statement, load_edge_tsv,
                            value_sort_key)
from kgenrich.validate import RelationMode, ValueTypeConstraint, load_constraints

from conftest import (COMPANY_CLASS, INDUSTRY_CLASSES, INDUSTRY_PROP, graph_from_edges,
                      make_company_config, make_company_external, make_company_fixture,
                      perfbench_module, with_edges)


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
    fx.external = with_edges(fx.external, ("dbr:CompanyF", "dbp:industry", "dbr:CompanyA"))
    (tmp_path / "constraints.tsv").write_text(
        "#mode=both\nproperty\tallowed_class\n"
        + "".join(f"{INDUSTRY_PROP}\t{c}\n"
                  for c in sorted(fx.constraints[INDUSTRY_PROP].allowed_classes)))
    fx.cfg.validation = dataclasses.replace(fx.cfg.validation,
                                            constraints=str(tmp_path / "constraints.tsv"))

    def run(**kwargs):
        result = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                                 entity_class=COMPANY_CLASS, **kwargs)
        return result.s_g, result.s_e, result.statements

    loaded = run()
    assert loaded == run(constraints=load_constraints(fx.cfg.validation.constraints))
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
    assert batch.statements() == _merged_statements_reference(batch.rows)
    assert {s.source_graph for s in batch.statements()} == {"dbp"}  # dbp's rows rank first
    assert batch.median_novel is not None


def _statement_sort_key(stmt: Statement) -> tuple:
    return (stmt.property, stmt.subject, value_sort_key(stmt.object))


def _merged_statements_reference(rows) -> tuple[Statement, ...]:
    """One dict over every row's statements, the first in row order kept, then one sort."""
    merged: dict = {}
    for row in rows:
        for stmt in row.statements:
            merged.setdefault((stmt.subject, stmt.property, stmt.object), stmt)
    return tuple(sorted(merged.values(), key=_statement_sort_key))


_OBJECTS = ["Q1", "Q2", "Q10", Literal.date(1990), Literal.date(1990, 5),
            Literal.string("x"), Literal.quantity(2.0)]


@st.composite
def _batch_rows(draw) -> list[EnrichmentResult]:
    """Rows of 1-3 externals over 1-3 properties, as ``batch_enrich`` leaves them: each
    ok row's statements sorted and distinct, error rows without any, in rate order."""
    tags = draw(st.lists(st.sampled_from(["dbp", "getty", "wd"]), min_size=1, max_size=3,
                         unique=True))
    props = draw(st.lists(st.sampled_from(["P17", "P31", "P571"]), min_size=1, max_size=3,
                          unique=True))
    rows = []
    for prop in props:
        for tag in tags:
            if draw(st.booleans()) and draw(st.booleans()):
                rows.append(EnrichmentResult(property=prop, graph=tag, status="error: x"))
                continue
            pairs = draw(st.sets(st.tuples(st.sampled_from(["S1", "S2", "S3"]),
                                           st.sampled_from(_OBJECTS)), max_size=8))
            statements = tuple(sorted((Statement(subject, prop, obj, tag)
                                       for subject, obj in pairs), key=_statement_sort_key))
            rows.append(EnrichmentResult(property=prop, graph=tag, s_w=draw(st.integers(0, 6)),
                                         s_e=len(statements), statements=statements))
    rows.sort(key=lambda r: (r.r_e is None, -(r.r_e or 0.0), r.property, r.graph))
    return rows


@settings(max_examples=200, deadline=None)
@given(_batch_rows())
def test_statements_merged_per_property_equal_one_global_merge(rows):
    batch = pipeline.BatchResult(rows=rows, aggregates=[], median_novel=None)
    # equal statements also have equal sources: the row that comes first is kept
    assert batch.statements() == _merged_statements_reference(rows)


def _reference_row_sets(fx, external, row, entity_class=COMPANY_CLASS,
                        ) -> tuple[set, set, set, set]:
    """Known subjects, gap subjects, candidate keys and statement keys behind one batch row."""
    if row.status.startswith("error"):
        return set(), set(), set(), set()
    run = Run(fx.target, fx.cfg, entity_class=entity_class, constraints=fx.constraints)
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


def _assert_aggregates_equal_reference(fx, externals: dict, batch,
                                       entity_class=COMPANY_CLASS) -> None:
    """Every aggregate row's counts and timings equal ``_reference_aggregate``'s."""
    rows_with_sets = [(row, _reference_row_sets(fx, externals[row.graph], row, entity_class))
                      for row in batch.rows]
    expected = [_reference_aggregate([rs for rs in rows_with_sets if rs[0].graph == tag], tag)
                for tag in externals]
    if len(externals) > 1:
        expected.append(_reference_aggregate(rows_with_sets, "(both)"))
    counts = ("property", "graph", "status", "s_w", "s_g", "s_e", "n_k", "n_u", "n_f", "n_c")
    assert [[getattr(a, f) for f in counts] for a in batch.aggregates] == \
        [[getattr(a, f) for f in counts] for a in expected]
    for got, want in zip(batch.aggregates, expected):
        assert got.timings == pytest.approx(want.timings)


def test_batch_aggregates_with_a_row_that_errors_for_one_external_only(company_fixture,
                                                                      monkeypatch):
    fx = company_fixture
    real = pipeline.enumerate_paths

    def failing_for_dbp2_items(graph, pairs, cfg):
        if graph.tag == "dbp2" and all(isinstance(obj, str) for _, obj in pairs):
            raise RuntimeError("enumeration failed")
        return real(graph, pairs, cfg)

    monkeypatch.setattr(pipeline, "enumerate_paths", failing_for_dbp2_items)
    externals = {"dbp": fx.external, "dbp2": make_company_external("dbp2")}
    batch = batch_enrich(fx.target, list(externals.values()), [INDUSTRY_PROP, "P571", "P17"],
                         fx.cfg, entity_class=COMPANY_CLASS, constraints=fx.constraints)
    statuses = {(r.property, r.graph): r.status for r in batch.rows}
    assert statuses[(INDUSTRY_PROP, "dbp2")] == "error: enumeration failed"
    assert [key for key, status in statuses.items() if status.startswith("error")] == \
        [(INDUSTRY_PROP, "dbp2")]
    _assert_aggregates_equal_reference(fx, externals, batch)
    both = batch.aggregates[-1]
    assert both.s_e == len(batch.statements()) == 3


def test_batch_aggregates_over_three_overlapping_externals(company_fixture):
    fx = company_fixture
    fx.cfg.mappings["dbp3"] = MappingSpec(link_property="sitelink", prefix="dbr:")
    # dbp2 adds one founding date; dbp3 a second industry and another founding date
    dbp2 = with_edges(make_company_external("dbp2"),
                      ("dbr:CompanyF", "dbp:founded", Literal.date(1995)))
    dbp3 = with_edges(make_company_external("dbp3"),
                      ("dbr:CompanyF", "dbp:industry", "dbr:IndustryC"),
                      ("dbr:CompanyF", "dbp:founded", Literal.date(1996)))
    externals = {"dbp": fx.external, "dbp2": dbp2, "dbp3": dbp3}
    batch = batch_enrich(fx.target, list(externals.values()), [INDUSTRY_PROP, "P571", "P17"],
                         fx.cfg, entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert [a.graph for a in batch.aggregates] == ["dbp", "dbp2", "dbp3", "(both)"]
    _assert_aggregates_equal_reference(fx, externals, batch)
    per_graph = {a.graph: a for a in batch.aggregates}
    assert [per_graph[tag].s_e for tag in externals] == [3, 4, 5]
    # the externals' shared statements count once
    assert per_graph["(both)"].s_e == len(batch.statements()) == 6
    assert batch.statements() == _merged_statements_reference(batch.rows)
    assert per_graph["(both)"].s_e < sum(per_graph[tag].s_e for tag in externals)


@settings(max_examples=25, deadline=None)
@given(properties=st.lists(st.sampled_from([INDUSTRY_PROP, "P571", "P17", "P9999"]),
                           min_size=1, max_size=6))
def test_batch_aggregates_for_drawn_property_orders_with_repeats(properties):
    fx = make_company_fixture()
    externals = {"dbp": fx.external, "dbp2": make_company_external("dbp2")}
    batch = batch_enrich(fx.target, list(externals.values()), properties, fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert len(batch.rows) == 2 * len(properties)
    _assert_aggregates_equal_reference(fx, externals, batch)
    assert batch.aggregates[-1].s_e == len(batch.statements())


def test_batch_aggregates_on_the_wide_l1_workload(tmp_path):
    # perfbench's two-external workload at a tenth of its size, read back from its files
    wide = perfbench_module("workloads").wide_l1(99, 0.1)
    wide.write(tmp_path)
    cfg = load_config(tmp_path / "config.yaml")
    target, *graphs = (load_graph(spec, cfg.prefixes) for spec in (cfg.target, *cfg.externals))
    externals = {graph.tag: graph for graph in graphs}
    fx = SimpleNamespace(target=target, cfg=cfg, constraints=load_constraints(cfg.validation.constraints))
    batch = batch_enrich(target, graphs, wide.properties, cfg, entity_class=wide.entity_class,
                         constraints=fx.constraints)
    assert len(externals) == 2 and all(r.status == "ok" for r in batch.rows)
    _assert_aggregates_equal_reference(fx, externals, batch, wide.entity_class)
    assert batch.aggregates[-1].s_e == len(batch.statements())
    assert batch.statements() == _merged_statements_reference(batch.rows)


@pytest.mark.parametrize("workload, indexed", [
    ("wide-l1", set()), ("dbp-l2", set()), ("getty-l4", {"getty"})])
def test_only_a_literal_last_hop_builds_literal_in_edges(tmp_path, workload, indexed):
    # a batch and its consistency calls on perfbench's workloads at a tenth of their
    # size; only getty-l4's L = 4 literal last hop asks an external about a literal
    fixture = perfbench_module("workloads").WORKLOADS[workload](99, 0.1)
    fixture.write(tmp_path)
    cfg = load_config(tmp_path / "config.yaml")
    target, *graphs = (load_graph(spec, cfg.prefixes) for spec in (cfg.target, *cfg.externals))
    externals = {graph.tag: graph for graph in graphs}
    batch = batch_enrich(target, graphs, fixture.properties, cfg,
                         entity_class=fixture.entity_class)
    assert all(row.status == "ok" for row in batch.rows)
    for call in fixture.consistency:
        run_consistency(target, externals[call.external], call.property, cfg,
                        Granularity(call.granularity), entity_class=fixture.entity_class)
    assert {graph.tag for graph in [target, *graphs]
            if _LITERAL_IN_EDGES in graph._derived} == indexed


@pytest.fixture
def collector_paused():
    """The cyclic collector paused for the test."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("max_len", [2, 3, 4])
def test_enumerate_paths_leaves_no_cyclic_garbage(company_fixture, collector_paused, max_len):
    fx = company_fixture
    pairs = {(f"dbr:Company{c}", f"dbr:Industry{c}") for c in "ABCDE"}
    pairs |= {(f"dbr:Company{c}", "dbr:CountryX") for c in "ABCDE"}
    config = make_company_config(max_path_length=max_len).alignment
    gc.collect()
    assert enumerate_paths(fx.external, pairs, config)
    assert gc.collect() == 0


def test_two_external_batch_leaves_no_cyclic_garbage(company_fixture, collector_paused):
    fx = company_fixture
    cfg = make_company_config(max_path_length=3)
    externals = [fx.external, make_company_external("dbp2")]
    gc.collect()
    batch = batch_enrich(fx.target, externals, [INDUSTRY_PROP, "P571", "P17"], cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert batch.statements()
    assert gc.collect() == 0


def _external_with_its_own_spec(fx, tag: str):
    """An external graph ``tag`` whose mapping spec differs from dbp's: the same links
    under the link property ``sitelink-<tag>``, copied onto a new target."""
    links = fx.target.statements_for("sitelink")
    fx.target = with_edges(fx.target, *((subject, f"sitelink-{tag}", link)
                                        for subject, link in links))
    fx.cfg.mappings[tag] = MappingSpec(link_property=f"sitelink-{tag}", prefix="dbr:")
    return make_company_external(tag)


def test_run_builds_each_mapping_and_closure_once(company_fixture, monkeypatch):
    fx = company_fixture
    closures, mappings = Counter(), []
    closure_of, mapping_of = validate.allowed_class_closure, pipeline.build_mapping

    def counted_closure(graph, allowed_classes, *args):
        closures[allowed_classes] += 1
        return closure_of(graph, allowed_classes, *args)

    def counted_mapping(target, spec):
        mappings.append(spec.link_property)
        return mapping_of(target, spec)

    monkeypatch.setattr(validate, "allowed_class_closure", counted_closure)
    monkeypatch.setattr(pipeline, "build_mapping", counted_mapping)
    # two constrained properties share one allowed-class set, under different modes
    constraints = {**fx.constraints, "P571": ValueTypeConstraint(
        "P571", INDUSTRY_CLASSES, relation_mode=RelationMode.INSTANCE_OF)}
    externals = [fx.external, _external_with_its_own_spec(fx, "dbp2"),
                 make_company_external("dbp3")]
    fx.cfg.mappings["dbp3"] = MappingSpec(link_property="sitelink", prefix="dbr:")
    batch = batch_enrich(fx.target, externals, [INDUSTRY_PROP, "P571", "P17", INDUSTRY_PROP],
                         fx.cfg, entity_class=COMPANY_CLASS, constraints=constraints)
    assert sum(row.s_g > 0 for row in batch.rows) == 9  # every validated row ran the check
    assert closures == Counter({INDUSTRY_CLASSES: 1})
    # one per distinct spec: dbp3's spec equals dbp's
    assert mappings == ["sitelink", "sitelink-dbp2"]


def _counted(monkeypatch, *names: str) -> Counter:
    """Calls of the named ``pipeline`` globals from here on, by name."""
    calls: Counter[str] = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(pipeline, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(pipeline, name, counted)
    return calls


_CONSISTENCY_CALLS = [(INDUSTRY_PROP, None), ("P571", Granularity.YEAR),
                      ("P571", Granularity.DAY)]


def _consistency_reports(fx, cfg=None, *, entity_class=COMPANY_CLASS,
                         constraints=None) -> list[dict]:
    return [run_consistency(fx.target, fx.external, prop, cfg or fx.cfg, granularity,
                            entity_class=entity_class,
                            constraints=fx.constraints if constraints is None else constraints,
                            ).report_dict()
            for prop, granularity in _CONSISTENCY_CALLS]


def _recorded_subjects(monkeypatch) -> tuple[list[frozenset], list[frozenset]]:
    """The subjects of each ``pipeline.retrieve`` call and of the candidates of each
    ``pipeline.validate_detailed`` call from here on."""
    retrieved, validated = [], []
    retrieve_of, validate_of = pipeline.retrieve, pipeline.validate_detailed

    def recorded_retrieve(graph, unknowns, *args):
        retrieved.append(frozenset(unknowns))
        return retrieve_of(graph, unknowns, *args)

    def recorded_validate(graph, candidates, *args):
        validated.append(frozenset(c.subject for c in candidates))
        return validate_of(graph, candidates, *args)

    monkeypatch.setattr(pipeline, "retrieve", recorded_retrieve)
    monkeypatch.setattr(pipeline, "validate_detailed", recorded_validate)
    return retrieved, validated


def test_consistency_after_a_batch_builds_no_mapping_or_closure(company_fixture,
                                                                monkeypatch):
    # nor pairs or a ranking, nor candidates on gap subjects: the calls reuse what
    # the batch kept on the target graph
    fx = company_fixture
    batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP, "P571"], fx.cfg,
                 entity_class=COMPANY_CLASS, constraints=fx.constraints)
    closures = []
    closure_of = validate.allowed_class_closure
    monkeypatch.setattr(validate, "allowed_class_closure",
                        lambda *args: closures.append(args) or closure_of(*args))
    calls = _counted(monkeypatch, "build_mapping", "alignment_pairs", "enumerate_paths",
                     "select_path")
    retrieved, validated = _recorded_subjects(monkeypatch)
    # a config read again holds equal settings, not the same objects
    cfg = copy.deepcopy(fx.cfg)
    assert cfg.mapping_for("dbp") is not fx.cfg.mapping_for("dbp")
    assert cfg.alignment is not fx.cfg.alignment and cfg.gaps is not fx.cfg.gaps
    assert cfg.validation is not fx.cfg.validation
    reports = _consistency_reports(fx, cfg)
    assert all(report["s_overlap"] > 0 and report["s_e"] > 0 for report in reports)
    assert closures == [] and calls == Counter(select_path=len(_CONSISTENCY_CALLS))
    run = Run(fx.target, cfg, entity_class=COMPANY_CLASS)
    known = [run.gaps(prop).known_subjects for prop, _ in _CONSISTENCY_CALLS]
    assert len(retrieved) == len(validated) == len(known)
    assert all(r <= k and v <= k for r, v, k in zip(retrieved, validated, known))
    fresh = make_company_fixture()
    assert reports == _consistency_reports(fresh)


# a company class of its own: three companies with an inception, and the gap company
_NARROW_CLASS = "Q999"


def _narrow_class_fixture():
    fx = make_company_fixture()
    companies = ("Q1001", "Q1002", "Q1003", fx.gap_subject)
    fx.target = with_edges(fx.target, *((company, "P31", _NARROW_CLASS) for company in companies))
    return fx


def _later_cutoff(fx) -> dict:
    validation = dataclasses.replace(fx.cfg.validation, cutoff_year=2000)
    return {"cfg": dataclasses.replace(fx.cfg, validation=validation)}


# each changes one input of a kept count, and the count with it
_CHANGES = {
    "cutoff_year": _later_cutoff,
    "constraints": lambda fx: {"constraints": {INDUSTRY_PROP: ValueTypeConstraint(
        INDUSTRY_PROP, frozenset({"Q30"}))}},
    "entity_class": lambda fx: {"entity_class": _NARROW_CLASS},
}


@pytest.mark.parametrize("change", list(_CHANGES))
def test_a_changed_input_misses_the_kept_novel_count(change):
    fx = _narrow_class_fixture()
    batch = batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP, "P571"], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    kept = {row.property: row.s_e for row in batch.rows}
    reports = _consistency_reports(fx, **_CHANGES[change](fx))
    assert {report["property"]: report["s_e"] for report in reports} != kept
    fresh = _narrow_class_fixture()
    assert reports == _consistency_reports(fresh, **_CHANGES[change](fresh))


def _named_fixture():
    """String mode; the external names ``dbp:industry`` ``zzz`` and ``dbp:product``
    ``industry`` under a second label property, ``name``."""
    fx = make_company_fixture()
    fx.cfg = make_company_config(mode=AlignMode.STRING_ONLY)
    fx.external = with_edges(fx.external, ("dbp:industry", "name", Literal.string("zzz")),
                             ("dbp:product", "name", Literal.string("industry")))
    return fx


def _named_consistency(fx):
    fx.external.label_properties = ("name",)
    return run_consistency(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                           entity_class=COMPANY_CLASS, constraints=fx.constraints)


def test_a_changed_selected_path_misses_the_kept_novel_count():
    # label_properties is read by select_path, and the ranking's key does not see it change
    fx = _named_fixture()
    batch = batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert [(row.selected_path.steps, row.s_e) for row in batch.rows] == [
        (("dbp:industry",), 1)]
    kept = _named_consistency(fx)
    fresh = _named_consistency(_named_fixture())
    assert fresh.s_e == 0
    assert kept.report_dict() == fresh.report_dict()


def test_a_row_whose_validation_raises_keeps_no_count(company_fixture, monkeypatch):
    fx = company_fixture
    validate_of, attempts = pipeline.validate_detailed, []

    def failing_once(*args):
        attempts.append(args[1])
        if len(attempts) == 1:
            raise RuntimeError("validation failed")
        return validate_of(*args)

    monkeypatch.setattr(pipeline, "validate_detailed", failing_once)
    batch = batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert [row.status for row in batch.rows] == ["error: validation failed"]
    retried = run_consistency(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                              entity_class=COMPANY_CLASS, constraints=fx.constraints)
    # the overlap pass, then a second pass that counts on the gap subject
    assert [{c.subject for c in candidates} for candidates in attempts[1:]] == [
        {"Q1001", "Q1002", "Q1003", "Q1004", "Q1005"}, {fx.gap_subject}]
    fresh = make_company_fixture()
    assert retried.report_dict() == _consistency_reports(fresh)[0]
    assert retried.s_e == 1


def _ranking(fx, external=None) -> tuple:
    run = Run(fx.target, fx.cfg, entity_class=COMPANY_CLASS, constraints=fx.constraints)
    return run.align(external or fx.external, INDUSTRY_PROP, run.gaps(INDUSTRY_PROP))[0]


def _supports(ranked) -> dict:
    return {path.steps: path.support for path in ranked}


def test_another_external_with_the_same_tag_misses_the_kept_ranking(company_fixture,
                                                                     monkeypatch):
    fx = company_fixture
    calls = _counted(monkeypatch, "enumerate_paths")
    kept = _ranking(fx)
    # as many edges, two of them different
    other = graph_from_edges("dbp", [
        *(edge for edge in fx.external.edges() if edge[1] != "dbp:product"),
        ("dbr:CompanyC", "dbp:owner", "dbr:IndustryC"),
        ("dbr:CompanyD", "dbp:owner", "dbr:IndustryD")])
    assert other.edge_count == fx.external.edge_count
    assert _supports(_ranking(fx, other)) == {("dbp:industry",): 5, ("dbp:owner",): 2}
    assert calls["enumerate_paths"] == 2
    assert _ranking(fx) is kept and _ranking(fx, other) is not kept
    assert calls["enumerate_paths"] == 2
    assert _supports(kept) == {("dbp:industry",): 5, ("dbp:product",): 2}


def test_an_external_dropped_while_the_target_lives_is_freed(company_fixture):
    fx = company_fixture
    external = make_company_external()
    assert _ranking(fx, external)
    dropped = weakref.ref(external)
    del external
    gc.collect()
    assert dropped() is None


def test_a_freed_external_takes_what_the_target_kept_for_it(collector_paused):
    # each call keeps a ranking and a novel count under its external, and freeing the
    # external drops both, by refcounting alone; the mapping and the closure stay
    fx = make_company_fixture()
    kept = fx.target._derived
    for _ in range(50):
        external = make_company_external()
        row = enrich_property(fx.target, external, INDUSTRY_PROP, fx.cfg,
                              entity_class=COMPANY_CLASS, constraints=fx.constraints)
        assert row.status == "ok"
        assert sorted(key[0] for key in kept) == ["closure", "mapping", "novel", "ranking"]
        del external
        assert sorted(key[0] for key in kept) == ["closure", "mapping"]
    target = weakref.ref(fx.target)
    del fx, kept
    assert target() is None


def test_a_row_whose_enumeration_raises_keeps_no_ranking(company_fixture, monkeypatch):
    fx = company_fixture
    enumerate_of, attempts = pipeline.enumerate_paths, []

    def failing_once(*args):
        attempts.append(args[0].tag)
        if len(attempts) == 1:
            raise RuntimeError("walk failed")
        return enumerate_of(*args)

    monkeypatch.setattr(pipeline, "enumerate_paths", failing_once)
    batch = batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP], fx.cfg,
                         entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert [row.status for row in batch.rows] == ["error: walk failed"]
    retried = enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                              entity_class=COMPANY_CLASS, constraints=fx.constraints)
    assert attempts == ["dbp", "dbp"]
    assert retried.status == "ok" and retried.selected_path.steps == ("dbp:industry",)


def test_graph_used_by_a_batch_and_a_consistency_call_is_freed_by_refcounting(
        collector_paused):
    fx = make_company_fixture()
    batch_enrich(fx.target, [fx.external], [INDUSTRY_PROP, "P571"], fx.cfg,
                 entity_class=COMPANY_CLASS, constraints=fx.constraints)
    run_consistency(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                    entity_class=COMPANY_CLASS, constraints=fx.constraints)
    target = weakref.ref(fx.target)
    del fx
    assert target() is None


def test_safety_check_takes_only_the_retrieved_candidate_objects(company_fixture,
                                                                monkeypatch):
    # an accepted candidate equal to a retrieved one, but another object, is refused
    fx = company_fixture
    real = pipeline.validate_detailed

    def copying_validate(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcome.accepted = [dataclasses.replace(c) for c in outcome.accepted]
        return outcome

    monkeypatch.setattr(pipeline, "validate_detailed", copying_validate)
    with pytest.raises(pipeline.PipelineInvariantError, match="not among retrieved"):
        enrich_property(fx.target, fx.external, INDUSTRY_PROP, fx.cfg,
                        entity_class=COMPANY_CLASS, constraints=fx.constraints)


def test_batch_times_each_mapping_build_in_its_first_row(company_fixture, monkeypatch):
    build = pipeline.build_mapping

    def slow_mapping(*args):
        time.sleep(0.02)
        return build(*args)

    monkeypatch.setattr(pipeline, "build_mapping", slow_mapping)
    fx = company_fixture
    batch = batch_enrich(fx.target, [fx.external, _external_with_its_own_spec(fx, "dbp2")],
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
    fx.external = with_edges(fx.external, ("dbr:CompanyE", "dbp:industry", "dbr:IndustryA"))
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
    fx.external = with_edges(fx.external, ("dbr:CompanyE", "dbp:industry", "dbr:IndustryA"))
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
