from __future__ import annotations

import calendar
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgenrich.align import values_match
from kgenrich.errors import DataFormatError
from kgenrich.gaps import detect_gaps
from kgenrich.store import (_LITERAL_IN_EDGES, _NT_LINE, _SPACE_OR_HASH, Graph, Literal,
                            PrefixTable, ValueKind, _nt_literal, _nt_term_id,
                            _parse_date_lexical, _unescape,
                            load_edge_tsv, load_ntriples, local_name,
                            parse_tsv_value, read_tsv, serialize_value, value_kind,
                            write_edge_tsv, write_tsv)


def test_single_wellformed_triple(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text("<http://ex/a> <http://ex/p> <http://ex/b> .\n")
    g = load_ntriples(path, "t")
    assert g.edge_count == 1
    assert g.node_count == 2
    assert set(g.objects("http://ex/a", "http://ex/p")) == {"http://ex/b"}


def test_empty_file(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text("")
    g = load_ntriples(path, "t")
    assert g.edge_count == 0


def test_empty_tsv_without_a_header_loads_an_empty_graph(tmp_path):
    # as an empty N-Triples file does
    path = tmp_path / "g.tsv"
    path.write_text("")
    g = load_edge_tsv(path, "t")
    assert (g.edge_count, g.node_count, g.stats.skipped) == (0, 0, 0)


def test_malformed_lines_skipped_under_threshold(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text(
        "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
        "<http://ex/a> <http://ex/p> <http://ex/c> .\n"
        "<http://ex/b> <http://ex/p> <http://ex/c> .\n"
        "this is garbage\n"
    )
    g = load_ntriples(path, "t", malformed_threshold=0.5)
    assert g.edge_count == 3
    assert g.stats.skipped == 1


def test_malformed_over_threshold_names_line(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text("junk one\njunk two\n<http://ex/a> <http://ex/p> <http://ex/b> .\n")
    with pytest.raises(DataFormatError) as err:
        load_ntriples(path, "t", malformed_threshold=0.5)
    assert "line 1" in str(err.value)
    assert "junk one" in str(err.value)


def test_nt_prefix_shortening_and_literals(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text(
        '<http://dbpedia.org/resource/WOWIO> <http://dbpedia.org/property/industry> '
        '<http://dbpedia.org/resource/E-book> .\n'
        '<http://dbpedia.org/resource/WOWIO> <http://dbpedia.org/property/name> '
        '"WOWIO"@en .\n'
        '<http://dbpedia.org/resource/WOWIO> <http://dbpedia.org/property/founded> '
        '"2006-01-01"^^<http://www.w3.org/2001/XMLSchema#date> .\n'
        '<http://dbpedia.org/resource/WOWIO> <http://dbpedia.org/property/employees> '
        '"25"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    g = load_ntriples(path, "dbp", prefixes={
        "dbr": "http://dbpedia.org/resource/",
        "dbp": "http://dbpedia.org/property/",
    })
    assert g.has_node("dbr:WOWIO")
    objs = g.objects("dbr:WOWIO", "dbp:industry")
    assert {o for o in objs} == {"dbr:E-book"}
    (name,) = g.objects("dbr:WOWIO", "dbp:name")
    assert name.kind is ValueKind.MONOLINGUAL and name.language == "en"
    (founded,) = g.objects("dbr:WOWIO", "dbp:founded")
    assert founded.kind is ValueKind.DATE and founded.precision == "day"
    (employees,) = g.objects("dbr:WOWIO", "dbp:employees")
    assert employees.kind is ValueKind.QUANTITY and employees.magnitude == 25.0


def test_nt_blank_nodes_and_trailing_comment(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text(
        "_:b0 <http://ex/p> <http://ex/a> . # extracted 2021\n"
        "# a full-line comment\n"
        '<http://ex/a> <http://ex/p> "say \\"hi\\"" .\n'
    )
    g = load_ntriples(path, "t")
    assert g.edge_count == 2
    assert g.stats.skipped == 0
    (lit,) = g.objects("http://ex/a", "http://ex/p")
    assert lit.text == 'say "hi"'


def test_unknown_namespace_keeps_full_iri(tmp_path):
    path = tmp_path / "g.nt"
    path.write_text("<http://other.org/x> <http://other.org/p> <http://other.org/y> .\n")
    g = load_ntriples(path, "t", prefixes={"dbr": "http://dbpedia.org/resource/"})
    assert g.has_node("http://other.org/x")


def test_tsv_item_date_quantity(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(
        "node1\tlabel\tnode2\n"
        "Q1\tP452\tQ8148\n"
        "Q1\tP571\t1885-01-01\n"
        "Q1\tP2130\t4000000\n"
    )
    g = load_edge_tsv(path, "wd")
    (item,) = g.objects("Q1", "P452")
    assert isinstance(item, str) and item == "Q8148"
    (date,) = g.objects("Q1", "P571")
    assert date.kind is ValueKind.DATE
    assert (date.year, date.month, date.day, date.precision) == (1885, 1, 1, "day")
    (qty,) = g.objects("Q1", "P2130")
    assert qty.kind is ValueKind.QUANTITY and qty.magnitude == 4000000.0


def test_tsv_missing_column(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("node1\tnode2\nQ1\tQ2\n")
    with pytest.raises(DataFormatError) as err:
        load_edge_tsv(path, "wd")
    assert "node1" in str(err.value) and "found" in str(err.value)


def test_tsv_extra_and_id_column(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("id\tnode1\tlabel\tnode2\ne1\tQ1\tP31\tQ5\n")
    g = load_edge_tsv(path, "wd")
    assert g.edge_count == 1


def test_objects_of_unknown_subject_and_multivalue(tmp_path):
    g = Graph("t")
    g.add_edge("Q1", "P452", "Q8148")
    g.add_edge("Q1", "P452", "Q268592")
    assert set(g.objects("nope", "P452")) == set()
    assert len(g.objects("Q1", "P452")) == 2


def test_label_edge_fallback_and_raw_id():
    g = Graph("t")
    g.add_edge("P452", "label", Literal.string("industry"))
    g.add_edge("dbp:architecturalStyle", "P1", "Q1")
    assert g.label("P452") == "industry"
    assert g.label("dbp:architecturalStyle") == "architecturalStyle"
    assert g.label("Q42") == "Q42"


def test_label_does_not_depend_on_line_order(tmp_path):
    path = tmp_path / "g.tsv"
    lines = ["dbp:x\tlabel\t'industry'@en", "dbp:x\tlabel\t'zzz'@de"]
    for body in (lines, lines[::-1]):
        path.write_text("\n".join(["node1\tlabel\tnode2", *body]) + "\n")
        assert load_edge_tsv(path, "dbp").label("dbp:x") == "industry"


@pytest.mark.parametrize("objects, expected", [
    # the first of label_properties with a label wins, whatever the text
    ([("rdfs:label", Literal.string("a")), ("label", Literal.string("b"))], "b"),
    ([("label", Literal.monolingual("a", "en")), ("label", Literal.string("x"))], "x"),
    ([("label", Literal.other("y")), ("label", Literal.monolingual("a", "en"))], "y"),
    ([("label", Literal.monolingual("a", "de")), ("label", Literal.monolingual("b", "en"))], "b"),
    ([("label", Literal.monolingual("a", "fr")), ("label", Literal.monolingual("b", "de"))], "b"),
    ([("label", Literal.monolingual("b", "en")), ("label", Literal.monolingual("a", "en"))], "a"),
    ([("label", Literal.string("b")), ("label", Literal.string("a"))], "a"),
    # an object without text is no label
    ([("label", Literal.string("")), ("label", Literal.monolingual("a", "de"))], "a"),
    ([("label", "Q5"), ("label", Literal.date(1990)), ("rdfs:label", Literal.string("y"))], "y"),
    ([("label", "Q5")], "x"),
])
def test_label_rule(objects, expected):
    g = Graph("t", label_properties=("label", "rdfs:label"))
    for prop, obj in objects:
        g.add_edge("dbp:x", prop, obj)
    assert g.label("dbp:x") == expected


_LABEL_EDGES = st.tuples(
    st.sampled_from(["Q1", "Q2"]), st.sampled_from(["label", "rdfs:label", "P1"]),
    st.one_of(st.sampled_from(["Q1", "Q3"]),
              st.builds(Literal.string, st.sampled_from(["", "a", "b"])),
              st.builds(Literal.monolingual, st.sampled_from(["a", "b"]),
                        st.sampled_from(["en", "de", "fr"]))))


@given(edges=st.lists(_LABEL_EDGES, max_size=12).flatmap(
    lambda edges: st.tuples(st.just(edges), st.permutations(edges))))
def test_permuted_edges_give_equal_labels(edges):
    first, second = (Graph("t", label_properties=("rdfs:label", "label")) for _ in range(2))
    for graph, order in zip((first, second), edges):
        for edge in order:
            graph.add_edge(*edge)
    assert all(first.label(node) == second.label(node) for node in ("Q1", "Q2", "Q3"))


@pytest.mark.parametrize("edge", [("", "P1", "Q2"), ("Q1", "", "Q2"), ("Q1", "P1", "")])
def test_add_edge_rejects_empty_ids(edge):
    with pytest.raises(ValueError):
        Graph("t").add_edge(*edge)


def test_duplicate_edges_collapse():
    g = Graph("t")
    assert g.add_edge("Q1", "P1", "Q2")
    assert not g.add_edge("Q1", "P1", "Q2")
    assert g.edge_count == 1


# -- index layout: a lone entry is a 1-tuple, a second distinct value a set --------


def _assert_compact_layout(g: Graph) -> None:
    entries = [entry for index in (g._spo, g._osp, g._literal_in_edges())
               for by_prop in index.values() for entry in by_prop.values()]
    for entry in entries:
        if len(entry) == 1:
            assert type(entry) is tuple
        else:
            assert type(entry) is set and len(entry) >= 2


@pytest.mark.parametrize("fmt", ["tsv", "nt"])
def test_lone_index_entries_are_one_tuples(tmp_path, fmt):
    # Q1 P1 has two objects; the Q1 P2 Q3 edge is repeated
    if fmt == "tsv":
        path = tmp_path / "g.tsv"
        path.write_text("node1\tlabel\tnode2\nQ1\tP1\tQ2\nQ1\tP1\tQ3\n"
                        "Q1\tP2\tQ3\nQ1\tP2\tQ3\nQ4\tP2\tQ3\nQ2\tlabel\t\"two\"\n")
        g = load_edge_tsv(path, "t")
    else:
        path = tmp_path / "g.nt"
        path.write_text("".join(f"<http://ex/{s}> <http://ex/{p}> {o} .\n" for s, p, o in [
            ("Q1", "P1", "<http://ex/Q2>"), ("Q1", "P1", "<http://ex/Q3>"),
            ("Q1", "P2", "<http://ex/Q3>"), ("Q1", "P2", "<http://ex/Q3>"),
            ("Q4", "P2", "<http://ex/Q3>"), ("Q2", "label", '"two"')]))
        g = load_ntriples(path, "t", prefixes={"": "http://ex/"})
    assert (g.edge_count, g.stats.duplicates) == (5, 1)
    _assert_compact_layout(g)
    assert type(g._spo["Q1"]["P1"]) is set and set(g.objects("Q1", "P1")) == {"Q2", "Q3"}
    assert g._spo["Q1"]["P2"] == ("Q3",)
    assert type(g._osp["Q3"]["P2"]) is set and set(g.subjects_with("P2", "Q3")) == {"Q1", "Q4"}
    assert g._osp["Q3"]["P1"] == ("Q1",)
    assert g._spo["Q2"]["label"] == (Literal.string("two"),)


def test_repeat_of_a_lone_value_keeps_the_one_tuple():
    g = Graph("t")
    assert g.add_edge("Q1", "P1", Literal.date(1990))
    assert not g.add_edge("Q1", "P1", Literal.date(1990))
    assert g.stats.duplicates == 1 and g.edge_count == 1
    assert g._spo["Q1"]["P1"] == (Literal.date(1990),)
    assert g.in_edges(Literal.date(1990))["P1"] == ("Q1",)
    assert Literal.date(1990) not in g._osp
    _assert_compact_layout(g)


def test_second_distinct_value_promotes_to_a_set():
    g = Graph("t")
    g.add_edge("Q1", "P1", "Q2")
    g.add_edge("Q3", "P1", "Q2")
    assert g.add_edge("Q1", "P1", "Q4")
    assert g._spo["Q1"]["P1"] == {"Q2", "Q4"}
    assert g._osp["Q2"]["P1"] == {"Q1", "Q3"}
    assert not g.add_edge("Q1", "P1", "Q4")
    assert g._spo["Q1"]["P1"] == {"Q2", "Q4"} and g.stats.duplicates == 1
    _assert_compact_layout(g)


def test_misses_return_shared_read_only_empties():
    g = Graph("t")
    g.add_edge("Q1", "P1", "Q2")
    assert g.objects("Q1", "P9") is g.objects("Q9", "P1") == ()
    assert g.subjects_with("P9", "Q2") is g.subjects_with("P1", "Q9") == ()
    assert g.out_edges("Q9") is g.in_edges("Q9")
    with pytest.raises(TypeError):
        g.in_edges("Q9")["P1"] = ("Q1",)


def _assert_in_edges_equal_a_scan(g: Graph) -> None:
    expected: dict = {}
    for subject, prop, obj in g.edges():
        expected.setdefault(obj, {}).setdefault(prop, set()).add(subject)
    literals = list(g.literals())
    assert len(literals) == len(set(literals))
    assert set(literals) == {obj for obj in expected if isinstance(obj, Literal)}
    for obj in [*expected, "Q9", Literal.date(2000)]:
        by_prop = expected.get(obj, {})
        assert {prop: set(subjects) for prop, subjects in g.in_edges(obj).items()} == by_prop
        for prop in ("P1", "P2"):
            assert set(g.subjects_with(prop, obj)) == by_prop.get(prop, set())
    nodes = {s for s, _, _ in g.edges()} | {o for o in expected if isinstance(o, str)}
    assert g.node_count == len(nodes) and all(g.has_node(node) for node in nodes)
    assert not any(g.has_node(node) for node in {"Q1", "Q2", "Q3", "Q4"} - nodes)
    _assert_compact_layout(g)


_NODE_IDS = st.sampled_from(["Q1", "Q2", "Q3", "Q4"])
_SOME_LITERALS = st.sampled_from([Literal.date(1990), Literal.date(1990, 5), Literal.string("x"),
                                  Literal.monolingual("x", "en"), Literal.quantity(3)])
_MIXED_EDGES = st.tuples(_NODE_IDS, st.sampled_from(["P1", "P2"]),
                         st.one_of(_NODE_IDS, _SOME_LITERALS))


@given(edges=st.lists(_MIXED_EDGES, max_size=25),
       later=st.tuples(_NODE_IDS, st.sampled_from(["P1", "P2"]), _SOME_LITERALS))
def test_in_edge_queries_equal_a_scan_of_the_edges(edges, later):
    g = Graph("t")
    for edge in edges:
        g.add_edge(*edge)
    assert _LITERAL_IN_EDGES not in g._derived
    _assert_in_edges_equal_a_scan(g)
    kept = g._derived[_LITERAL_IN_EDGES]
    assert not any(isinstance(obj, Literal) for obj in g._osp)
    if g.add_edge(*later):  # a new edge drops the kept index, a repeated one keeps it
        assert _LITERAL_IN_EDGES not in g._derived
    else:
        assert g._derived[_LITERAL_IN_EDGES] is kept
    _assert_in_edges_equal_a_scan(g)
    assert later[0] in g.subjects_with(later[1], later[2])


def test_index_consistency_full_scan(company_fixture):
    g = company_fixture.target
    edges = set()
    for subj, prop, obj in g.edges():
        edges.add((subj, prop, obj))
        assert obj in g.objects(subj, prop)
        assert (subj, obj) in g.statements_for(prop)
        assert subj in g.subjects_with(prop, obj)
        assert subj in g.in_edges(obj)[prop]
        if isinstance(obj, str):
            assert g.has_node(obj)
    assert g.in_edges("no-such-node") == {}
    assert len(edges) == g.edge_count
    assert sum(len(g.statements_for(p)) for p in {p for _, p, _ in edges}) == g.edge_count


def test_roundtrip_tsv(tmp_path, company_fixture):
    g = company_fixture.target
    out = tmp_path / "round.tsv"
    write_edge_tsv(g, out)
    g2 = load_edge_tsv(out, "wd")
    assert set(g.edges()) == set(g2.edges())
    # byte-stability: writing the reloaded graph gives identical bytes
    out2 = tmp_path / "round2.tsv"
    write_edge_tsv(g2, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_roundtrip_quantity_vs_date(tmp_path):
    g = Graph("t")
    g.add_edge("Q1", "P1", Literal.quantity(1885))
    g.add_edge("Q1", "P2", Literal.date(1885))
    out = tmp_path / "q.tsv"
    write_edge_tsv(g, out)
    g2 = load_edge_tsv(out, "t")
    (qty,) = g2.objects("Q1", "P1")
    (date,) = g2.objects("Q1", "P2")
    assert qty.kind is ValueKind.QUANTITY and qty.magnitude == 1885.0
    assert date.kind is ValueKind.DATE and date.year == 1885


def test_string_escaping_roundtrip(tmp_path):
    g = Graph("t")
    g.add_edge("Q1", "P1", Literal.string('tricky "quote"\tand\ttabs'))
    g.add_edge("Q1", "P2", Literal.monolingual("left back", "en"))
    out = tmp_path / "esc.tsv"
    write_edge_tsv(g, out)
    g2 = load_edge_tsv(out, "t")
    assert set(g.edges()) == set(g2.edges())


def test_date_precision_invariants():
    with pytest.raises(TypeError):
        Literal.date(2000, 5, 3, precision="month")
    for fields in [(2000, None, 3), (2000, 13), (2000, 0), (2001, 2, 29), (2000, 4, 31),
                   (2000, 1, 0)]:
        with pytest.raises(ValueError):
            Literal.date(*fields)
    with pytest.raises(ValueError):
        Literal.quantity(float("inf"))
    assert Literal.date(2000).precision == "year"
    assert Literal.date(2000, 5).precision == "month"
    assert Literal.date(2000, 2, 29).precision == "day"
    assert Literal.date(-4, 2, 29).precision == "day"


def test_a_directly_built_date_is_the_date_of_its_fields():
    for fields in [(2000,), (2000, 5), (2000, 5, 3), (-4, 12, 31)]:
        direct = Literal(ValueKind.DATE, **dict(zip(("year", "month", "day"), fields)))
        built = Literal.date(*fields)
        assert direct == built and hash(direct) == hash(built)
        assert direct.precision == built.precision == ("year", "month", "day")[len(fields) - 1]
        assert parse_tsv_value(serialize_value(direct)) == direct
        assert values_match(direct, built) and values_match(Literal.date(fields[0]), direct)
        assert not values_match(direct, Literal.date(fields[0] + 1, *fields[1:]))
    assert Literal.string("2000").precision is None


# the three date shapes the N-Triples and edge TSV readers accept, written out again
_ORACLE_DATES = [(r"^(-?\d{4,})-(\d{2})-(\d{2})(?:T\S*)?$", "day"),
                 (r"^(-?\d{4,})-(\d{2})$", "month"), (r"^(-?\d{4,})$", "year")]


def _oracle_date(lex):
    for pattern, precision in _ORACLE_DATES:
        m = re.match(pattern, lex)
        if m:
            fields = [int(g) for g in m.groups()] + [None, None]
            year, month, day = fields[:3]
            if month is not None and not 1 <= month <= 12:
                return None
            if day is not None and not 1 <= day <= calendar.monthrange(year % 400 or 400,
                                                                       month)[1]:
                return None
            return (year, month, day, precision)
    return None


@given(st.one_of(
    st.text(alphabet="0123456789-T:Z \n", max_size=16),
    st.tuples(st.integers(-20000, 20000), st.integers(0, 13), st.integers(0, 32),
              st.sampled_from(["", "-{day:02d}", "-{day:02d}T12:00", "-{day:02d}x"]))
    .map(lambda f: f"{f[0]:04d}-{f[1]:02d}" + f[3].format(day=f[2]))))
def test_date_lexical_form_matches_the_three_shape_rule(lex):
    parsed = _parse_date_lexical(lex)
    got = None if parsed is None else (parsed.year, parsed.month, parsed.day, parsed.precision)
    assert got == _oracle_date(lex)


_ORACLE_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f"}


def _oracle_unescape(text):
    """Decode escapes one character at a time; None where the text has a malformed one."""
    out, rest = "", text
    while rest:
        head, rest = rest[0], rest[1:]
        if head != "\\":
            out += head
        elif not rest:
            return None
        elif rest[0] in "uU":
            width = 4 if rest[0] == "u" else 8
            digits, rest = rest[1:1 + width], rest[1 + width:]
            if len(digits) < width or any(c not in "0123456789abcdefABCDEF" for c in digits):
                return None
            code = int(digits, 16)
            if code > 0x10FFFF or 0xD800 <= code < 0xE000:
                return None
            out += chr(code)
        else:
            out += _ORACLE_ESCAPES.get(rest[0], rest[0])
            rest = rest[1:]
    return out


@given(st.text(alphabet="\\uU0123456789abcdefABCDEFt\"'\n", max_size=24))
def test_unescape_matches_a_character_by_character_decoder(text):
    try:
        got = _unescape(text)
    except ValueError:
        got = None
    assert got == _oracle_unescape(text)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_quantity_serialization_roundtrip(x):
    value = Literal.quantity(x)
    assert parse_tsv_value(serialize_value(value)) == value


def test_prefix_table_empty_prefix():
    table = PrefixTable({"": "http://www.wikidata.org/entity/",
                         "dbr": "http://dbpedia.org/resource/"})
    assert table.shorten("http://www.wikidata.org/entity/Q42") == "Q42"
    assert table.shorten("http://dbpedia.org/resource/WOWIO") == "dbr:WOWIO"
    assert table.shorten("http://nowhere/x") == "http://nowhere/x"


def test_prefix_table_keeps_an_iri_equal_to_a_namespace_whole():
    # an empty local name would shorten it to "" or to a bare "dbr:"
    table = PrefixTable({"": "http://www.wikidata.org/entity/",
                         "dbr": "http://dbpedia.org/resource/"})
    assert table.shorten("http://www.wikidata.org/entity/") == "http://www.wikidata.org/entity/"
    assert table.shorten("http://dbpedia.org/resource/") == "http://dbpedia.org/resource/"


def test_local_name():
    assert local_name("dbp:architecturalStyle") == "architecturalStyle"
    assert local_name("http://ex/a#frag") == "frag"
    assert local_name("Q42") == "Q42"


def test_value_kind():
    assert value_kind("Q1") is ValueKind.ITEM
    assert value_kind(Literal.string("x")) is ValueKind.STRING


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
def test_string_literal_serialization_roundtrip(text):
    value = Literal.string(text)
    assert parse_tsv_value(serialize_value(value)) == value


@pytest.mark.parametrize("value", [
    Literal.date(12345, 1, 2), Literal.date(12345, 1), Literal.date(-12345, 1, 2),
    Literal.date(-12345, 12), Literal.date(1885), Literal.date(-1885), Literal.date(999, 3, 4),
])
def test_date_serialization_roundtrip_at_any_year_width(value):
    assert parse_tsv_value(serialize_value(value)) == value


@pytest.mark.parametrize("year", [12345, -12345])
def test_wide_year_alone_reads_back_as_a_quantity(year):
    # a bare integer wider than four digits is a quantity, whatever wrote it;
    # the date marker is what keeps a wide year alone a date
    text = serialize_value(Literal.date(year))
    assert text == f"^{year}"
    assert parse_tsv_value(text[1:]) == Literal.quantity(year)
    assert parse_tsv_value(text) == Literal.date(year)


@st.composite
def _dates(draw) -> Literal:
    """A date of any precision whose year has 1 to 7 digits, either sign."""
    digits = draw(st.integers(1, 7))
    year = draw(st.integers(10 ** (digits - 1) if digits > 1 else 0, 10 ** digits - 1))
    year = -year if draw(st.booleans()) else year
    precision = draw(st.sampled_from(["year", "month", "day"]))
    if precision == "year":
        return Literal.date(year)
    month = draw(st.integers(1, 12))
    if precision == "month":
        return Literal.date(year, month)
    return Literal.date(year, month, draw(st.integers(1, calendar.monthrange(
        year % 400 or 400, month)[1])))


@given(_dates())
def test_a_date_of_any_precision_and_year_width_reads_back_equal(value):
    text = serialize_value(value)
    assert parse_tsv_value(text) == value
    # only a year alone wider than four digits needs the date marker: a bare
    # integer of that width is a quantity
    wide_year_alone = value.month is None and abs(value.year) >= 10000
    assert text.startswith("^") == wide_year_alone
    if wide_year_alone:
        assert parse_tsv_value(text[1:]) == Literal.quantity(value.year)


@pytest.mark.parametrize("text, value", [
    ("^2020", Literal.date(2020)), ("^2020-05", Literal.date(2020, 5)),
    ("^-12345-01-02", Literal.date(-12345, 1, 2)), ("^0999", Literal.date(999)),
    ("^2020-13", Literal.other("^2020-13")), ("^12", Literal.other("^12")),
    ("^2020-01-01T00:00:00Z", Literal.other("^2020-01-01T00:00:00Z")),
])
def test_the_date_marker_reads_an_iso_date_only(text, value):
    assert parse_tsv_value(text) == value


@given(st.one_of(st.integers(-9999, 9999), st.integers(-10**6, 10**6)),
       st.none() | st.integers(0, 13), st.none() | st.integers(0, 32))
def test_every_date_that_builds_reads_back_equal(year, month, day):
    try:
        value = Literal.date(year, month, day)
    except ValueError:
        return
    assert parse_tsv_value(serialize_value(value)) == value


@pytest.mark.parametrize("node2", [
    '"abc\\"',            # backslash ending the string
    '"\\uZZZZ"',          # non-hex \u digits
    '"x\\u00"',           # too few \u digits
    '"\\u+123"',          # int() would accept the sign
    "'x\\uD800'@en",      # lone surrogate
    '"\\U00110000"',      # beyond U+10FFFF
    "1e999",              # quantity overflowing to inf
])
def test_tsv_malformed_value_is_counted_skip(tmp_path, node2):
    path = tmp_path / "g.tsv"
    path.write_text("node1\tlabel\tnode2\nQ1\tP1\tQ2\nQ1\tP2\t" + node2
                    + '\nQ1\tP3\t"ok \\u00e9"\n')
    g = load_edge_tsv(path, "t", malformed_threshold=0.5)
    assert g.edge_count == 2
    assert (g.stats.skipped, g.stats.first_bad_lineno) == (1, 3)
    assert {o.text for o in g.objects("Q1", "P3")} == {"ok \u00e9"}


@pytest.mark.parametrize("lex", ["x\\u00", "\\uZZZZ", "\\U0000004"])
def test_nt_malformed_escape_is_counted_skip(tmp_path, lex):
    path = tmp_path / "g.nt"
    path.write_text("<http://ex/a> <http://ex/p> <http://ex/b> .\n"
                    f'<http://ex/a> <http://ex/q> "{lex}" .\n'
                    '<http://ex/a> <http://ex/r> "\\u0041\\U00000042" .\n')
    g = load_ntriples(path, "t", malformed_threshold=0.5)
    assert g.edge_count == 2
    assert (g.stats.skipped, g.stats.first_bad_lineno) == (1, 2)
    assert set(g.objects("http://ex/a", "http://ex/q")) == set()
    assert {o.text for o in g.objects("http://ex/a", "http://ex/r")} == {"AB"}


def test_malformed_escapes_count_toward_threshold(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text('node1\tlabel\tnode2\nQ1\tP1\t"a\\"\nQ1\tP2\t"\\uZZZZ"\nQ1\tP3\tQ2\n')
    with pytest.raises(DataFormatError) as err:
        load_edge_tsv(path, "t")
    assert "2 of 3 lines malformed" in str(err.value) and "line 2" in str(err.value)


def test_tsv_empty_node2_is_a_counted_skip_and_leaves_a_gap(tmp_path):
    # the row used to load as an edge to an empty Other literal, making Q1 known for P452
    path = tmp_path / "g.tsv"
    path.write_text("node1\tlabel\tnode2\nQ1\tP31\tQ5\nQ2\tP31\tQ5\nQ2\tP452\tQ9\n"
                    "Q1\tP452\t\n")
    g = load_edge_tsv(path, "t", malformed_threshold=0.5)
    assert g.edge_count == 3
    assert (g.stats.skipped, g.stats.first_bad_lineno, g.stats.first_bad_text) == (
        1, 5, "Q1\tP452\t")
    assert detect_gaps(g, "P452", ("Q5", "P31")).unknown_subjects == {"Q1"}


def test_space_or_hash_holds_each_character_that_can_begin_an_ignored_line():
    assert _SPACE_OR_HASH == {c for c in map(chr, range(sys.maxunicode + 1))
                              if not c.strip()} | {"#"}


@pytest.mark.parametrize("fmt", ["tsv", "nt"])
def test_blank_and_indented_comment_lines_are_ignored(tmp_path, fmt):
    # an edge TSV used to count these as malformed: 3 of 4 here, over 0.4
    edge = "Q2\tP31\tQ5" if fmt == "tsv" else "<http://ex/Q2> <http://ex/P31> <http://ex/Q5> ."
    path = tmp_path / f"g.{fmt}"
    path.write_text(("node1\tlabel\tnode2\n" if fmt == "tsv" else "")
                    + "   \n\t\n  # c\n" + edge + "\n")
    loader = load_edge_tsv if fmt == "tsv" else load_ntriples
    g = loader(path, "t", malformed_threshold=0.4)
    assert (g.edge_count, g.stats.skipped, g.stats.lines) == (1, 0, 4 + (fmt == "tsv"))


@pytest.mark.parametrize("fmt", ["tsv", "nt"])
def test_first_bad_line_is_recorded_without_its_line_break(tmp_path, fmt):
    # N-Triples used to record the line stripped: "junk"
    path = tmp_path / f"g.{fmt}"
    path.write_text(("node1\tlabel\tnode2\n" if fmt == "tsv" else "") + "  junk \t\n")
    loader = load_edge_tsv if fmt == "tsv" else load_ntriples
    g = loader(path, "t", malformed_threshold=1.0)
    assert (g.stats.skipped, g.stats.first_bad_text) == (1, "  junk \t")


@pytest.mark.parametrize("lex,kind", [
    ("2020-13-45", ValueKind.OTHER), ("2020-00-10", ValueKind.OTHER),
    ("2021-02-29", ValueKind.OTHER), ("2021-04-31", ValueKind.OTHER),
    ("2020-13", ValueKind.OTHER), ("2020-02-29", ValueKind.DATE),
    ("2021-12-31", ValueKind.DATE), ("2021-12", ValueKind.DATE),
])
def test_impossible_dates_fall_back_to_other(lex, kind):
    value = parse_tsv_value(lex)
    assert value.kind is kind
    if kind is ValueKind.OTHER:
        assert value.text == lex


def test_tsv_interns_only_the_shortened_object_id(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("node1\tlabel\tnode2\n"
                    "http://dbpedia.org/resource/A\thttp://dbpedia.org/property/p\t"
                    "http://dbpedia.org/resource/B\n"
                    "http://dbpedia.org/resource/A\thttp://dbpedia.org/property/p\t"
                    "http://dbpedia.org/resource/2020\n")
    g = load_edge_tsv(path, "dbp", prefixes={"dbr": "http://dbpedia.org/resource/"})
    assert g.node_count == 3
    assert not g.has_node("http://dbpedia.org/resource/B")
    assert not g.has_node("http://dbpedia.org/resource/2020")
    # classified on the raw IRI: "dbr:2020" is a node even though "2020" is a year
    assert g.objects("dbr:A", "http://dbpedia.org/property/p") == {"dbr:B", "dbr:2020"}


# -- loaders against a line-by-line reference ------------------------------------

_PREFIXES = {"dbr": "http://dbpedia.org/resource/", "dbp": "http://dbpedia.org/property/",
             "rdfs": "http://www.w3.org/2000/01/rdf-schema#", "": "http://ex.org/y/"}
_XSD = "http://www.w3.org/2001/XMLSchema#"

# full IRIs next to their shortened forms, so two raw texts name one term
_TSV_SUBJECTS = ["Q1", "Q2", "dbr:A", "http://dbpedia.org/resource/A",
                 "http://dbpedia.org/resource/B"]
_TSV_PROPS = ["P1", "label", "dbp:p", "http://dbpedia.org/property/p"]
_TSV_OBJECTS = ["Q2", "dbr:B", "http://dbpedia.org/resource/B", "http://ex.org/y/2020",
                '"x"', "'x'@en", "'x'@fr", "2020", "2020-01-02", "2020-13-45", "1.5",
                "1.50", "an other value", '"bad\\"', "1e999", '"\\uZZZZ"']
_TSV_LINES = st.one_of(
    st.tuples(st.sampled_from(_TSV_SUBJECTS), st.sampled_from(_TSV_PROPS),
              st.sampled_from(_TSV_OBJECTS)).map("\t".join),
    st.sampled_from(["", "# comment", "  ", "\t", "  # c", "Q1\tP1", "\tP1\tQ2", "Q1\t\tQ2",
                     "Q1\tP1\t"]))

_NT_NODES = ["<http://dbpedia.org/resource/A>", "<http://dbpedia.org/resource/B>",
             "<http://ex.org/y/C>", "<http://other.org/D>", "_:b1"]
_NT_PROPS = ["<http://dbpedia.org/property/p>", "<http://www.w3.org/2000/01/rdf-schema#label>",
             "<http://other.org/q>"]
_NT_OBJECTS = _NT_NODES + [
    '"x"', '"x"@en', '"x"@fr', f'"2020-01-02"^^<{_XSD}date>', f'"2020-13-45"^^<{_XSD}date>',
    f'"1.5"^^<{_XSD}decimal>', f'"1.50"^^<{_XSD}decimal>', f'"abc"^^<{_XSD}integer>',
    '"\\uZZZZ"', '"x\\u00"@en']
_NT_LINES = st.one_of(
    st.tuples(st.sampled_from(_NT_NODES), st.sampled_from(_NT_PROPS),
              st.sampled_from(_NT_OBJECTS)).map(lambda t: " ".join(t) + " ."),
    st.sampled_from(["", "# comment", "  ", "  # c", "garbage",
                     "<http://ex.org/a> <http://ex.org/p> ."]))


def _reference_tsv(rows: list[str], table: PrefixTable) -> Graph:
    """Load edge-TSV rows one by one, with a fresh parse of every field."""
    g = Graph("t")
    g.stats.lines = len(rows)
    for lineno, row in enumerate(rows[1:], 2):
        stripped = row.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = row.split("\t")
        if len(fields) < 3 or not fields[0] or not fields[1] or not fields[2]:
            g.stats.skip(lineno, row)
            continue
        try:
            obj = parse_tsv_value(fields[2])
        except ValueError:
            g.stats.skip(lineno, row)
            continue
        if isinstance(obj, str):
            obj = table.shorten(obj)
        g.add_edge(table.shorten(fields[0]), table.shorten(fields[1]), obj)
    return g


def _reference_nt(rows: list[str], table: PrefixTable) -> Graph:
    """Load N-Triples rows one by one, with a fresh parse of every term."""
    g = Graph("t")
    g.stats.lines = len(rows)
    for lineno, row in enumerate(rows, 1):
        stripped = row.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _NT_LINE.match(row)
        if m is None:
            g.stats.skip(lineno, row)
            continue
        token = m.group("o")
        try:
            obj = _nt_literal(token) if token.startswith('"') else _nt_term_id(token, table)
        except ValueError:
            g.stats.skip(lineno, row)
            continue
        g.add_edge(_nt_term_id(m.group("s"), table), _nt_term_id(m.group("p"), table), obj)
    return g


def _snapshot(g: Graph):
    # the per-property scan and the object index agree up to value equality
    by_property = {(s, p, o) for p in {p for _, p, _ in g.edges()}
                   for s, o in g.statements_for(p)}
    by_object = {(s, p, o) for o in [*g._osp, *g.literals()]
                 for p, subjects in g.in_edges(o).items() for s in subjects}
    assert set(g.edges()) == by_property == by_object
    edges = sorted((s, p, repr(o)) for s, p, o in g.edges())
    nodes = set(g._spo) | set(g._osp)
    assert g.node_count == len(nodes)
    return edges, sorted(nodes), {s: g.label(s) for s in g._spo}, vars(g.stats)


def _assert_one_string_per_property(g: Graph) -> None:
    # every property key and every node id, as index key or index member
    keys = [p for by_prop in g._spo.values() for p in by_prop]
    keys += [p for by_prop in g._osp.values() for p in by_prop]
    keys += list(g._spo) + list(g._osp)
    keys += [o for by_prop in g._spo.values() for objs in by_prop.values()
             for o in objs if isinstance(o, str)]
    keys += [s for by_prop in g._osp.values() for subjects in by_prop.values()
             for s in subjects]
    objects: dict[str, set[int]] = {}
    for key in keys:
        objects.setdefault(key, set()).add(id(key))
    assert all(len(ids) == 1 for ids in objects.values())


@pytest.mark.parametrize("fmt", ["tsv", "nt"])
@given(data=st.data())
def test_loaders_match_line_by_line_reference(fmt, data):
    rows = data.draw(st.lists(_TSV_LINES if fmt == "tsv" else _NT_LINES, max_size=30))
    if fmt == "tsv":
        rows = ["node1\tlabel\tnode2"] + rows
    table = PrefixTable(_PREFIXES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"g.{fmt}"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        loader = load_edge_tsv if fmt == "tsv" else load_ntriples
        g = loader(path, "t", prefixes=table, malformed_threshold=1.0)
    reference = _reference_tsv(rows, table) if fmt == "tsv" else _reference_nt(rows, table)
    assert _snapshot(g) == _snapshot(reference)
    # the loader's inlined insert builds add_edge's entries: a 1-tuple never equals a set
    assert g._spo == reference._spo and g._osp == reference._osp
    _assert_compact_layout(g)
    _assert_one_string_per_property(g)


# -- slotted values ---------------------------------------------------------------


def test_node_and_literal_have_no_instance_dict():
    assert not hasattr(Literal.string("x"), "__dict__")
    assert not hasattr(Literal.date(1990), "__dict__")


def test_a_literal_field_cannot_be_assigned():
    literal = Literal.date(1990, 5)
    with pytest.raises(AttributeError):
        literal.year = 1991
    assert literal == Literal.date(1990, 5)


def test_a_month_date_loads_equal_from_either_format(tmp_path):
    tsv, nt = tmp_path / "g.tsv", tmp_path / "g.nt"
    tsv.write_text("node1\tlabel\tnode2\nQ1\tP571\t2000-05\n", encoding="utf-8")
    nt.write_text('<http://ex/Q1> <http://ex/P571> '
                  '"2000-05"^^<http://www.w3.org/2001/XMLSchema#gYearMonth> .\n',
                  encoding="utf-8")
    [from_tsv] = load_edge_tsv(tsv, "t").objects("Q1", "P571")
    [from_nt] = load_ntriples(nt, "t", prefixes={"": "http://ex/"}).objects("Q1", "P571")
    assert from_tsv == from_nt == Literal.date(2000, 5)
    assert hash(from_tsv) == hash(from_nt)


def test_a_date_literal_repr_is_pinned():
    # ``_snapshot`` above orders edges by the repr of their objects
    assert repr(Literal.date(1990, 5, 3)) == (
        "Literal(kind=<ValueKind.DATE: 'date'>, text=None, language=None, year=1990, "
        "month=5, day=3, magnitude=None)")


# -- tables ----------------------------------------------------------------------

_CELL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                max_size=6)


@st.composite
def _table(draw):
    """Distinct column names, rows of cells under them, and a non-empty subset to read."""
    columns = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=4), min_size=1,
                            max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({name: _CELL for name in columns}).filter(
        lambda row: "\t".join(row.values()).strip()), max_size=6))
    wanted = draw(st.lists(st.sampled_from(columns), min_size=1, unique=True))
    return draw(st.permutations(columns)), rows, wanted


@given(_table(), st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=4),
       st.randoms(use_true_random=False))
def test_read_tsv_gets_back_what_write_tsv_wrote(table, blanks, rng):
    written_order, rows, wanted = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        write_tsv(path, written_order, [[row[name] for name in written_order] for row in rows])
        header, *lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        for blank in blanks:  # blank lines anywhere after the header are skipped
            lines.insert(rng.randint(0, len(lines)), blank)
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        assert read_tsv(path, wanted) == [tuple(row[name] for name in wanted) for row in rows]


def test_short_row_is_a_one_line_error_naming_its_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\tc\nx\ty\tz\n\n1\t2\n")
    with pytest.raises(DataFormatError) as err:
        read_tsv(path, ("c", "a"))
    assert str(err.value) == f"{path}:4: a row needs 3 tab-separated cells; found 2"
    # a row holding the named columns is enough, whatever comes after them
    path.write_text("a\tb\tc\nx\ty\n")
    assert read_tsv(path, ("b", "a")) == [("y", "x")]


@pytest.mark.parametrize("text", ["a\tc\nx\tz\n", "", "b\n"])
def test_header_without_a_column_names_the_file_and_the_column(tmp_path, text):
    path = tmp_path / "t.tsv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        read_tsv(path, ("a", "b"))
    message = str(err.value)
    assert message.startswith(f"{path}: ") and "a and b columns" in message
    assert "\n" not in message


@pytest.mark.parametrize("cell", ["a\tb", "a\nb", "a\rb", "\n"])
def test_write_tsv_refuses_a_cell_that_would_split_its_row(tmp_path, cell):
    path = tmp_path / "t.tsv"
    with pytest.raises(DataFormatError) as err:
        write_tsv(path, ("left", "right"), [("x", "y"), ("x", cell)])
    assert str(err.value) == f"{path}: column right: {cell!r} splits its row"
    assert not path.exists()


def _fail_to_replace(*args):
    raise OSError("disk full")


@pytest.mark.parametrize("rows,patch", [
    ([("x", "a\tb")], None),  # refused before anything is written
    ([("x", "y")], _fail_to_replace),  # written, then the replace fails
])
def test_failed_write_tsv_leaves_the_file_it_would_replace_as_it_was(tmp_path, monkeypatch,
                                                                     rows, patch):
    path = tmp_path / "t.tsv"
    write_tsv(path, ("left", "right"), [("old", "row")])
    before = path.read_bytes()
    if patch is not None:
        monkeypatch.setattr("os.replace", patch)
    with pytest.raises((DataFormatError, OSError)):
        write_tsv(path, ("left", "right"), rows)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]  # no temporary file left


def test_other_literal_with_a_tab_is_refused_not_written_split(tmp_path):
    # written raw, the tab split the node2 cell and the literal read back as node "a"
    source = tmp_path / "g.nt"
    source.write_text('<http://ex/s> <http://ex/p> "a\\tb"^^<http://ex/dt> .\n')
    graph = load_ntriples(source, "t")
    assert set(graph.objects("http://ex/s", "http://ex/p")) == {Literal.other("a\tb")}
    out = tmp_path / "g.tsv"
    with pytest.raises(DataFormatError) as err:
        write_edge_tsv(graph, out)
    assert str(err.value) == f"{out}: column node2: 'a\\tb' splits its row"
    assert not out.exists()


# -- results kept on a graph ------------------------------------------------------


def test_derived_builds_once_per_key_until_the_graph_changes():
    graph = Graph("g")
    graph.add_edge("a", "p", "b")
    builds = []

    def build(name):
        return lambda: builds.append(name) or (name, graph.edge_count)

    assert graph.derived("k", build("k")) == ("k", 1)
    assert graph.derived("k", build("k")) == ("k", 1)
    assert graph.derived(("k", 2), build("k2")) == ("k2", 1)
    assert builds == ["k", "k2"]
    assert not graph.add_edge("a", "p", "b")  # a duplicate edge changes nothing
    assert graph.derived("k", build("k")) == ("k", 1) and builds == ["k", "k2"]
    graph.add_edge("a", "p", "c")
    assert graph.derived("k", build("k")) == ("k", 2)
    assert builds == ["k", "k2", "k"]
