from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgenrich.align import PropertyPath
from kgenrich.errors import DataFormatError
from kgenrich.retrieve import CandidateStatement
from kgenrich.store import Literal, ValueKind, value_kind
from kgenrich.validate import (KIND_PRECEDENCE, RejectReason, RelationMode,
                               ValidationSettings, ValueTypeConstraint,
                               infer_expected_datatype, load_constraints,
                               validate_detailed)

from conftest import graph_from_edges

PATH = PropertyPath(steps=("dbp:x",))


def cand(subject_id, prop, obj, *, unresolved=False, ambiguous=False, external=None):
    return CandidateStatement(subject=subject_id, property=prop, object=obj,
                              external_object=external or obj, path=PATH,
                              ambiguous=ambiguous, unresolved=unresolved)


def pairs(*objs):
    return [(f"Qs{i}", obj) for i, obj in enumerate(objs)]


def verdict(graph, candidate, known, constraint=None, **settings):
    """``validate_detailed``'s verdict on one candidate."""
    outcome = validate_detailed(graph, [candidate], pairs(*known), constraint,
                                ValidationSettings(**settings))
    return outcome.verdicts[0]


# -- datatype inference ---------------------------------------------------------

def test_infer_majority():
    known = pairs("Q1", "Q2", Literal.string("x"))
    assert infer_expected_datatype(known) is ValueKind.ITEM


def test_infer_singleton():
    assert infer_expected_datatype(pairs(Literal.date(2015))) is ValueKind.DATE


def test_infer_tie_breaks_by_precedence_both_orders():
    a = pairs("Q1", Literal.string("x"))
    b = pairs(Literal.string("x"), "Q1")
    assert infer_expected_datatype(a) is ValueKind.ITEM
    assert infer_expected_datatype(b) is ValueKind.ITEM
    c = pairs(Literal.date(1999), Literal.quantity(4))
    assert infer_expected_datatype(c) is ValueKind.DATE


_ONE_OF_EACH_KIND = {ValueKind.ITEM: "Q1", ValueKind.DATE: Literal.date(1999),
                     ValueKind.QUANTITY: Literal.quantity(4),
                     ValueKind.MONOLINGUAL: Literal.monolingual("x", "en"),
                     ValueKind.STRING: Literal.string("x"), ValueKind.OTHER: Literal.other("x")}


def test_infer_every_tie_goes_to_the_earlier_kind_and_a_lead_wins():
    assert list(_ONE_OF_EACH_KIND) == list(KIND_PRECEDENCE)
    for i, first in enumerate(KIND_PRECEDENCE):
        for later in KIND_PRECEDENCE[i + 1:]:
            one, two = _ONE_OF_EACH_KIND[first], _ONE_OF_EACH_KIND[later]
            assert infer_expected_datatype(pairs(two, one, two, one)) is first
            assert infer_expected_datatype(pairs(one, two, two)) is later


def test_infer_empty_is_a_value_error():
    with pytest.raises(ValueError, match="^no known statements to infer a datatype from$"):
        infer_expected_datatype([])
    with pytest.raises(ValueError, match="no known statements"):
        validate_detailed(graph_from_edges("wd", []), [cand("Q1", "P1", "Q2")], [])


# -- datatype check -------------------------------------------------------------

# known objects whose modal kind is an item, and a date
ITEMS = ("Q483",)
DATES = (Literal.date(2000),)


def test_check_datatype_table1_examples():
    g = graph_from_edges("wd", [])
    left_back = cand("Q15401730", "P413", Literal.monolingual("Left back", "en"))
    assert verdict(g, left_back, ITEMS).datatype_ok is False
    genre = cand("Q6530279", "P136", "Q217117")
    assert verdict(g, genre, ITEMS).datatype_ok is True
    assert verdict(g, cand("Q1", "P1", Literal.quantity(4000000)), DATES).datatype_ok is False


def test_check_datatype_requires_resolution_for_items():
    unresolved = cand("Q1", "P1", "dbr:Mystery", unresolved=True)
    assert verdict(graph_from_edges("wd", []), unresolved, ITEMS).datatype_ok is False


# -- value-type check -----------------------------------------------------------

INDUSTRY = ValueTypeConstraint(
    property="P452",
    allowed_classes=frozenset({"Q8148", "Q268592", "Q8187769", "Q3958441", "Q121359"}),
    relation_mode=RelationMode.BOTH)


def value_type_ok(graph, candidate, constraint, **settings):
    return verdict(graph, candidate, ITEMS, constraint, **settings).value_type_ok


def test_value_type_direct_instance():
    g = graph_from_edges("wd", [("Q2001", "P31", "Q8148")])
    assert value_type_ok(g, cand("Q1", "P452", "Q2001"), INDUSTRY) is True


def test_value_type_one_step_subclass_closure():
    g = graph_from_edges("wd", [("Q2001", "P31", "X1"), ("X1", "P279", "Q8148")])
    assert value_type_ok(g, cand("Q1", "P452", "Q2001"), INDUSTRY) is True


def test_value_type_wrong_chain_rejected():
    # flamenco typed as a music genre misses a language-valued constraint
    g = graph_from_edges("wd", [("Q9764", "P31", "Q188451"), ("Q188451", "P279", "Q2088357")])
    languages = ValueTypeConstraint(property="P2701",
                                    allowed_classes=frozenset({"Q34770"}))
    assert value_type_ok(g, cand("Q704160", "P2701", "Q9764"), languages) is False


def test_value_type_instance_mode_ignores_subclass_edges():
    g = graph_from_edges("wd", [("Q2001", "P279", "Q8148")])
    only_instance = ValueTypeConstraint(property="P452",
                                        allowed_classes=frozenset({"Q8148"}),
                                        relation_mode=RelationMode.INSTANCE_OF)
    both = ValueTypeConstraint(property="P452", allowed_classes=frozenset({"Q8148"}),
                               relation_mode=RelationMode.BOTH)
    assert value_type_ok(g, cand("Q1", "P452", "Q2001"), only_instance) is False
    assert value_type_ok(g, cand("Q1", "P452", "Q2001"), both) is True


def test_value_type_exception_bypasses():
    g = graph_from_edges("wd", [("Q2001", "P31", "Qother")])
    constraint = ValueTypeConstraint(property="P452",
                                     allowed_classes=frozenset({"Q8148"}),
                                     exceptions=frozenset({"Q1"}))
    assert value_type_ok(g, cand("Q1", "P452", "Q2001"), constraint) is True
    assert value_type_ok(g, cand("Q2", "P452", "Q2001"), constraint) is False


def test_value_type_cycle_safe():
    g = graph_from_edges("wd", [
        ("Q2001", "P31", "A"), ("A", "P279", "B"), ("B", "P279", "A"),
    ])
    constraint = ValueTypeConstraint(property="P452", allowed_classes=frozenset({"Q8148"}))
    assert value_type_ok(g, cand("Q1", "P452", "Q2001"), constraint) is False


def test_value_type_monotone_in_depth():
    chain = [("Q2001", "P31", "C0")]
    chain += [(f"C{i}", "P279", f"C{i+1}") for i in range(6)]
    g = graph_from_edges("wd", chain)
    constraint = ValueTypeConstraint(property="P452", allowed_classes=frozenset({"C6"}))
    accepted_at = [depth for depth in range(0, 10)
                   if value_type_ok(g, cand("Q1", "P452", "Q2001"), constraint,
                                    depth_cap=depth)]
    assert accepted_at == list(range(6, 10))


def test_value_type_object_not_in_graph():
    g = graph_from_edges("wd", [("Q2001", "P31", "Q8148")])
    outcome = verdict(g, cand("Q1", "P452", "Q9999"), ITEMS, INDUSTRY)
    assert outcome.value_type_ok is False
    assert outcome.reject_reason is RejectReason.UNRESOLVABLE


# -- literal range ----------------------------------------------------------------

def test_literal_range_examples():
    g = graph_from_edges("wd", [])
    assert verdict(g, cand("Q1", "P570", Literal.date(2015)), DATES).range_ok is True
    assert verdict(g, cand("Q1", "P570", Literal.date(2022)), DATES).range_ok is False
    assert verdict(g, cand("Q1", "P571", Literal.date(1885, 1, 1)), DATES).range_ok is True
    # the range check applies to dates only
    assert verdict(g, cand("Q1", "P1", Literal.quantity(5)), DATES).range_ok is None


# -- validate ---------------------------------------------------------------------

def _table1_graph():
    return graph_from_edges("wd", [
        ("Q217117", "P31", "Q483394"),    # burlesque: genre
        ("Q9764", "P31", "Q9730"),        # flamenco: typed off-constraint
        ("Q8070394", "P31", "Q5"),        # a human
    ])


def test_table1_fixture_two_accepted_two_rejected():
    g = _table1_graph()
    runs = [
        # (candidate, known pairs, constraint, expected reason)
        (cand("Q6530279", "P136", "Q217117"),
         pairs("Q483", "Q484"),
         ValueTypeConstraint("P136", frozenset({"Q483394"})), None),
        (cand("Q15401730", "P413", Literal.monolingual("Left back", "en")),
         pairs("Q483"),
         ValueTypeConstraint("P413", frozenset({"Q4611891"})),
         RejectReason.WRONG_DATATYPE),
        (cand("Q704160", "P2701", "Q9764"),
         pairs("Q483"),
         ValueTypeConstraint("P2701", frozenset({"Q235557"})),
         RejectReason.WRONG_VALUE_TYPE),
        # logically consistent but factually wrong: accepted, veracity out of scope
        (cand("Q5402674", "P4608", "Q8070394"),
         pairs("Q483"),
         ValueTypeConstraint("P4608", frozenset({"Q5"})), None),
    ]
    accepted_total = 0
    for candidate, known, constraint, reason in runs:
        outcome = validate_detailed(g, [candidate], known, constraint)
        accepted, verdicts = outcome.accepted, outcome.verdicts
        accepted_total += len(accepted)
        assert verdicts[0].reject_reason is reason
    assert accepted_total == 2


def test_all_passing_batch():
    g = _table1_graph()
    batch = [cand(f"Q{i}", "P136", "Q217117") for i in range(5)]
    outcome = validate_detailed(g, batch, pairs("Q483"),
                                ValueTypeConstraint("P136", frozenset({"Q483394"})))
    accepted, verdicts = outcome.accepted, outcome.verdicts
    assert accepted == batch
    assert all(v.accepted for v in verdicts)


def test_half_passing_batch_compatibility():
    g = _table1_graph()
    good = [cand(f"Q{i}", "P136", "Q217117") for i in range(5)]
    bad = [cand(f"Q{i+5}", "P136", Literal.string("nope")) for i in range(5)]
    outcome = validate_detailed(g, good + bad, pairs("Q483"),
                                ValueTypeConstraint("P136", frozenset({"Q483394"})))
    accepted = outcome.accepted
    assert len(accepted) / 10 == 0.5


def test_unresolved_reason_dominates():
    g = _table1_graph()
    unresolved = cand("Q1", "P136", "dbr:Mystery", unresolved=True)
    outcome = validate_detailed(g, [unresolved], pairs("Q483"),
                                ValueTypeConstraint("P136", frozenset({"Q483394"})))
    verdicts = outcome.verdicts
    assert verdicts[0].reject_reason is RejectReason.UNRESOLVABLE
    assert not verdicts[0].accepted


def test_out_of_range_reason():
    g = _table1_graph()
    late = cand("Q1", "P570", Literal.date(2023))
    outcome = validate_detailed(g, [late], pairs(Literal.date(1990)))
    accepted, verdicts = outcome.accepted, outcome.verdicts
    assert not accepted
    assert verdicts[0].reject_reason is RejectReason.OUT_OF_RANGE
    assert verdicts[0].range_ok is False


def test_no_constraint_skips_value_type():
    g = _table1_graph()
    candidate = cand("Q1", "P136", "Q217117")
    outcome = validate_detailed(g, [candidate], pairs("Q483"), None)
    accepted, verdicts = outcome.accepted, outcome.verdicts
    assert accepted == [candidate]
    assert verdicts[0].value_type_ok is None


def test_intersection_law_small():
    g = _table1_graph()
    known = pairs("Q483", "Q484")
    constraint = ValueTypeConstraint("P136", frozenset({"Q483394"}),
                                     exceptions=frozenset({"Qx"}))
    batch = [
        cand("Q1", "P136", "Q217117"),
        cand("Q2", "P136", "Q9764"),
        cand("Q3", "P136", Literal.string("str")),
        cand("Qx", "P136", "Q9764"),          # exception subject bypasses value type
        cand("Q4", "P136", "dbr:M", unresolved=True),
    ]
    outcome = validate_detailed(g, batch, known, constraint)
    accepted, verdicts = outcome.accepted, outcome.verdicts
    datatype_pass = {v.statement for v in verdicts if v.datatype_ok}
    valuetype_pass = {v.statement for v in verdicts if v.value_type_ok in (None, True)}
    range_pass = {v.statement for v in verdicts if v.range_ok in (None, True)}
    resolvable = {v.statement for v in verdicts if not v.statement.unresolved}
    assert set(accepted) == datatype_pass & valuetype_pass & range_pass & resolvable
    assert {c.subject for c in accepted} == {"Q1", "Qx"}


# -- constraint files ------------------------------------------------------------

def test_load_constraints_with_directives(tmp_path):
    path = tmp_path / "constraints.tsv"
    path.write_text(
        "#mode=both\n"
        "#exception=Q42\n"
        "property\tallowed_class\n"
        "P452\tQ8148\n"
        "P452\tQ268592\n"
        "P452\tQ8148\n"          # duplicates collapse
        "P136\tQ483394\n"
    )
    table = load_constraints(path)
    assert table["P452"].allowed_classes == {"Q8148", "Q268592"}
    assert table["P452"].relation_mode is RelationMode.BOTH
    assert table["P452"].exceptions == {"Q42"}
    assert table["P136"].allowed_classes == {"Q483394"}


def test_load_constraints_directives_with_spaces(tmp_path):
    # both used to be read as comments: mode both, no exception
    path = tmp_path / "constraints.tsv"
    path.write_text("#mode = instance\n# exception =  Q9\nP452\tQ8148\n")
    constraint = load_constraints(path)["P452"]
    assert constraint.relation_mode is RelationMode.INSTANCE_OF
    assert constraint.exceptions == {"Q9"}


def test_load_constraints_other_hash_lines_are_comments(tmp_path):
    path = tmp_path / "constraints.tsv"
    path.write_text("# mode: see below\n#modes=subclass\n#exceptions=Q9\n#mode\n"
                    "#exception Q9\nP452\tQ8148\n")
    constraint = load_constraints(path)["P452"]
    assert constraint.relation_mode is RelationMode.BOTH
    assert constraint.exceptions == frozenset()


@pytest.mark.parametrize("directive", ["#exception=", "# exception = "])
def test_load_constraints_empty_exception_is_a_data_error_naming_its_line(tmp_path,
                                                                          directive):
    # "#exception=" used to add the empty id
    path = tmp_path / "constraints.tsv"
    path.write_text(f"#mode=both\n{directive}\nP452\tQ8148\n")
    with pytest.raises(DataFormatError) as err:
        load_constraints(path)
    assert str(err.value) == f"{path}:2: an exception needs a node id"


def test_load_constraints_skips_blank_lines(tmp_path):
    path = tmp_path / "constraints.tsv"
    path.write_text("property\tallowed_class\n\nP452\tQ8148\n  \n\nP452\tQ268592\n")
    assert load_constraints(path)["P452"].allowed_classes == {"Q8148", "Q268592"}


def test_load_constraints_one_cell_row_is_a_data_error_naming_its_line(tmp_path):
    path = tmp_path / "badc.tsv"
    path.write_text("property\tallowed_class\nP452\tQ8148\nP452\n")
    with pytest.raises(DataFormatError) as err:
        load_constraints(path)
    assert str(err.value) == f"{path}:3: expected property<TAB>allowed_class"


def test_load_constraints_bad_mode(tmp_path):
    path = tmp_path / "constraints.tsv"
    path.write_text("#mode=nonsense\nP1\tQ1\n")
    with pytest.raises(DataFormatError):
        load_constraints(path)


def test_constraint_requires_allowed_classes():
    with pytest.raises(ValueError):
        ValueTypeConstraint("P1", frozenset())


# -- validate_detailed against a test-side reference -------------------------------

_CLASSES = [f"C{i}" for i in range(4)]
# O<i> are typed in the graph, C<i> are classes, X is no node of the graph
_OBJECTS = ["O0", "O1", "O2", "C0", "X", Literal.string("x"), Literal.quantity(4),
            Literal.date(2021), Literal.date(2022), Literal.date(2023, 1, 5)]
_SUBJECTS = ["S0", "S1", "S2"]

# the modal kind's tie break, most specific first, written out here
_KIND_ORDER = [ValueKind.ITEM, ValueKind.DATE, ValueKind.QUANTITY,
               ValueKind.MONOLINGUAL, ValueKind.STRING, ValueKind.OTHER]


def _test_side_modal(known):
    counts = Counter(value_kind(obj) for _, obj in known)
    best = max(counts.values())
    return next(k for k in _KIND_ORDER if counts.get(k) == best)


def _test_side_reaches(graph, obj_id, allowed, mode, cap):
    """Whether a class of ``obj_id`` (by the mode's relations) reaches an allowed class
    in at most ``cap`` subclass-of hops, by a breadth-first walk up from the object."""
    relations = {"instance": ("P31",), "subclass": ("P279",),
                 "both": ("P31", "P279")}[mode.value]
    seeds = [o for rel in relations for o in graph.objects(obj_id, rel)
             if isinstance(o, str)]
    frontier, seen, depth = seeds, set(seeds), 0
    while frontier:
        if any(t in allowed for t in frontier):
            return True
        if depth >= cap:
            return False
        nxt = []
        for t in frontier:
            for parent in graph.objects(t, "P279"):
                if isinstance(parent, str) and parent not in seen:
                    seen.add(parent)
                    nxt.append(parent)
        frontier, depth = nxt, depth + 1
    return False


def _reference_verdict(graph, cand, expected, constraint, depth_cap, cutoff_year):
    """A verdict's fields by the documented rules, the reasons in the documented order."""
    kind = value_kind(cand.object)
    dt_ok = kind is expected and not cand.unresolved
    in_graph = kind is ValueKind.ITEM and graph.has_node(cand.object)
    vt_ok = None
    if constraint is not None and kind is ValueKind.ITEM and not cand.unresolved:
        vt_ok = cand.subject in constraint.exceptions or (in_graph and _test_side_reaches(
            graph, cand.object, constraint.allowed_classes, constraint.relation_mode,
            depth_cap))
    rng_ok = cand.object.year < cutoff_year if kind is ValueKind.DATE else None
    if cand.unresolved:
        reason = RejectReason.UNRESOLVABLE
    elif not dt_ok:
        reason = RejectReason.WRONG_DATATYPE
    elif vt_ok is False:
        # a value-type failure on an object outside the graph is unresolvable
        reason = RejectReason.WRONG_VALUE_TYPE if in_graph else RejectReason.UNRESOLVABLE
    elif rng_ok is False:
        reason = RejectReason.OUT_OF_RANGE
    else:
        reason = None
    return {"statement": cand, "datatype_ok": dt_ok, "value_type_ok": vt_ok,
            "range_ok": rng_ok, "accepted": reason is None, "reject_reason": reason}


@settings(max_examples=300, deadline=None)
@given(typing=st.lists(st.tuples(st.sampled_from(["O0", "O1", "O2"] + _CLASSES),
                                 st.sampled_from(["P31", "P279"]), st.sampled_from(_CLASSES)),
                       max_size=12),
       candidates=st.lists(st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_OBJECTS),
                                     st.booleans()), max_size=12),
       known=st.lists(st.sampled_from(_OBJECTS), min_size=1, max_size=4),
       constraint=st.none() | st.builds(
           ValueTypeConstraint, st.just("P1"),
           st.frozensets(st.sampled_from(_CLASSES), min_size=1),
           st.sampled_from(list(RelationMode)), st.frozensets(st.sampled_from(_SUBJECTS))),
       depth_cap=st.integers(0, 3))
# a class one subclass hop short of the allowed class, at the cap and one above it
@example(typing=[("O0", "P31", "C1"), ("C1", "P279", "C0")], candidates=[("S1", "O0", False)],
         known=["O1"], constraint=ValueTypeConstraint("P1", frozenset({"C0"})), depth_cap=0)
@example(typing=[("O0", "P31", "C1"), ("C1", "P279", "C0")], candidates=[("S1", "O0", False)],
         known=["O1"], constraint=ValueTypeConstraint("P1", frozenset({"C0"})), depth_cap=1)
def test_validate_detailed_equals_a_test_side_reference(typing, candidates, known,
                                                        constraint, depth_cap):
    graph = graph_from_edges("wd", typing + [("S0", "label", Literal.string("s"))])
    cands = [cand(subject, "P1", obj, unresolved=unresolved)
             for subject, obj, unresolved in candidates]
    settings = ValidationSettings(cutoff_year=2022, depth_cap=depth_cap)
    outcome = validate_detailed(graph, cands, pairs(*known), constraint, settings)
    expected = _test_side_modal(pairs(*known))
    assert outcome.expected is expected
    want = [_reference_verdict(graph, c, expected, constraint, depth_cap, 2022)
            for c in cands]
    assert [v._asdict() for v in outcome.verdicts] == want
    assert all(v.statement is c for v, c in zip(outcome.verdicts, cands))
    assert outcome.accepted == [w["statement"] for w in want if w["accepted"]]
