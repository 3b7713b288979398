from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgenrich
from kgenrich.align import PropertyPath
from kgenrich.resolve import EntityMapping, MappingSpec, build_mapping
from kgenrich.retrieve import (CandidateStatement, follow_path, read_candidates, retrieve,
                               write_candidates)
from kgenrich.store import Literal, value_sort_key

from conftest import graph_from_edges


def test_follow_path_single_step():
    g = graph_from_edges("dbp", [("dbr:WOWIO", "dbp:industry", "dbr:E-book")])
    terminals = follow_path(g, "dbr:WOWIO", PropertyPath(steps=("dbp:industry",)))
    assert set(terminals) == {"dbr:E-book"}


def test_follow_path_two_hops_over_one_tuple_and_set_entries():
    g = graph_from_edges("dbp", [
        ("a", "p", "b"), ("a", "p", "c"), ("a", "p", "d"), ("a", "p", Literal.string("x")),
        ("b", "q", "e"), ("c", "q", "e"), ("c", "q", "f"), ("c", "r", "g"),
        ("d", "r", "h"),
    ])
    assert type(g.objects("a", "p")) is set and type(g.objects("c", "q")) is set
    assert type(g.objects("b", "q")) is tuple
    terminals = follow_path(g, "a", PropertyPath(steps=("p", "q")))
    assert terminals == {"e", "f"}


def test_follow_path_no_outgoing_edge():
    g = graph_from_edges("dbp", [("dbr:Other", "dbp:industry", "dbr:X")])
    assert set(follow_path(g, "dbr:WOWIO", PropertyPath(steps=("dbp:industry",)))) == set()


def test_follow_path_getty_four_hop():
    g = graph_from_edges("getty", [
        ("ulan:person", "foaf:focus", "ulan:agent"),
        ("ulan:agent", "gvp:biographyPreferred", "ulan:bio"),
        ("ulan:bio", "schema:birthPlace", "ulan:place"),
        ("ulan:place", "skos:exactMatch", "tgn:7011781"),
    ])
    path = PropertyPath(steps=("foaf:focus", "gvp:biographyPreferred",
                               "schema:birthPlace", "skos:exactMatch"))
    terminals = follow_path(g, "ulan:person", path)
    assert set(terminals) == {"tgn:7011781"}


def test_follow_path_intermediate_literal_terminates_branch():
    g = graph_from_edges("dbp", [
        ("dbr:A", "p", Literal.string("dead end")),
        ("dbr:A", "p", "dbr:M"),
        ("dbr:M", "q", "dbr:O"),
    ])
    terminals = follow_path(g, "dbr:A", PropertyPath(steps=("p", "q")))
    assert set(terminals) == {"dbr:O"}


def test_follow_path_empty_path_rejected():
    g = graph_from_edges("dbp", [("dbr:A", "p", "dbr:B")])
    with pytest.raises(ValueError):
        follow_path(g, "dbr:A", PropertyPath(steps=()))


def _linked_target(links):
    edges = [(subj, "sitelink", Literal.string(title)) for subj, title in links]
    return graph_from_edges("wd", edges)


PATH = PropertyPath(steps=("dbp:industry",))


def test_retrieve_unique_resolution():
    target = _linked_target([("Q1", "CompanyA"), ("Q2", "IndustryA")])
    external = graph_from_edges("dbp", [("dbr:CompanyA", "dbp:industry", "dbr:IndustryA")])
    mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
    unknowns = {"Q1": {"dbr:CompanyA"}}
    candidates = retrieve(external, unknowns, "P452", PATH, mapping)
    assert len(candidates) == 1
    cand = candidates[0]
    assert cand.subject == "Q1"
    assert isinstance(cand.object, str) and cand.object == "Q2"
    assert cand.external_object == "dbr:IndustryA"
    assert not cand.ambiguous and not cand.unresolved


def test_retrieve_unresolvable_flagged():
    target = _linked_target([("Q1", "CompanyA")])
    external = graph_from_edges("dbp", [("dbr:CompanyA", "dbp:industry", "dbr:Mystery")])
    mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
    candidates = retrieve(external, {"Q1": {"dbr:CompanyA"}},
                          "P452", PATH, mapping)
    assert len(candidates) == 1
    assert candidates[0].unresolved
    assert candidates[0].object == "dbr:Mystery"


def test_retrieve_ambiguous_inverse_propagates_all():
    target = _linked_target([("Q1", "CompanyA"), ("Q2", "IndustryA"), ("Q3", "IndustryA")])
    external = graph_from_edges("dbp", [("dbr:CompanyA", "dbp:industry", "dbr:IndustryA")])
    mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
    candidates = retrieve(external, {"Q1": {"dbr:CompanyA"}},
                          "P452", PATH, mapping)
    assert len(candidates) == 2
    assert all(c.ambiguous for c in candidates)
    assert {c.object for c in candidates} == {"Q2", "Q3"}


def test_retrieve_dedups_same_resolved_object():
    # two external ids for one subject reach the same resolved object
    target = _linked_target([("Q1", "CompanyA"), ("Q2", "IndustryA")])
    target.add_edge("Q1", "extid", Literal.string("CompanyA_alias"))
    external = graph_from_edges("dbp", [
        ("dbr:CompanyA", "dbp:industry", "dbr:IndustryA"),
        ("dbr:CompanyA_alias", "dbp:industry", "dbr:IndustryA"),
    ])
    mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
    unknowns = {"Q1": {"dbr:CompanyA", "dbr:CompanyA_alias"}}
    candidates = retrieve(external, unknowns, "P452", PATH, mapping)
    assert len(candidates) == 1


def test_retrieve_idempotent_and_subject_scoped():
    target = _linked_target([("Q1", "CompanyA"), ("Q2", "IndustryA")])
    external = graph_from_edges("dbp", [("dbr:CompanyA", "dbp:industry", "dbr:IndustryA")])
    mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
    unknowns = {"Q1": {"dbr:CompanyA"}}
    first = retrieve(external, unknowns, "P452", PATH, mapping)
    second = retrieve(external, unknowns, "P452", PATH, mapping)
    assert first == second
    assert {c.subject for c in first} <= set(unknowns)


def test_retrieve_literal_terminal_kept():
    target = _linked_target([("Q1", "CompanyA")])
    external = graph_from_edges("dbp", [
        ("dbr:CompanyA", "dbp:founded", Literal.date(1885, 1, 1)),
    ])
    mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
    candidates = retrieve(external, {"Q1": {"dbr:CompanyA"}},
                          "P571", PropertyPath(steps=("dbp:founded",)), mapping)
    assert len(candidates) == 1
    assert candidates[0].object.kind.value == "date"


LANGUAGE_VARIANTS = """
from kgenrich.align import PropertyPath
from kgenrich.resolve import MappingSpec, build_mapping
from kgenrich.retrieve import retrieve
from kgenrich.store import Graph, Literal, serialize_value

target = Graph("wd")
target.add_edge("Q90", "sitelink", Literal.string("Paris"))
external = Graph("dbp")
for language in ("nl", "en", "fr"):
    external.add_edge("dbr:Paris", "dbp:name", Literal.monolingual("Paris", language))
mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
candidates = retrieve(external, {"Q90": {"dbr:Paris"}}, "P1448",
                      PropertyPath(steps=("dbp:name",)), mapping)
print("|".join(serialize_value(c.object) for c in candidates))
"""


def test_retrieve_keeps_language_variants_independent_of_hash_seed():
    # set order of the reached terminals follows the hash seed; the candidates must not
    src = str(Path(kgenrich.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", LANGUAGE_VARIANTS], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.strip().split("|"))
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1] == outputs[2]


def test_candidate_file_roundtrip(tmp_path):
    target = _linked_target([("Q1", "CompanyA"), ("Q2", "IndustryA")])
    external = graph_from_edges("dbp", [
        ("dbr:CompanyA", "dbp:industry", "dbr:IndustryA"),
        ("dbr:CompanyA", "dbp:industry", "dbr:Mystery"),
    ])
    mapping = build_mapping(target, MappingSpec("sitelink", prefix="dbr:"))
    candidates = retrieve(external, {"Q1": {"dbr:CompanyA"}},
                          "P452", PATH, mapping)
    path = tmp_path / "cands.tsv"
    write_candidates(candidates, path)
    back = read_candidates(path)
    assert [(c.subject, c.property, c.object, c.unresolved) for c in back] == \
           [(c.subject, c.property, c.object, c.unresolved) for c in candidates]


# -- retrieve against the reference loop -----------------------------------------


def _reference_walk(graph, start, path):
    frontier = {start}
    for step in path.steps:
        frontier = {obj for value in frontier if isinstance(value, str)
                    for obj in graph.objects(value, step)}
    return frontier


def _reference_retrieve(graph, unknowns, prop, path, mapping):
    """Every subject, id, terminal and inverse id sorted; the first hit of a
    (subject, object) pair wins."""
    found = {}
    for subject in sorted(unknowns):
        for external_id in sorted(set(unknowns[subject])):
            for terminal in sorted(follow_path(graph, external_id, path), key=value_sort_key):
                if isinstance(terminal, str):
                    targets = mapping.inverse.get(terminal)
                    if not targets:
                        found.setdefault((subject, terminal), CandidateStatement(
                            subject, prop, terminal, terminal, path, False, True))
                        continue
                    for resolved in sorted(targets):
                        found.setdefault((subject, resolved), CandidateStatement(
                            subject, prop, resolved, terminal, path, len(targets) > 1, False))
                else:
                    found.setdefault((subject, terminal), CandidateStatement(
                        subject, prop, terminal, terminal, path, False, False))
    return list(found.values())


_NODES = [f"dbr:N{i}" for i in range(6)]
# literal objects, also as intermediates that end a branch
_LITERALS = [Literal.string("x"), Literal.monolingual("x", "en"), Literal.date(1990),
             Literal.date(1990, 5, 1), Literal.quantity(3)]
_TARGETS = [f"Q{i}" for i in range(5)]


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.tuples(st.sampled_from(_NODES), st.sampled_from(["p", "q"]),
                                st.sampled_from(_NODES + _LITERALS)), max_size=25),
       steps=st.lists(st.sampled_from(["p", "q"]), min_size=1, max_size=4),
       # a missing or empty entry leaves a node terminal unresolved; several
       # targets make it ambiguous, and one target may own several nodes
       inverse=st.dictionaries(st.sampled_from(_NODES),
                               st.frozensets(st.sampled_from(_TARGETS), max_size=3)),
       # subjects share ids; a list may repeat one
       unknowns=st.dictionaries(
           st.sampled_from(["S0", "S1", "S2", "S3"]),
           st.one_of(st.frozensets(st.sampled_from(_NODES + ["dbr:Absent"]), max_size=3),
                     st.lists(st.sampled_from(_NODES), max_size=3))))
def test_retrieve_equals_the_reference_loop(edges, steps, inverse, unknowns):
    graph = graph_from_edges("dbp", edges)
    path = PropertyPath(tuple(steps), support=2)
    mapping = EntityMapping("sitelink", forward={}, inverse=inverse)
    for start in _NODES + ["dbr:Absent"]:
        assert set(follow_path(graph, start, path)) == _reference_walk(graph, start, path)
    assert retrieve(graph, unknowns, "P1", path, mapping) == \
        _reference_retrieve(graph, unknowns, "P1", path, mapping)
