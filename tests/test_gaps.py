from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgenrich.gaps import detect_gaps
from kgenrich.store import Literal

from conftest import graph_from_edges


def _company_graph(with_p452=("Q1", "Q2")):
    edges = [(q, "P31", "Q783794") for q in ("Q1", "Q2", "Q3")]
    for i, q in enumerate(with_p452):
        edges.append((q, "P452", f"Q10{i}"))
    return graph_from_edges("wd", edges)


def test_two_of_three_known():
    g = _company_graph()
    part = detect_gaps(g, "P452")
    # without a class filter the universe is every edge subject
    assert set(part.known_subjects) == {"Q1", "Q2"}
    assert "Q3" in set(part.unknown_subjects)


def test_entity_filter_restricts_universe():
    edges = [
        ("Q1", "P31", "Q11424"), ("Q2", "P31", "Q11424"),
        ("Q9", "P31", "Q5"),
        ("Q1", "P57", "Q100"),
        ("Q9", "P57", "Q101"),
    ]
    g = graph_from_edges("wd", edges)
    part = detect_gaps(g, "P57", ("Q11424", "P31"))
    assert set(part.known_subjects) == {"Q1"}
    assert set(part.unknown_subjects) == {"Q2"}


def test_missing_type_property_raises():
    g = _company_graph()
    with pytest.raises(ValueError):
        detect_gaps(g, "P452", ("Q783794", "P39"))


def test_paper_scale_counts():
    # 2,676 film subjects, 60 with a cost value
    edges = [(f"Q{i}", "P31", "Q11424") for i in range(2676)]
    edges += [(f"Q{i}", "P2130", Literal.quantity(1000 + i)) for i in range(60)]
    g = graph_from_edges("wd", edges)
    part = detect_gaps(g, "P2130", ("Q11424", "P31"))
    assert len(part.known_subjects) == 60
    assert len(part.unknown_subjects) == 2616
    assert len(part.entities) == 2676


def test_partition_law(company_fixture):
    part = detect_gaps(company_fixture.target, "P452", ("Q783794", "P31"))
    assert not (part.known_subjects & part.unknown_subjects)
    assert part.known_subjects | part.unknown_subjects == part.entities
    assert all(subj in part.known_subjects for subj, _ in part.known)


def test_monotonicity_adding_statement_moves_subject():
    before = detect_gaps(_company_graph(), "P452")
    after = detect_gaps(_company_graph(with_p452=("Q1", "Q2", "Q3")), "P452")
    moved = set(before.unknown_subjects) - set(after.unknown_subjects)
    assert "Q3" in moved
    assert set(before.known_subjects) <= set(after.known_subjects)


def test_no_value_sentinel_counts_as_known():
    edges = [("Q1", "P31", "Q783794"), ("Q2", "P31", "Q783794"),
             ("Q1", "P452", "novalue")]
    g = graph_from_edges("wd", edges)
    part = detect_gaps(g, "P452", ("Q783794", "P31"), no_value_sentinel="novalue")
    assert set(part.known_subjects) == {"Q1"}
    # the sentinel pair itself is not usable as a known pair
    assert part.known == frozenset()


def test_unknown_property_warns_not_raises(caplog):
    g = _company_graph()
    with caplog.at_level("WARNING"):
        part = detect_gaps(g, "P9999")
    assert part.known_subjects == frozenset()
    assert any("P9999" in rec.message for rec in caplog.records)


@given(st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=1, max_size=30))
def test_partition_law_random(assignments):
    edges = []
    for i, (subj_idx, has_value) in enumerate(assignments):
        subj = f"Q{subj_idx}"
        edges.append((subj, "P31", "C1"))
        if has_value:
            edges.append((subj, "P1", f"V{i}"))
    g = graph_from_edges("wd", edges)
    part = detect_gaps(g, "P1", ("C1", "P31"))
    assert not (part.known_subjects & part.unknown_subjects)
    assert len(part.known_subjects) + len(part.unknown_subjects) == len(part.entities)
    assert {s for s, _ in part.known} <= part.known_subjects
