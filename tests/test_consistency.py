from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgenrich.align import PropertyPath
from kgenrich.consistency import (AgreementReport, Granularity, agreement,
                                  format_rate, literal_agreement, write_scatter_csv)
from kgenrich.retrieve import CandidateStatement
from kgenrich.store import Literal

from conftest import graph_from_edges

PATH = PropertyPath(steps=("x",))


def cand(subject_id, prop, obj):
    return CandidateStatement(subject=subject_id, property=prop,
                              object=obj, external_object=obj, path=PATH)


def test_published_agreement_arithmetic():
    report = AgreementReport(property="P19", s_overlap=884_078, s_agree=461_089,
                             s_disagree=422_989)
    assert report.r_agree_str == "52.15%"
    assert AgreementReport("P20", 219_447, 128_523, 90_924).r_agree_str == "58.57%"
    assert AgreementReport("P19", 16_304, 13_607, 2_697).r_agree_str == "83.46%"
    with pytest.raises(ValueError):
        AgreementReport("P19", 10, 4, 5)


def test_format_rate():
    assert format_rate(1_271_862, 1_424_526) == "89.28%"
    assert format_rate(None, 10) == "-"
    assert format_rate(1, 0) == "-"
    assert format_rate(0, 10) == "0.00%"


def test_agreement_all_equal():
    g = graph_from_edges("wd", [("Q1", "P19", "Q10"), ("Q2", "P19", "Q20")])
    overlap = [cand("Q1", "P19", "Q10"), cand("Q2", "P19", "Q20")]
    report = agreement(g, overlap)
    assert report.s_overlap == 2 and report.s_agree == 2
    assert report.r_agree == 1.0


def test_agreement_region_vs_city_counts_as_disagreement():
    # a region in the target vs the specific city from outside: no credit
    g = graph_from_edges("wd", [("Q1161576", "P20", "Q30978")])
    report = agreement(g, [cand("Q1161576", "P20", "Q4191")])
    assert report.s_agree == 0 and report.s_disagree == 1


def test_agreement_cross_product_counting():
    g = graph_from_edges("wd", [("Q1", "P19", "Q10"), ("Q1", "P19", "Q11")])
    overlap = [cand("Q1", "P19", "Q10"), cand("Q1", "P19", "Q12")]
    report = agreement(g, overlap)
    # 2 target values x 2 external values = 4 comparisons, 1 agreeing
    assert report.s_overlap == 4
    assert report.s_agree == 1
    assert report.s_agree + report.s_disagree == report.s_overlap


def test_agreement_empty_overlap_undefined_rate():
    g = graph_from_edges("wd", [("Q1", "P19", "Q10")])
    report = agreement(g, [])
    assert report.r_agree is None
    assert report.r_agree_str == "-"


def test_literal_agreement_truncation():
    g = graph_from_edges("wd", [("Q1", "P570", Literal.date(1900, 3, 1))])
    year_ext = [cand("Q1", "P570", Literal.date(1900))]
    report = literal_agreement(g, year_ext, Granularity.YEAR)
    assert report.s_agree == 1
    day_mismatch = [cand("Q1", "P570", Literal.date(1900, 3, 2))]
    report = literal_agreement(g, day_mismatch, Granularity.DAY)
    assert report.s_disagree == 1


def test_literal_agreement_skips_non_dates():
    g = graph_from_edges("wd", [("Q1", "P570", Literal.date(1900)),
                                ("Q1", "P570", "Qnode")])
    overlap = [cand("Q1", "P570", Literal.date(1900)),
               cand("Q1", "P570", Literal.string("nineteen hundred"))]
    report = literal_agreement(g, overlap, Granularity.YEAR)
    assert report.s_agree == 1
    assert report.skipped == 3


def test_scatter_csv(tmp_path):
    g = graph_from_edges("wd", [("Q1", "P570", Literal.date(1900, 3, 1))])
    report = literal_agreement(g, [cand("Q1", "P570", Literal.date(1900))],
                               Granularity.YEAR)
    assert report.scatter == ((Literal.date(1900, 3, 1), Literal.date(1900)),)
    out = tmp_path / "scatter.csv"
    write_scatter_csv(report, out)
    assert out.read_text() == "target_year,external_year\n1900,1900\n"


@given(st.lists(st.tuples(
    st.integers(1800, 2030), st.integers(1, 12), st.integers(1, 28),
    st.integers(1800, 2030), st.integers(1, 12), st.integers(1, 28),
), min_size=1, max_size=25))
def test_year_granularity_never_below_day(rows):
    edges = []
    overlap = []
    for i, (ty, tm, td, ey, em, ed) in enumerate(rows):
        subj = f"Q{i}"
        edges.append((subj, "P570", Literal.date(ty, tm, td)))
        overlap.append(cand(subj, "P570", Literal.date(ey, em, ed)))
    g = graph_from_edges("wd", edges)
    year = literal_agreement(g, overlap, Granularity.YEAR)
    day = literal_agreement(g, overlap, Granularity.DAY)
    assert year.s_overlap == day.s_overlap
    assert year.s_agree >= day.s_agree
    if year.s_overlap:
        assert 0.0 <= day.r_agree <= year.r_agree <= 1.0
