"""Agreement measurement between external values and existing target values.

Runs over the overlap: subjects that already have a value in the target
graph AND received a validated external value. Comparisons are the full
cross product of the two value sets per subject, which is the only counting
under which agree + disagree = overlap holds exactly. Item values and dates
share one comparison loop and one report type; dates compare at a
granularity and also yield scatter pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .retrieve import CandidateStatement
from .store import Graph, Literal, ValueKind, value_kind, write_atomic


def format_rate(numerator: float | int | None, denominator: float | int | None) -> str:
    """Fixed 2-decimal percent rendering; '-' when undefined."""
    if numerator is None or not denominator:
        return "-"
    return f"{100.0 * numerator / denominator:.2f}%"


class Granularity(Enum):
    YEAR = "year"
    DAY = "day"


@dataclass(frozen=True)
class AgreementReport:
    """Agreement counts; ``granularity`` is ``None`` for item values."""

    property: str
    s_overlap: int
    s_agree: int
    s_disagree: int
    granularity: Granularity | None = None
    skipped: int = 0
    scatter: tuple[tuple[Literal, Literal], ...] = ()

    def __post_init__(self) -> None:
        if self.s_agree + self.s_disagree != self.s_overlap:
            raise ValueError("agree + disagree must equal overlap")

    @property
    def r_agree(self) -> float | None:
        return self.s_agree / self.s_overlap if self.s_overlap else None

    @property
    def r_agree_str(self) -> str:
        return format_rate(self.s_agree, self.s_overlap)


def _truncated(lit: Literal, granularity: Granularity) -> tuple:
    if granularity is Granularity.YEAR:
        return (lit.year,)
    return (lit.year, lit.month, lit.day)


def _compare(target: Graph, overlap_candidates: Sequence[CandidateStatement],
             granularity: Granularity | None) -> AgreementReport:
    """Each external value against each target value of its subject."""
    prop = overlap_candidates[0].property if overlap_candidates else ""
    agree = disagree = skipped = 0
    scatter: list[tuple[Literal, Literal]] = []
    for cand in overlap_candidates:
        got = cand.object
        for wanted in target.objects(cand.subject, prop):
            if granularity is None:
                same = wanted == got
            elif value_kind(wanted) is not ValueKind.DATE \
                    or value_kind(got) is not ValueKind.DATE:
                skipped += 1
                continue
            else:
                scatter.append((wanted, got))
                same = _truncated(wanted, granularity) == _truncated(got, granularity)
            if same:
                agree += 1
            else:
                disagree += 1
    scatter.sort(key=lambda pair: (pair[0].year or 0, pair[1].year or 0))
    return AgreementReport(property=prop, s_overlap=agree + disagree, s_agree=agree,
                           s_disagree=disagree, granularity=granularity,
                           skipped=skipped, scatter=tuple(scatter))


def agreement(target: Graph, overlap_candidates: Sequence[CandidateStatement],
              ) -> AgreementReport:
    """Item agreement: equal node ids agree.

    There is no partial credit for granularity mismatches (a region and its
    city count as a disagreement).
    """
    return _compare(target, overlap_candidates, None)


def literal_agreement(target: Graph, overlap_candidates: Sequence[CandidateStatement],
                      granularity: Granularity) -> AgreementReport:
    """Date agreement at the requested granularity, with scatter pairs for plotting.

    Non-date values on either side are skipped and counted. Coarsening the
    granularity can only turn disagreements into agreements, never the
    reverse.
    """
    return _compare(target, overlap_candidates, granularity)


def write_scatter_csv(report: AgreementReport, path) -> None:
    write_atomic(path, "target_year,external_year\n" + "".join(
        f"{wanted.year},{got.year}\n" for wanted, got in report.scatter))
