"""Agreement measurement between external values and existing target values.

Runs over the overlap: subjects that already have a value in the target
graph AND received a validated external value. Comparisons are the full
cross product of the two value sets per subject, which is the only counting
under which agree + disagree = overlap holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .retrieve import CandidateStatement
from .store import Graph, Literal, Value, ValueKind, value_kind


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
    property: str
    s_w: int
    s_e: int
    s_overlap: int
    s_agree: int
    s_disagree: int

    def __post_init__(self) -> None:
        if self.s_agree + self.s_disagree != self.s_overlap:
            raise ValueError("agree + disagree must equal overlap")

    @property
    def r_agree(self) -> float | None:
        return self.s_agree / self.s_overlap if self.s_overlap else None

    @property
    def r_agree_str(self) -> str:
        return format_rate(self.s_agree, self.s_overlap)


@dataclass(frozen=True)
class LiteralAgreementReport:
    property: str
    granularity: Granularity
    s_overlap: int
    s_agree: int
    s_disagree: int
    skipped: int
    scatter: tuple[tuple[Literal, Literal], ...]

    @property
    def r_agree(self) -> float | None:
        return self.s_agree / self.s_overlap if self.s_overlap else None

    @property
    def r_agree_str(self) -> str:
        return format_rate(self.s_agree, self.s_overlap)


def _by_subject(candidates: Iterable[CandidateStatement]) -> dict[str, list[Value]]:
    grouped: dict[str, list[Value]] = {}
    for cand in candidates:
        grouped.setdefault(cand.subject, []).append(cand.object)
    return grouped


def agreement(target: Graph, overlap_candidates: Sequence[CandidateStatement], *,
              s_w: int | None = None, s_e: int = 0) -> AgreementReport:
    """Cross-compare external values with target values on shared subjects.

    Equal node ids agree; there is no partial credit for granularity
    mismatches (a region and its city count as a disagreement).
    """
    prop = overlap_candidates[0].property if overlap_candidates else ""
    if s_w is None:
        s_w = len(target.statements_for(prop)) if prop else 0
    agree = disagree = 0
    for subject, external_values in _by_subject(overlap_candidates).items():
        target_values = target.objects(subject, prop)
        if not target_values:
            continue
        for wanted in target_values:
            for got in external_values:
                if wanted == got:
                    agree += 1
                else:
                    disagree += 1
    return AgreementReport(property=prop, s_w=s_w, s_e=s_e,
                           s_overlap=agree + disagree, s_agree=agree, s_disagree=disagree)


def _truncated(lit: Literal, granularity: Granularity) -> tuple:
    if granularity is Granularity.YEAR:
        return (lit.year,)
    return (lit.year, lit.month, lit.day)


def literal_agreement(target: Graph, overlap_candidates: Sequence[CandidateStatement],
                      granularity: Granularity) -> LiteralAgreementReport:
    """Date agreement at the requested granularity, with scatter pairs for plotting.

    Non-date values on either side are skipped and counted. Coarsening the
    granularity can only turn disagreements into agreements, never the
    reverse.
    """
    prop = overlap_candidates[0].property if overlap_candidates else ""
    agree = disagree = skipped = 0
    scatter: list[tuple[Literal, Literal]] = []
    for subject, external_values in _by_subject(overlap_candidates).items():
        target_values = target.objects(subject, prop)
        if not target_values:
            continue
        for wanted in target_values:
            for got in external_values:
                if value_kind(wanted) is not ValueKind.DATE \
                        or value_kind(got) is not ValueKind.DATE:
                    skipped += 1
                    continue
                scatter.append((wanted, got))
                if _truncated(wanted, granularity) == _truncated(got, granularity):
                    agree += 1
                else:
                    disagree += 1
    scatter.sort(key=lambda pair: (pair[0].year or 0, pair[1].year or 0))
    return LiteralAgreementReport(
        property=prop, granularity=granularity, s_overlap=agree + disagree,
        s_agree=agree, s_disagree=disagree, skipped=skipped, scatter=tuple(scatter))


def write_scatter_csv(report: LiteralAgreementReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("target_year,external_year\n")
        for wanted, got in report.scatter:
            fh.write(f"{wanted.year},{got.year}\n")
