"""Candidate retrieval: follow the aligned path from mapped gap subjects.

Item-valued terminals are inverse-resolved back into target-graph node ids;
externals with no inverse mapping are kept (flagged) so the report can
account for them, but they can never pass validation. Output order and
dedup choices are deterministic so identical inputs give identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .align import PropertyPath
from .resolve import EntityMapping
from .store import (Graph, Value, parse_tsv_value, read_tsv, serialize_value, value_sort_key,
                    write_tsv)


@dataclass(frozen=True)
class CandidateStatement:
    subject: str
    property: str
    object: Value
    external_object: Value
    path: PropertyPath
    ambiguous: bool = False
    unresolved: bool = False


def follow_path(graph: Graph, start: str, path: PropertyPath) -> set[Value]:
    """All terminal values reached by applying the steps in order.

    Literals reached before the final step end their branch; an unknown
    start node yields the empty set.
    """
    if not path.steps:
        raise ValueError("cannot follow an empty path")
    frontier: set[Value] = {start}
    for step in path.steps:
        reached: set[Value] = set()
        for value in frontier:
            if isinstance(value, str):
                reached.update(graph.objects(value, step))
        frontier = reached
    return frontier


def retrieve(graph: Graph, unknowns: Mapping[str, Iterable[str]], prop: str,
             path: PropertyPath, mapping: EntityMapping) -> list[CandidateStatement]:
    """Collect candidate statements for every mapped gap subject.

    Candidates equal in (subject, object) are merged; the first hit in sorted
    processing order keeps its provenance fields.
    """
    found: dict[tuple[str, Value], CandidateStatement] = {}

    def emit(subject: str, obj: Value, external: Value,
             ambiguous: bool, unresolved: bool) -> None:
        key = (subject, obj)
        if key not in found:
            found[key] = CandidateStatement(
                subject=subject, property=prop, object=obj, external_object=external,
                path=path, ambiguous=ambiguous, unresolved=unresolved)

    for subject in sorted(unknowns):
        for external_id in sorted(set(unknowns[subject])):
            for terminal in sorted(follow_path(graph, external_id, path), key=value_sort_key):
                if isinstance(terminal, str):
                    targets = mapping.inverse.get(terminal)
                    if not targets:
                        emit(subject, terminal, terminal, ambiguous=False, unresolved=True)
                        continue
                    for resolved in sorted(targets):
                        emit(subject, resolved, terminal,
                             ambiguous=len(targets) > 1, unresolved=False)
                else:
                    emit(subject, terminal, terminal, ambiguous=False, unresolved=False)
    return list(found.values())


# -- candidate files ----------------------------------------------------------

CANDIDATE_COLUMNS = ("subject", "property", "object", "external_object", "path", "flags")


def write_candidates(candidates: Iterable[CandidateStatement], path: str | Path) -> None:
    write_tsv(path, CANDIDATE_COLUMNS, [
        (cand.subject, cand.property, serialize_value(cand.object),
         serialize_value(cand.external_object), cand.path.path_str, ",".join(
             name for name in ("ambiguous", "unresolved") if getattr(cand, name)) or "-")
        for cand in candidates])


def read_candidates(path: str | Path, prop: str | None = None) -> list[CandidateStatement]:
    """Parse a candidate TSV written by write_candidates. A row ``read_tsv`` refuses, or one
    without a subject, with a malformed path or value or, given ``prop``, of another
    property, is a DataFormatError naming its line."""

    def candidate(subject, row_prop, obj, external, steps, flags) -> CandidateStatement:
        if not subject:
            raise ValueError("a candidate row has no subject")
        if prop is not None and row_prop != prop:
            raise ValueError(f"a candidate of property {row_prop}, not {prop}")
        flags = set(flags.split(","))
        return CandidateStatement(
            subject=subject, property=row_prop, object=parse_tsv_value(obj),
            external_object=parse_tsv_value(external), path=PropertyPath.parse(steps),
            ambiguous="ambiguous" in flags, unresolved="unresolved" in flags)

    return read_tsv(path, CANDIDATE_COLUMNS, candidate)
