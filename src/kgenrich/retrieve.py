"""Candidate retrieval: follow the aligned path from mapped gap subjects.

Item-valued terminals are inverse-resolved back into target-graph node ids;
externals with no inverse mapping are kept (flagged) so the report can
account for them, but they can never pass validation. Output order and
dedup choices are deterministic so identical inputs give identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping

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


def follow_path(graph: Graph, start: str, path: PropertyPath) -> Collection[Value]:
    """All terminal values reached by applying the steps in order, unordered.

    Literals reached before the final step end their branch; an unknown
    start node yields an empty collection. A one-step path returns the
    graph's stored entry, as ``Graph.objects`` does: read-only, never to be
    mutated. A longer path returns a new set.
    """
    steps = path.steps
    if not steps:
        raise ValueError("cannot follow an empty path")
    frontier = graph.objects(start, steps[0])
    for step in steps[1:]:
        reached: set[Value] = set()
        for value in frontier:
            if isinstance(value, str):
                reached.update(graph.objects(value, step))
        frontier = reached
    return frontier


def retrieve(graph: Graph, unknowns: Mapping[str, Collection[str]], prop: str,
             path: PropertyPath, mapping: EntityMapping) -> list[CandidateStatement]:
    """Collect candidate statements for each subject of ``unknowns`` from its
    mapped external ids: the gap subjects in enrichment, every subject of the
    overlap in a consistency run.

    Subjects, each subject's external ids, each walk's terminals (by
    ``value_sort_key``) and each terminal's inverse ids are processed in
    sorted order. Candidates equal in (subject, object) are merged; the first
    hit keeps its provenance fields.
    """
    found: dict[tuple[str, Value], CandidateStatement] = {}
    inverse = mapping.inverse
    for subject in sorted(unknowns):
        external_ids = unknowns[subject]
        if len(external_ids) > 1:
            external_ids = sorted(set(external_ids))
        for external_id in external_ids:
            terminals = follow_path(graph, external_id, path)
            if len(terminals) > 1:
                terminals = sorted(terminals, key=value_sort_key)
            for terminal in terminals:
                is_node = isinstance(terminal, str)
                targets = inverse.get(terminal) if is_node else None
                if targets:
                    ambiguous = len(targets) > 1
                    for resolved in sorted(targets) if ambiguous else targets:
                        key = (subject, resolved)
                        if key not in found:
                            found[key] = CandidateStatement(
                                subject, prop, resolved, terminal, path, ambiguous, False)
                else:
                    # a literal, or a node id without an inverse mapping (unresolved)
                    key = (subject, terminal)
                    if key not in found:
                        found[key] = CandidateStatement(
                            subject, prop, terminal, terminal, path, False, is_node)
    return list(found.values())


# -- candidate files ----------------------------------------------------------

CANDIDATE_COLUMNS = ("subject", "property", "object", "external_object", "path", "flags")
# what a flags cell lists, comma-separated
_FLAGS = frozenset({"-", "ambiguous", "unresolved"})


def write_candidates(candidates: Iterable[CandidateStatement], path: str | Path) -> None:
    write_tsv(path, CANDIDATE_COLUMNS, (
        (cand.subject, cand.property, serialize_value(cand.object),
         serialize_value(cand.external_object), cand.path.path_str, ",".join(
             name for name in ("ambiguous", "unresolved") if getattr(cand, name)) or "-")
        for cand in candidates))


def read_candidates(path: str | Path, prop: str | None = None) -> list[CandidateStatement]:
    """Parse a candidate TSV written by write_candidates. A row ``read_tsv`` refuses, or one
    without a subject, with a malformed path or value, with a flag other than ``-``,
    ``ambiguous`` and ``unresolved`` or, given ``prop``, of another property, is a
    DataFormatError naming its line."""

    def candidate(subject, row_prop, obj, external, steps, flags) -> CandidateStatement:
        if not subject:
            raise ValueError("a candidate row has no subject")
        if prop is not None and row_prop != prop:
            raise ValueError(f"a candidate of property {row_prop}, not {prop}")
        flags = set(flags.split(","))
        if unknown := flags - _FLAGS:
            raise ValueError(f"unknown candidate flag {min(unknown)!r}")
        return CandidateStatement(
            subject=subject, property=row_prop, object=parse_tsv_value(obj),
            external_object=parse_tsv_value(external), path=PropertyPath.parse(steps),
            ambiguous="ambiguous" in flags, unresolved="unresolved" in flags)

    return read_tsv(path, CANDIDATE_COLUMNS, candidate)
