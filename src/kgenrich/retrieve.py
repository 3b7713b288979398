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
from .errors import DataFormatError
from .resolve import EntityMapping
from .store import Graph, Value, parse_tsv_value, serialize_value, value_sort_key


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

    Exact (subject, property, object) duplicates are merged; the first hit
    in sorted processing order keeps its provenance fields.
    """
    candidates: list[CandidateStatement] = []
    seen: set[tuple[str, str, tuple]] = set()

    def emit(subject: str, obj: Value, external: Value,
             ambiguous: bool, unresolved: bool) -> None:
        key = (subject, prop, value_sort_key(obj))
        if key in seen:
            return
        seen.add(key)
        candidates.append(CandidateStatement(
            subject=subject, property=prop, object=obj, external_object=external,
            path=path, ambiguous=ambiguous, unresolved=unresolved))

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
    return candidates


# -- candidate files ----------------------------------------------------------

CANDIDATE_COLUMNS = ("subject", "property", "object", "external_object", "path", "flags")


def write_candidates(candidates: Iterable[CandidateStatement], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(CANDIDATE_COLUMNS) + "\n")
        for cand in candidates:
            flags = ",".join(name for name, on in
                             (("ambiguous", cand.ambiguous), ("unresolved", cand.unresolved))
                             if on) or "-"
            fh.write("\t".join((
                cand.subject, cand.property, serialize_value(cand.object),
                serialize_value(cand.external_object), cand.path.path_str, flags)) + "\n")


def read_candidates(path: str | Path) -> list[CandidateStatement]:
    """Parse a candidate TSV written by write_candidates.

    Blank lines are skipped; a row with too few cells or no subject is a
    DataFormatError naming its line.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if not set(CANDIDATE_COLUMNS) <= set(header):
            raise DataFormatError(f"{path}: candidate file needs columns "
                                  f"{'/'.join(CANDIDATE_COLUMNS)}; found {header}")
        col = {name: header.index(name) for name in CANDIDATE_COLUMNS}
        width = max(col.values()) + 1
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) < width or not fields[col["subject"]]:
                raise DataFormatError(f"{path}:{lineno}: a candidate row needs {width} "
                                      f"tab-separated cells and a subject; "
                                      f"found {len(fields)} cells")
            flags = set(fields[col["flags"]].split(","))
            out.append(CandidateStatement(
                subject=fields[col["subject"]],
                property=fields[col["property"]],
                object=parse_tsv_value(fields[col["object"]]),
                external_object=parse_tsv_value(fields[col["external_object"]]),
                path=PropertyPath(steps=tuple(fields[col["path"]].split("/"))),
                ambiguous="ambiguous" in flags,
                unresolved="unresolved" in flags,
            ))
    return out
