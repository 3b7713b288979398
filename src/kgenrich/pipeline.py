"""End-to-end enrichment per property and in batch, with rates and timings.

Stage order per property: gap detection -> entity alignment -> property
alignment -> retrieval -> validation. Everything downstream of gap detection
only ever proposes values for gap subjects; that safety property is enforced
here with hard checks, not just asserted in tests.

The stages are wired once, as the methods of the run context ``Run``: it
holds the target graph, the config, the entity class and the constraint
table, and builds each entity mapping and class closure once per run.
``enrich_property``, ``batch_enrich``, ``run_consistency`` and the CLI's
stage commands each build one ``Run``. ``batch_enrich`` folds each row's id
sets into per-graph tallies as it runs, so a row holds only counts,
statements and timings.
``run_consistency`` retrieves and validates once over known and gap subjects
together; it emits no statements, only agreement counts over the known part.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .align import PropertyPath, enumerate_paths, select_path
from .config import PipelineConfig
from .consistency import (AgreementReport, Granularity, agreement, format_rate,
                          literal_agreement)
from .errors import ConfigError
from .gaps import GapPartition, detect_gaps
from .resolve import EntityMapping, build_mapping, resolve
from .retrieve import CandidateStatement, retrieve
from .store import Graph, Statement, Value, ValueKind, serialize_value, value_sort_key
from .validate import (ClassClosures, ValidationOutcome, ValueTypeConstraint,
                       validate_detailed)

TIMING_KEYS = ("entity_align", "property_align", "retrieval",
               "datatype_validation", "valuetype_validation", "total")

NO_ALIGNMENT = "no-alignment"


class PipelineInvariantError(RuntimeError):
    """An emitted statement violated a pipeline safety invariant."""


@dataclass
class EnrichmentResult:
    property: str
    graph: str
    status: str = "ok"
    s_w: int = 0
    s_g: int = 0
    s_e: int = 0
    n_k: int = 0
    n_u: int = 0
    n_f: int = 0
    n_c: int = 0
    selected_path: PropertyPath | None = None
    timings: dict[str, float] = field(default_factory=dict)
    statements: tuple[Statement, ...] = ()

    @property
    def s_total(self) -> int:
        return self.s_w + self.s_e

    @property
    def r_e(self) -> float | None:
        return self.s_e / self.s_w if self.s_w else None

    @property
    def r_c(self) -> float | None:
        return self.s_e / self.s_g if self.s_g else None

    @property
    def r_r(self) -> float | None:
        return self.n_c / self.n_u if self.n_u else None


def _statement_order(stmt: Statement) -> tuple:
    return (stmt.property, stmt.subject, value_sort_key(stmt.object))


def alignment_pairs(partition: GapPartition, mapping: EntityMapping) -> set[tuple]:
    """Map known (subject, object) pairs into external-id space.

    Item objects go through the same mapping as subjects (cross product when
    either side maps to several ids); literal objects ride along unchanged.
    """
    pairs = set()
    subject_map = resolve(mapping, {s for s, _ in partition.known}).mapped
    for subj, obj in partition.known:
        subject_exts = subject_map.get(subj)
        if not subject_exts:
            continue
        if isinstance(obj, str):
            object_exts = mapping.forward.get(obj)
            if not object_exts:
                continue
            pairs.update((se, oe) for se in subject_exts for oe in object_exts)
        else:
            pairs.update((se, obj) for se in subject_exts)
    return pairs


def _check_safety(partition: GapPartition, accepted: Sequence[CandidateStatement],
                  candidates: Sequence[CandidateStatement]) -> None:
    candidate_set = set(candidates)
    for cand in accepted:
        if cand not in candidate_set:
            raise PipelineInvariantError("validated statement not among retrieved candidates")
        if cand.subject in partition.known_subjects:
            raise PipelineInvariantError(
                f"validated statement targets known subject {cand.subject}")
        if cand.subject not in partition.unknown_subjects:
            raise PipelineInvariantError(
                f"validated statement subject {cand.subject} outside the gap set")


# -- run context --------------------------------------------------------------


class Run:
    """One run's target graph, config, entity class and constraint table (by
    default the config's). The entity mapping per external tag and the class
    closure per allowed-class set are built on first use and kept, exact since
    the graph and settings are fixed within a run. Gap partitions are not kept.
    """

    def __init__(self, target: Graph, cfg: PipelineConfig, *,
                 entity_class: str | None = None,
                 constraints: Mapping[str, ValueTypeConstraint] | None = None) -> None:
        self.target, self.cfg, self.entity_class = target, cfg, entity_class
        self.constraints = cfg.load_constraint_table() if constraints is None else constraints
        self.closures = ClassClosures(target, cfg.validation)
        self._mapping: tuple[str, EntityMapping] | None = None

    def gaps(self, prop: str) -> GapPartition:
        """Gap partition for ``prop``, limited to the entity class when the run has one."""
        gaps = self.cfg.gaps
        entity_filter = (self.entity_class, gaps.type_property) if self.entity_class else None
        return detect_gaps(self.target, prop, entity_filter,
                           no_value_sentinel=gaps.no_value_sentinel)

    def mapping(self, tag: str) -> EntityMapping:
        """The configured target -> external entity mapping for the external graph ``tag``.

        Only the latest is kept: a run takes its external graphs one at a time.
        """
        if self._mapping is None or self._mapping[0] != tag:
            spec = self.cfg.mapping_for(tag)
            self._mapping = (tag, build_mapping(self.target, spec.link_property,
                                                spec.transform()))
        return self._mapping[1]

    def align(self, external: Graph, prop: str, partition: GapPartition,
              ) -> tuple[list[PropertyPath], PropertyPath | None]:
        """Ranked candidate paths for ``prop`` and the selected one; ``([], None)``
        when no known pair maps into the external graph."""
        pairs = alignment_pairs(partition, self.mapping(external.tag))
        if not pairs:
            return [], None
        ranked = enumerate_paths(external, pairs, self.cfg.alignment)
        return ranked, select_path(ranked, self.target.label(prop), external, self.cfg.alignment)

    def candidates(self, external: Graph, prop: str, path: PropertyPath,
                   subjects: Iterable[str]) -> list[CandidateStatement]:
        """Candidate statements for ``subjects`` along ``path`` in ``external``."""
        mapping = self.mapping(external.tag)
        return retrieve(external, resolve(mapping, subjects).mapped, prop, path, mapping)

    def validate(self, prop: str, known: Iterable[tuple[str, Value]],
                 candidates: Sequence[CandidateStatement]) -> ValidationOutcome:
        """``candidates`` validated against the ``known`` pairs and the constraint on ``prop``."""
        return validate_detailed(self.target, candidates, known, self.constraints.get(prop),
                                 self.cfg.validation, self.closures)


def enrich_property(target: Graph, external: Graph, prop: str, cfg: PipelineConfig, *,
                    entity_class: str | None = None,
                    constraints: Mapping[str, ValueTypeConstraint] | None = None,
                    ) -> EnrichmentResult:
    """Run the five enrichment stages for one property against one external graph."""
    run = Run(target, cfg, entity_class=entity_class, constraints=constraints)
    return _enrich_row(run, external, prop)[0]


def _enrich_row(run: Run, external: Graph, prop: str,
                ) -> tuple[EnrichmentResult, GapPartition, list[CandidateStatement],
                           list[CandidateStatement]]:
    """One enrichment row, with the partition, candidates and accepted candidates behind it."""
    t_start = time.monotonic()
    # built on an external's first row, so that row times the build; a missing
    # mapping is a ConfigError before any gap detection can fail
    run.mapping(external.tag)
    timings = {"entity_align": time.monotonic() - t_start}
    partition = run.gaps(prop)
    result = EnrichmentResult(property=prop, graph=external.tag, s_w=len(partition.known),
                              n_k=len(partition.known_subjects),
                              n_u=len(partition.unknown_subjects), timings=timings)

    t0 = time.monotonic()
    _, selected = run.align(external, prop, partition)
    timings["property_align"] = time.monotonic() - t0
    if selected is None:
        result.status = NO_ALIGNMENT
        timings["total"] = time.monotonic() - t_start
        return result, partition, [], []
    result.selected_path = selected

    t0 = time.monotonic()
    candidates = run.candidates(external, prop, selected, partition.unknown_subjects)
    timings["retrieval"] = time.monotonic() - t0
    outcome = run.validate(prop, partition.known, candidates)
    timings["datatype_validation"] = outcome.datatype_seconds
    timings["valuetype_validation"] = outcome.valuetype_seconds
    accepted = outcome.accepted
    _check_safety(partition, accepted, candidates)

    result.statements = tuple(sorted(
        (Statement(c.subject, prop, c.object, external.tag) for c in accepted),
        key=_statement_order))
    result.s_g, result.s_e = len(candidates), len(accepted)
    result.n_f = len({c.subject for c in candidates})
    result.n_c = len({c.subject for c in accepted})

    timings["total"] = time.monotonic() - t_start
    return result, partition, candidates, accepted


# -- batch --------------------------------------------------------------------


@dataclass
class BatchResult:
    rows: list[EnrichmentResult]
    aggregates: list[EnrichmentResult]
    median_novel: float | None

    @property
    def all_rows(self) -> list[EnrichmentResult]:
        return self.rows + self.aggregates

    def statements(self) -> tuple[Statement, ...]:
        """Union of validated statements, deduplicated across graphs."""
        merged: dict[tuple[str, str, Value], Statement] = {}
        for row in self.rows:
            for stmt in row.statements:
                merged.setdefault((stmt.subject, stmt.property, stmt.object), stmt)
        return tuple(sorted(merged.values(), key=_statement_order))


class _Tally:
    """Running aggregate of non-error batch rows: s_w once per property, timings, key unions."""

    def __init__(self) -> None:
        self.s_w: dict[str, int] = {}
        self.timings: dict[str, float] = {}
        self.known: set[str] = set()
        self.unknown: set[str] = set()
        self.candidate_keys: set[tuple[str, str, Value]] = set()
        self.statement_keys: set[tuple[str, str, Value]] = set()

    def add(self, row: EnrichmentResult, partition: GapPartition,
            candidates: Sequence[CandidateStatement],
            accepted: Sequence[CandidateStatement]) -> None:
        self.s_w.setdefault(row.property, row.s_w)
        for key, seconds in row.timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + seconds
        self.known |= partition.known_subjects
        self.unknown |= partition.unknown_subjects
        for keys, cands in ((self.candidate_keys, candidates), (self.statement_keys, accepted)):
            keys.update((c.subject, row.property, c.object) for c in cands)

    def row(self, graph: str) -> EnrichmentResult:
        return EnrichmentResult(
            property="(all)", graph=graph, status="aggregate",
            s_w=sum(self.s_w.values()),
            s_g=len(self.candidate_keys), s_e=len(self.statement_keys),
            n_k=len(self.known), n_u=len(self.unknown),
            n_f=len({key[0] for key in self.candidate_keys}),
            n_c=len({key[0] for key in self.statement_keys}),
            timings=self.timings)


def batch_enrich(target: Graph, externals: Sequence[Graph], properties: Sequence[str],
                 cfg: PipelineConfig, *, entity_class: str | None = None,
                 constraints: Mapping[str, ValueTypeConstraint] | None = None,
                 ) -> BatchResult:
    """Enrich every (property, external graph) combination.

    Per-property failures become error rows instead of aborting the batch.
    Rows are sorted by enrichment rate, descending, undefined rates last.
    Each row is folded into its graph's tally (and, with several externals,
    the ``(both)`` tally) as soon as it is made; the tallies become the
    appended aggregate rows, so the id sets behind a row are never kept.
    """
    run = Run(target, cfg, entity_class=entity_class, constraints=constraints)
    rows: list[EnrichmentResult] = []
    tallies = {ext.tag: _Tally() for ext in externals}
    both = [_Tally()] if len(externals) > 1 else []
    for external in externals:
        for prop in properties:
            try:
                row, partition, candidates, accepted = _enrich_row(run, external, prop)
            except (ConfigError, PipelineInvariantError):
                raise
            except Exception as exc:  # noqa: BLE001 - batch keeps going
                rows.append(EnrichmentResult(property=prop, graph=external.tag,
                                             status=f"error: {exc}"))
                continue
            rows.append(row)
            for tally in [tallies[external.tag], *both]:
                tally.add(row, partition, candidates, accepted)
    rows.sort(key=lambda r: (r.r_e is None, -(r.r_e or 0.0), r.property, r.graph))

    aggregates = [tallies[ext.tag].row(ext.tag) for ext in externals]
    aggregates += [tally.row("(both)") for tally in both]
    median_novel = statistics.median([r.s_e for r in rows]) if rows else None
    return BatchResult(rows=rows, aggregates=aggregates, median_novel=median_novel)


# -- consistency --------------------------------------------------------------


@dataclass
class ConsistencyOutcome:
    property: str
    expected_kind: ValueKind
    s_w: int
    s_e: int
    report: AgreementReport

    def report_dict(self) -> dict:
        rep = self.report
        out: dict = {"property": self.property, "expected_kind": self.expected_kind.value,
                     "s_w": self.s_w, "s_e": self.s_e, "s_overlap": rep.s_overlap,
                     "s_agree": rep.s_agree, "s_disagree": rep.s_disagree,
                     "r_agree": rep.r_agree_str}
        if rep.granularity is not None:
            out["granularity"] = rep.granularity.value
            out["skipped_non_date"] = rep.skipped
        return out


def run_consistency(target: Graph, external: Graph, prop: str, cfg: PipelineConfig,
                    granularity: Granularity | None = None, *,
                    entity_class: str | None = None,
                    constraints: Mapping[str, ValueTypeConstraint] | None = None,
                    ) -> ConsistencyOutcome:
    """Overlap-mode run: compare validated values on known subjects with the target's.

    One retrieval and validation pass covers known and gap subjects alike;
    each candidate is checked on its own, so the known part is the overlap
    and the size of the gap part is s_e, exactly as two passes would give.
    """
    run = Run(target, cfg, entity_class=entity_class, constraints=constraints)
    partition = run.gaps(prop)
    _, selected = run.align(external, prop, partition)
    if selected is None:
        raise ConfigError(f"property {prop} has no alignable path in {external.tag}")
    validated = run.validate(prop, partition.known,
                             run.candidates(external, prop, selected, partition.entities))
    overlap = [c for c in validated.accepted if c.subject in partition.known_subjects]
    if validated.expected is ValueKind.DATE:
        report = literal_agreement(target, overlap, granularity or Granularity.YEAR)
    else:
        report = agreement(target, overlap)
    return ConsistencyOutcome(property=prop, expected_kind=validated.expected,
                              s_w=len(partition.known),
                              s_e=len(validated.accepted) - len(overlap), report=report)


# -- reporting ----------------------------------------------------------------

def _report_fields(result: EnrichmentResult) -> dict:
    """One report row in column order: counts, rates rendered, ``None`` for no path."""
    return {
        "graph": result.graph, "property": result.property, "status": result.status,
        "path": result.selected_path.path_str if result.selected_path else None,
        "s_w": result.s_w, "s_g": result.s_g, "s_e": result.s_e,
        "s_total": result.s_total,
        "n_k": result.n_k, "n_u": result.n_u, "n_f": result.n_f, "n_c": result.n_c,
        "r_e": format_rate(result.s_e, result.s_w),
        "r_c": format_rate(result.s_e, result.s_g),
        "r_r": format_rate(result.n_c, result.n_u),
    }


def _timings(result: EnrichmentResult) -> dict[str, float]:
    return {key: result.timings.get(key, 0.0) for key in TIMING_KEYS}


def emit_report(results: Sequence[EnrichmentResult], fmt: str, path: str | Path, *,
                include_timings: bool = True, summary: Mapping | None = None) -> Path:
    """Write the run report; identical inputs give identical bytes.

    Rates are rendered to two decimal places; undefined rates (zero
    denominator) render as '-'; missing timings as 0.00.
    """
    if not results:
        raise ValueError("emit_report needs at least one result")
    path = Path(path)
    rows = [_report_fields(r) for r in results]
    if fmt == "json":
        if include_timings:
            for row, result in zip(rows, results):
                row["timings"] = {key: round(t, 2) for key, t in _timings(result).items()}
        doc = {"results": rows}
        if summary:
            doc["summary"] = dict(sorted(summary.items()))
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    elif fmt == "tsv":
        columns = list(rows[0]) + ([f"t_{key}" for key in TIMING_KEYS] if include_timings else [])
        lines = ["\t".join(columns)]
        for row, result in zip(rows, results):
            cells = ["-" if cell is None else str(cell) for cell in row.values()]
            if include_timings:
                cells += [f"{t:.2f}" for t in _timings(result).values()]
            lines.append("\t".join(cells))
        for key, value in sorted((summary or {}).items()):
            lines.append(f"#{key}={value}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def write_statements(statements: Iterable[Statement], path: str | Path) -> None:
    """Validated statements as edge TSV plus source and provenance (always validated) columns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node1\tlabel\tnode2\tsource\tprovenance\n")
        for stmt in statements:
            fh.write("\t".join((
                stmt.subject, stmt.property, serialize_value(stmt.object),
                stmt.source_graph, "validated")) + "\n")
