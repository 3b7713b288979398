"""End-to-end enrichment per property and in batch, with rates and timings.

Stage order per property: gap detection -> entity alignment -> property
alignment -> retrieval -> validation. Everything downstream of gap detection
only ever proposes values for gap subjects; that safety property is enforced
here with hard checks, not just asserted in tests.

The stages are wired once, as the methods of the run context ``Run``: it
holds the target graph, the config, the entity class and the constraint
table. ``enrich_property``, ``batch_enrich``, ``run_consistency`` and the
CLI's stage commands each build one ``Run``. An entity mapping and a class
closure depend only on the target graph and their settings, so they are kept
on the graph (``Graph.derived``), built once per target graph and spec and
shared by every run on that graph. A property's path ranking and a row's
novel count are kept there too, keyed also by their external graph (see
``Run.row_key``): a ``run_consistency`` call after a batch in the same
process reuses the batch's mappings, closures, rankings and counts.
``batch_enrich`` runs property by property, each property's gap partition
shared by its rows for every external, and folds each row into per-graph
tallies of counts and subject ids as it runs, so a row holds only counts,
statements and timings. ``run_consistency`` retrieves and validates the
known subjects only; it emits no statements, only agreement counts over
them and the novel count.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .align import PropertyPath, enumerate_paths, select_path
from .config import PipelineConfig
from .consistency import (AgreementReport, Granularity, agreement, format_rate,
                          literal_agreement)
from .errors import ConfigError
from .gaps import GapPartition, detect_gaps
from .resolve import EntityMapping, build_mapping, resolve
from .retrieve import CandidateStatement, retrieve
from .store import (EDGE_COLUMNS, Graph, Statement, Value, ValueKind, serialize_value,
                    value_sort_key, write_atomic, write_tsv)
from .validate import (ValidationOutcome, ValueTypeConstraint, load_constraints,
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
    # by identity: validation returns the retrieved objects themselves, and
    # hashing a candidate would run the Python-level path and literal hashes
    retrieved = set(map(id, candidates))
    for cand in accepted:
        if id(cand) not in retrieved:
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
    default read from ``validation.constraints`` as the run starts, so a missing
    file fails before any stage runs).

    A run keeps nothing itself. What it builds is kept on the target graph
    (``Graph.derived``): an entity mapping per mapping spec, a class closure
    per allowed-class set and settings, and per external graph and property a
    path ranking (the ``enumerate_paths`` result, see ``align``) and a novel
    count (see ``novel``), under keys built by ``row_key``. So a later run on
    the same graphs in the same process reuses them: repeated
    ``enrich_property`` calls, or ``run_consistency`` after a batch. A
    separate ``kgenrich consistency`` process loads its graphs anew and
    reuses nothing. Gap partitions are not kept; ``batch_enrich`` passes one
    property's partition from row to row.
    """

    def __init__(self, target: Graph, cfg: PipelineConfig, *,
                 entity_class: str | None = None,
                 constraints: Mapping[str, ValueTypeConstraint] | None = None) -> None:
        self.target, self.cfg, self.entity_class = target, cfg, entity_class
        if constraints is None:
            path = cfg.validation.constraints
            constraints = load_constraints(path) if path else {}
        self.constraints = constraints

    def gaps(self, prop: str) -> GapPartition:
        """Gap partition for ``prop``, limited to the entity class when the run has one."""
        gaps = self.cfg.gaps
        entity_filter = (self.entity_class, gaps.type_property) if self.entity_class else None
        return detect_gaps(self.target, prop, entity_filter,
                           no_value_sentinel=gaps.no_value_sentinel)

    def mapping(self, tag: str) -> EntityMapping:
        """The configured target -> external entity mapping for the external graph ``tag``,
        built on the target graph's first use of its spec and kept on the graph."""
        target, spec = self.target, self.cfg.mapping_for(tag)
        return target.derived(("mapping", spec), lambda: build_mapping(target, spec))

    def row_key(self, external: Graph, prop: str) -> tuple:
        """What a row's path ranking reads besides the target graph: the part of the
        ``Graph.derived`` key that the ranking and the novel count share.

        It names the external graph by a weak reference, then ``prop``, the
        entity class, ``gaps.type_property``, ``gaps.no_value_sentinel``, the
        external's mapping spec and the alignment config. The weak reference
        (``Graph.key_ref``) keeps a dropped external from living on through
        its target, and once the external is freed the target drops what it
        kept for it. These do not fix the selected path: ``select_path`` also
        reads both graphs' ``label_properties``, so ``novel`` adds the selected
        path to its key.
        """
        cfg, gaps = self.cfg, self.cfg.gaps
        return (self.target.key_ref(external), prop, self.entity_class, gaps.type_property,
                gaps.no_value_sentinel, cfg.mapping_for(external.tag), cfg.alignment)

    def align(self, external: Graph, prop: str, partition: GapPartition,
              ) -> tuple[tuple[PropertyPath, ...], PropertyPath | None]:
        """Ranked candidate paths for ``prop`` and the selected one; ``((), None)``
        when no known pair maps into the external graph.

        ``partition`` must be ``self.gaps(prop)``, which every caller in the
        package passes (batch rows, ``run_consistency``, ``kgenrich align``): the
        ranking, the ``enumerate_paths`` result as a read-only tuple, is kept on
        the target graph (``Graph.derived``) under ``row_key``, which names what
        the partition, the pairs and ``enumerate_paths`` read besides the
        target, not the partition itself. So a later call for the same property
        and external on the same graphs in the same process (another
        ``enrich_property`` call, or ``run_consistency`` after a batch) builds
        no pairs and walks no pair; a separate process gains nothing.
        ``select_path`` still runs on every call. A call that raises keeps
        nothing.
        """
        cfg, target = self.cfg, self.target

        def rank() -> tuple[PropertyPath, ...] | None:  # None: no known pair maps
            pairs = alignment_pairs(partition, self.mapping(external.tag))
            return tuple(enumerate_paths(external, pairs, cfg.alignment)) if pairs else None

        ranked = target.derived(("ranking", *self.row_key(external, prop)), rank)
        if ranked is None:
            return (), None
        return ranked, select_path(ranked, target.label(prop), external, cfg.alignment)

    def novel(self, external: Graph, prop: str, selected: PropertyPath,
              count: Callable[[], int]) -> int:
        """The number of candidates accepted on ``prop``'s gap subjects along the
        ``selected`` path in ``external``: ``count()``, called when the target graph
        keeps no such number yet.

        The number is kept under ``row_key`` and the selected path's steps, which
        together fix the candidates, plus the validation settings and the
        constraint on ``prop``, which is all that validation reads besides the
        target graph and the candidates. An enrichment row stores its
        ``s_e`` here once its safety check has passed, so ``run_consistency``
        after a batch or an ``enrich_property`` call on the same graphs
        retrieves and validates no gap subject. A row that raises keeps nothing.
        """
        return self.target.derived(
            ("novel", *self.row_key(external, prop), selected.steps, self.cfg.validation,
             self.constraints.get(prop)), count)

    def candidates(self, external: Graph, prop: str, path: PropertyPath,
                   subjects: Iterable[str]) -> list[CandidateStatement]:
        """Candidate statements for ``subjects`` along ``path`` in ``external``."""
        mapping = self.mapping(external.tag)
        return retrieve(external, resolve(mapping, subjects).mapped, prop, path, mapping)

    def validate(self, prop: str, known: Iterable[tuple[str, Value]],
                 candidates: Sequence[CandidateStatement]) -> ValidationOutcome:
        """``candidates`` validated against the ``known`` pairs and the constraint on ``prop``."""
        return validate_detailed(self.target, candidates, known, self.constraints.get(prop),
                                 self.cfg.validation)


def enrich_property(target: Graph, external: Graph, prop: str, cfg: PipelineConfig, *,
                    entity_class: str | None = None,
                    constraints: Mapping[str, ValueTypeConstraint] | None = None,
                    ) -> EnrichmentResult:
    """Run the five enrichment stages for one property against one external graph."""
    run = Run(target, cfg, entity_class=entity_class, constraints=constraints)
    return _enrich_row(run, external, prop)[0]


def _enrich_row(run: Run, external: Graph, prop: str, partition: GapPartition | None = None,
                ) -> tuple[EnrichmentResult, GapPartition, list[CandidateStatement],
                           list[CandidateStatement]]:
    """One enrichment row, with the partition, candidates and accepted candidates behind it.

    ``partition`` is ``prop``'s gap partition when the caller has it; else the
    row detects it, and the row's total time includes that.
    """
    t_start = time.monotonic()
    # built on the first row that needs its spec, so that row times the build; a
    # missing mapping is a ConfigError before any gap detection can fail
    run.mapping(external.tag)
    timings = {"entity_align": time.monotonic() - t_start}
    if partition is None:
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
    run.novel(external, prop, selected, lambda: result.s_e)  # kept for run_consistency's s_e
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
        """Union of validated statements, deduplicated across graphs, in
        ``_statement_order``; of equal statements, the first in row order is kept.

        It is merged one property at a time. A row's statements are of its
        property, sorted and distinct, so a property with statements from one
        row takes them as they are; one with statements from several rows is
        deduplicated on (subject, object) and sorted alone. Statements of
        different properties never collide, and ``_statement_order`` sorts by
        property first, so the properties concatenated in sorted order give
        the tuple that one dict over every statement and one global sort give.
        """
        by_prop: dict[str, list[tuple[Statement, ...]]] = {}
        for row in self.rows:
            if row.statements:
                by_prop.setdefault(row.property, []).append(row.statements)
        merged: list[Statement] = []
        for prop in sorted(by_prop):
            parts = by_prop[prop]
            if len(parts) == 1:
                merged += parts[0]
                continue
            firsts: dict[tuple[str, Value], Statement] = {}
            for part in parts:
                for stmt in part:
                    firsts.setdefault((stmt.subject, stmt.object), stmt)
            merged += sorted(firsts.values(), key=_statement_order)
        return tuple(merged)


class _Tally:
    """Running aggregate of non-error batch rows: (s_w, s_g, s_e) once per
    property, timings summed over every row, and the subject-id unions."""

    def __init__(self) -> None:
        self.counts: dict[str, tuple[int, int, int]] = {}
        self.timings: dict[str, float] = {}
        self.known: set[str] = set()
        self.unknown: set[str] = set()
        self.flagged: set[str] = set()
        self.enriched: set[str] = set()

    def add(self, row: EnrichmentResult, partition: GapPartition,
            candidates: Sequence[CandidateStatement],
            accepted: Sequence[CandidateStatement]) -> None:
        """Fold in one row's timings and subject ids; its counts go in by ``count``."""
        for key, seconds in row.timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + seconds
        self.known |= partition.known_subjects
        self.unknown |= partition.unknown_subjects
        self.flagged.update(c.subject for c in candidates)
        self.enriched.update(c.subject for c in accepted)

    def count(self, prop: str, s_w: int, s_g: int, s_e: int) -> None:
        """A property's counts; a repeated property's rows add no statements."""
        self.counts.setdefault(prop, (s_w, s_g, s_e))

    def row(self, graph: str) -> EnrichmentResult:
        s_w, s_g, s_e = map(sum, zip(*self.counts.values())) if self.counts else (0, 0, 0)
        return EnrichmentResult(
            property="(all)", graph=graph, status="aggregate", s_w=s_w, s_g=s_g, s_e=s_e,
            n_k=len(self.known), n_u=len(self.unknown),
            n_f=len(self.flagged), n_c=len(self.enriched), timings=self.timings)


def batch_enrich(target: Graph, externals: Sequence[Graph], properties: Sequence[str],
                 cfg: PipelineConfig, *, entity_class: str | None = None,
                 constraints: Mapping[str, ValueTypeConstraint] | None = None,
                 ) -> BatchResult:
    """Enrich every (property, external graph) combination.

    Per-property failures become error rows instead of aborting the batch.
    Rows are sorted by enrichment rate, descending, undefined rates last.
    The outer loop runs over properties and the inner one over externals, so
    a property's gap partition is detected once, by its first external's row,
    and shared by the rest. Each row is folded into its graph's tally as soon
    as it is made. Rows of different properties share no statement, and a
    row's candidates are distinct by (subject, object), so a graph's counts
    are sums of its rows' counts. With several externals, the ``(both)``
    tally counts the union of the externals' (subject, object) pairs of each
    property, a set dropped before the next property starts.
    """
    run = Run(target, cfg, entity_class=entity_class, constraints=constraints)
    rows: list[EnrichmentResult] = []
    tallies = {ext.tag: _Tally() for ext in externals}
    both = _Tally() if len(externals) > 1 else None
    for prop in properties:
        partition: GapPartition | None = None  # set by the property's first ok row
        candidate_pairs: set[tuple[str, Value]] = set()
        statement_pairs: set[tuple[str, Value]] = set()
        for external in externals:
            try:
                row, partition, candidates, accepted = _enrich_row(run, external, prop,
                                                                   partition)
            except (ConfigError, PipelineInvariantError):
                raise
            except Exception as exc:  # noqa: BLE001 - batch keeps going
                rows.append(EnrichmentResult(property=prop, graph=external.tag,
                                             status=f"error: {exc}"))
                continue
            rows.append(row)
            tally = tallies[external.tag]
            tally.add(row, partition, candidates, accepted)
            tally.count(prop, row.s_w, row.s_g, row.s_e)
            if both is not None:
                both.add(row, partition, candidates, accepted)
                candidate_pairs.update((c.subject, c.object) for c in candidates)
                statement_pairs.update((c.subject, c.object) for c in accepted)
        if both is not None and partition is not None:
            both.count(prop, len(partition.known), len(candidate_pairs), len(statement_pairs))
    rows.sort(key=lambda r: (r.r_e is None, -(r.r_e or 0.0), r.property, r.graph))

    aggregates = [tallies[ext.tag].row(ext.tag) for ext in externals]
    if both is not None:
        aggregates.append(both.row("(both)"))
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

    Retrieval and validation cover the known subjects only, and the accepted
    ones are the overlap. ``s_e``, the number accepted on gap subjects, is the
    enrichment row's novel count (``Run.novel``): kept on the target graph by
    a batch or an ``enrich_property`` call on the same graphs, else counted by
    a second pass over the gap subjects. Each candidate is retrieved and
    checked on its own, so the two passes give what one pass over both would.
    """
    run = Run(target, cfg, entity_class=entity_class, constraints=constraints)
    partition = run.gaps(prop)
    _, selected = run.align(external, prop, partition)
    if selected is None:
        raise ConfigError(f"property {prop} has no alignable path in {external.tag}")

    def validated(subjects: frozenset[str]) -> ValidationOutcome:
        return run.validate(prop, partition.known,
                            run.candidates(external, prop, selected, subjects))

    outcome = validated(partition.known_subjects)
    overlap = outcome.accepted
    if outcome.expected is ValueKind.DATE:
        report = literal_agreement(target, overlap, granularity or Granularity.YEAR)
    else:
        report = agreement(target, overlap)
    s_e = run.novel(external, prop, selected,
                    lambda: len(validated(partition.unknown_subjects).accepted))
    return ConsistencyOutcome(property=prop, expected_kind=outcome.expected,
                              s_w=len(partition.known), s_e=s_e, report=report)


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
        write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif fmt == "tsv":
        columns = list(rows[0]) + ([f"t_{key}" for key in TIMING_KEYS] if include_timings else [])
        write_tsv(path, columns, [
            *(["-" if cell is None else str(cell) for cell in row.values()]
              + ([f"{t:.2f}" for t in _timings(result).values()] if include_timings else [])
              for row, result in zip(rows, results)),
            *((f"#{key}={value}",) for key, value in sorted((summary or {}).items()))])
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def write_statements(statements: Iterable[Statement], path: str | Path) -> None:
    """Validated statements as edge TSV plus source and provenance (always validated) columns."""
    write_tsv(path, EDGE_COLUMNS + ("source", "provenance"), (
        (stmt.subject, stmt.property, serialize_value(stmt.object), stmt.source_graph,
         "validated") for stmt in statements))
