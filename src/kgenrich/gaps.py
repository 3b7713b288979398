"""Split the target entity set for a property into known and gap subjects."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .store import Graph, Value

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GapPartition:
    """Disjoint partition of the entity universe for one query property.

    ``known`` holds the (subject, object) statements backing the known side;
    sentinel-valued pairs are excluded from it (their subjects still count
    as known) so downstream datatype inference never sees the marker.
    """

    property: str
    known: frozenset[tuple[str, Value]]
    known_subjects: frozenset[str]
    unknown_subjects: frozenset[str]

    @property
    def entities(self) -> frozenset[str]:
        return self.known_subjects | self.unknown_subjects

    def __post_init__(self) -> None:
        if self.known_subjects & self.unknown_subjects:
            raise ValueError("known and unknown subject sets must be disjoint")


def detect_gaps(graph: Graph, prop: str,
                entity_filter: tuple[str, str] | None = None, *,
                no_value_sentinel: str | None = None) -> GapPartition:
    """Partition subjects into those with >=1 value for ``prop`` and the rest.

    ``entity_filter`` is an optional (class id, type property) pair limiting
    the universe to subjects typed into that class; without it the universe
    is every node appearing as subject of any edge. Subjects whose only
    value is the configured no-value sentinel count as known.
    """
    if entity_filter is not None:
        class_id, type_prop = entity_filter
        if not graph.has_property(type_prop):
            raise ValueError(f"type property {type_prop!r} not present in graph {graph.tag!r}")
        entities = set(graph.subjects_with(type_prop, class_id))
    else:
        entities = set(graph.subjects())

    known_pairs = set()
    known_subjects = set()
    for subj, obj in graph.statements_for(prop):
        if subj not in entities:
            continue
        known_subjects.add(subj)
        if obj == no_value_sentinel:
            continue
        known_pairs.add((subj, obj))

    if not known_subjects:
        logger.warning("property %s has no known values in graph %s; "
                       "enrichment needs a manually supplied alignment", prop, graph.tag)

    return GapPartition(
        property=prop,
        known=frozenset(known_pairs),
        known_subjects=frozenset(known_subjects),
        unknown_subjects=frozenset(entities - known_subjects),
    )
