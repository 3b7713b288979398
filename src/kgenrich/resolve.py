"""Entity resolution between the target graph and an external graph.

Mappings are built from identifier-link edges in the target graph (an
external-id property or a sitelink pseudo-property). Link values are turned
into external node ids by a literal prefix/suffix rewrite with
percent-encoded spaces. Both sides of a mapping are node ids; the external
side is resolved against the external graph only at query time. A mapping
depends only on the target graph and its ``MappingSpec``; each id maps to a
sorted tuple of ids, most often a 1-tuple (48 B, against 216 B for a frozenset).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .store import Graph, Value, ValueKind


@dataclass(frozen=True)
class MappingSpec:
    """An external graph's mapping: ``link_property`` values rewritten as
    prefix + percent-encoded(value) + suffix. Frozen, so that it can key the
    mapping kept on a target graph."""

    link_property: str
    prefix: str = ""
    suffix: str = ""

    def apply(self, value: str) -> str:
        encoded = value.strip().replace(" ", "%20")
        if not encoded:
            raise ValueError("empty link value")
        return f"{self.prefix}{encoded}{self.suffix}"


@dataclass(frozen=True)
class EntityMapping:
    link_property: str
    forward: Mapping[str, tuple[str, ...]]
    inverse: Mapping[str, tuple[str, ...]]
    skipped: int = 0


@dataclass(frozen=True)
class Resolution:
    mapped: Mapping[str, tuple[str, ...]]
    coverage: float


@dataclass(frozen=True)
class InverseResolution:
    mapped: Mapping[str, tuple[str, ...]]
    ambiguous: frozenset[str] = field(default_factory=frozenset)


def _link_value(obj: Value) -> str | None:
    if isinstance(obj, str):
        return obj
    if obj.kind in (ValueKind.STRING, ValueKind.MONOLINGUAL, ValueKind.OTHER):
        return obj.text
    return None


def build_mapping(target: Graph, spec: MappingSpec) -> EntityMapping:
    """Collect ``spec.link_property`` edges into forward/inverse id maps, each
    id's ids a sorted tuple.

    Values the rewrite rejects (empty, or non-string-shaped literals) are
    skipped and counted, never fatal.
    """
    forward: dict[str, set[str]] = {}
    inverse: dict[str, set[str]] = {}
    skipped = 0
    for subj, obj in target.statements_for(spec.link_property):
        raw = _link_value(obj)
        if raw is None:
            skipped += 1
            continue
        try:
            external_id = spec.apply(raw)
        except ValueError:
            skipped += 1
            continue
        forward.setdefault(subj, set()).add(external_id)
        inverse.setdefault(external_id, set()).add(subj)
    return EntityMapping(
        link_property=spec.link_property,
        forward={n: tuple(sorted(ids)) for n, ids in forward.items()},
        inverse={e: tuple(sorted(ids)) for e, ids in inverse.items()},
        skipped=skipped,
    )


def resolve(mapping: EntityMapping, nodes: Iterable[str]) -> Resolution:
    """Forward-map the given nodes; coverage = mapped / |nodes|."""
    nodes = set(nodes)
    mapped = {n: mapping.forward[n] for n in nodes if n in mapping.forward}
    coverage = len(mapped) / len(nodes) if nodes else 0.0
    return Resolution(mapped=mapped, coverage=coverage)


def inverse_resolve(mapping: EntityMapping, externals: Iterable[str]) -> InverseResolution:
    """Transpose lookup; ids linked by several target nodes are flagged ambiguous."""
    mapped = {}
    ambiguous = set()
    for ext in set(externals):
        targets = mapping.inverse.get(ext)
        if targets is None:
            continue
        mapped[ext] = targets
        if len(targets) > 1:
            ambiguous.add(ext)
    return InverseResolution(mapped=mapped, ambiguous=frozenset(ambiguous))
