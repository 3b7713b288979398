"""Semantic validation of candidate statements.

Three independent filters, all run by ``validate_detailed``: datatype
conformance against the modal kind of the known objects, value-type
constraints (allowed classes reached through instance-of / subclass-of
closure), and a literal range rule for dates. A candidate is accepted iff
every applicable check passes and its object resolved into the target graph;
veracity is explicitly not checked, so logically consistent but factually
wrong statements pass.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import DataFormatError
from .retrieve import CandidateStatement
from .store import Graph, Value, ValueKind, serialize_value, value_kind, write_tsv

# modal-kind tie break, most specific first
KIND_PRECEDENCE = (ValueKind.ITEM, ValueKind.DATE, ValueKind.QUANTITY,
                   ValueKind.MONOLINGUAL, ValueKind.STRING, ValueKind.OTHER)

DEFAULT_CUTOFF_YEAR = 2022
DEFAULT_DEPTH_CAP = 20


class RelationMode(Enum):
    INSTANCE_OF = "instance"
    SUBCLASS_OF = "subclass"
    BOTH = "both"


class RejectReason(Enum):
    WRONG_DATATYPE = "wrong-datatype"
    WRONG_VALUE_TYPE = "wrong-value-type"
    OUT_OF_RANGE = "out-of-range"
    UNRESOLVABLE = "unresolvable"


@dataclass(frozen=True)
class ValueTypeConstraint:
    property: str
    allowed_classes: frozenset[str]
    relation_mode: RelationMode = RelationMode.BOTH
    exceptions: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.allowed_classes:
            raise ValueError("a value-type constraint needs at least one allowed class")


class ValidationVerdict(NamedTuple):
    statement: CandidateStatement
    datatype_ok: bool
    value_type_ok: bool | None
    range_ok: bool | None
    accepted: bool
    reject_reason: RejectReason | None


@dataclass(frozen=True)
class ValidationSettings:
    cutoff_year: int = DEFAULT_CUTOFF_YEAR
    depth_cap: int = DEFAULT_DEPTH_CAP
    instance_of: str = "P31"
    subclass_of: str = "P279"
    constraints: str | None = None  # path of the constraint table (``load_constraints``)


@dataclass
class ValidationOutcome:
    accepted: list[CandidateStatement]
    verdicts: list[ValidationVerdict]
    expected: ValueKind
    datatype_seconds: float = 0.0
    valuetype_seconds: float = 0.0


def infer_expected_datatype(known: Iterable[tuple[str, Value]]) -> ValueKind:
    """Modal object kind of the known pairs; ties break by kind precedence."""
    # ``value_kind`` inlined, and a list, not a Counter: ``list.count`` compares members
    # by identity in C, where a Counter calls the Python-level ``Enum.__hash__`` per pair
    item = ValueKind.ITEM
    kinds = [item if isinstance(obj, str) else obj.kind for _, obj in known]
    if not kinds:
        raise ValueError("no known statements to infer a datatype from")
    # max keeps the first of equal counts: the precedence breaks the tie
    return max(KIND_PRECEDENCE, key=kinds.count)


def allowed_class_closure(graph: Graph, allowed_classes: frozenset[str],
                          subclass_of: str = "P279",
                          depth_cap: int = DEFAULT_DEPTH_CAP) -> frozenset[str]:
    """Allowed classes plus everything reaching them via <= depth_cap subclass hops.

    Computed by reverse BFS over the subclass index; cycle-safe, and
    monotone in depth_cap so deeper caps only ever accept more.
    """
    closure = set(allowed_classes)
    frontier = deque((cls, 0) for cls in allowed_classes)
    while frontier:
        class_id, depth = frontier.popleft()
        if depth >= depth_cap:
            continue
        for sub in graph.subjects_with(subclass_of, class_id):
            if sub not in closure:
                closure.add(sub)
                frontier.append((sub, depth + 1))
    return frozenset(closure)


def _object_in_graph(graph: Graph, obj: Value) -> bool:
    return isinstance(obj, str) and graph.has_node(obj)


def _value_type_ok(graph: Graph, subject: str, obj: Value, exceptions: frozenset[str],
                   closure: frozenset[str], relations: tuple[str, ...]) -> bool:
    if subject in exceptions:
        return True
    if not _object_in_graph(graph, obj):
        return False
    for rel in relations:
        if not closure.isdisjoint(graph.objects(obj, rel)):
            return True
    return False


def validate_detailed(graph: Graph, candidates: Sequence[CandidateStatement],
                      known: Iterable[tuple[str, Value]],
                      constraint: ValueTypeConstraint | None = None,
                      settings: ValidationSettings | None = None) -> ValidationOutcome:
    """Run all applicable checks and assemble per-candidate verdicts, in candidate order.

    - Datatype, on every candidate: the object's kind is the modal kind of
      ``known`` (``infer_expected_datatype``) and the candidate is resolved.
    - Value type, given a constraint, on a resolved item: the subject is one of
      the constraint's exceptions, or the object is a node of ``graph`` with an
      edge of the mode's relations (instance-of, subclass-of or both) into the
      allowed classes' closure (``allowed_class_closure``).
    - Range, on a date: its year is before ``cutoff_year``.

    A check that does not apply is None in the verdict. A candidate is accepted
    iff it is resolved and every applicable check passes, so the accepted set is
    the intersection of the per-check pass sets. Verdicts carry the first
    failing reason in the order unresolvable -> datatype -> value type -> range;
    a failed value type on an object outside ``graph`` is unresolvable. The
    closure is kept on ``graph`` (``Graph.derived``), one per allowed-class set,
    ``subclass_of`` and ``depth_cap``, and shared by every later call.
    """
    settings = settings or ValidationSettings()
    t0 = time.monotonic()
    expected = infer_expected_datatype(known)
    kinds = [value_kind(cand.object) for cand in candidates]
    datatype_ok = [kind is expected and not cand.unresolved
                   for cand, kind in zip(candidates, kinds)]
    t1 = time.monotonic()

    if constraint is not None:
        key = ("closure", constraint.allowed_classes, settings.subclass_of, settings.depth_cap)
        closure = graph.derived(key, lambda: allowed_class_closure(graph, *key[1:]))
        exceptions = constraint.exceptions
        instance_of, subclass_of = settings.instance_of, settings.subclass_of
        relations = {RelationMode.INSTANCE_OF: (instance_of,),
                     RelationMode.SUBCLASS_OF: (subclass_of,),
                     RelationMode.BOTH: (instance_of, subclass_of)}[constraint.relation_mode]
    cutoff_year = settings.cutoff_year
    accepted = []
    verdicts = []
    for cand, kind, dt_ok in zip(candidates, kinds, datatype_ok):
        obj, unresolved = cand.object, cand.unresolved
        vt_ok: bool | None = None
        if constraint is not None and kind is ValueKind.ITEM and not unresolved:
            vt_ok = _value_type_ok(graph, cand.subject, obj, exceptions, closure, relations)
        rng_ok = obj.year < cutoff_year if kind is ValueKind.DATE else None

        if unresolved:
            reason = RejectReason.UNRESOLVABLE
        elif not dt_ok:
            reason = RejectReason.WRONG_DATATYPE
        elif vt_ok is False:  # so the subject is not exempt
            reason = (RejectReason.WRONG_VALUE_TYPE if _object_in_graph(graph, obj)
                      else RejectReason.UNRESOLVABLE)
        elif rng_ok is False:
            reason = RejectReason.OUT_OF_RANGE
        else:
            reason = None

        ok = reason is None
        verdicts.append(ValidationVerdict(cand, dt_ok, vt_ok, rng_ok, ok, reason))
        if ok:
            accepted.append(cand)
    t2 = time.monotonic()
    return ValidationOutcome(accepted=accepted, verdicts=verdicts, expected=expected,
                             datatype_seconds=t1 - t0, valuetype_seconds=t2 - t1)


# -- constraint files ---------------------------------------------------------


def load_constraints(path: str | Path) -> dict[str, ValueTypeConstraint]:
    """Read a constraint TSV: rows (property, allowed_class).

    ``#mode=instance|subclass|both`` and ``#exception=<node>`` header
    directives apply to every property in the file; spaces around the name,
    the ``=`` and the value are allowed. Any other ``#`` line is a comment.
    """
    mode = RelationMode.BOTH
    exceptions: set[str] = set()
    allowed: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                name, equals, value = (part.strip() for part in stripped[1:].partition("="))
                if equals and name == "mode":
                    try:
                        mode = RelationMode(value)
                    except ValueError:
                        raise DataFormatError(
                            f"{path}:{lineno}: unknown mode {value!r}") from None
                elif equals and name == "exception":
                    if not value:
                        raise DataFormatError(f"{path}:{lineno}: an exception needs a node id")
                    exceptions.add(value)
                continue
            fields = stripped.split("\t")
            if fields[:2] == ["property", "allowed_class"]:
                continue
            if len(fields) < 2 or not fields[0] or not fields[1]:
                raise DataFormatError(f"{path}:{lineno}: expected property<TAB>allowed_class")
            allowed.setdefault(fields[0], set()).add(fields[1])
    return {
        prop: ValueTypeConstraint(property=prop, allowed_classes=frozenset(classes),
                                  relation_mode=mode, exceptions=frozenset(exceptions))
        for prop, classes in allowed.items()
    }


def write_verdicts(verdicts: Iterable[ValidationVerdict], path: str | Path) -> None:
    write_tsv(path, ("subject", "property", "object", "datatype_ok", "value_type_ok",
                     "range_ok", "accepted", "reject_reason"), (
        (v.statement.subject, v.statement.property, serialize_value(v.statement.object),
         *("-" if ok is None else str(ok).lower()
           for ok in (v.datatype_ok, v.value_type_ok, v.range_ok, v.accepted)),
         v.reject_reason.value if v.reject_reason else "-")
        for v in verdicts))
