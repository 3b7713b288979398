"""Immutable in-memory knowledge graphs loaded from N-Triples or edge-TSV.

A node is its id: a plain string, the same in every graph, so nodes of two
graphs compare and hash as their ids do and every index key hashes in C. A
value is a node id or a ``Literal``. A graph's edges are fixed when it is
built, by a loader or by ``Graph(tag, edges)``. It stores them deduplicated
in a subject->property->objects index, and each edge into a node id once
more in a node->property->subjects index. An edge into a literal is in the
subject index only: a literal's in-edges are built by one scan of it on the
graph's first literal query and kept, since most graphs are never asked
about a literal. An index entry with one member is a 1-tuple and becomes a
set only when a second distinct member arrives, since most entries never get
one. ``statements_for`` (all pairs of one property) is a scan over the
subject index, and the edge counter is the one in ``Graph.stats``. A node's
label is read from its label edges when asked for, by a rule that no edge
order changes. Pipeline stages emit separate statement sets. What is computed
from a graph (the literal in-edges, an entity mapping, a class closure, or a
path ranking, which also reads an external graph) is built once per key
through ``Graph.derived`` and kept on the graph.

IRIs are shortened through a configurable prefix table (unknown namespaces
keep the full IRI). Edge-TSV carries no datatypes, so literal kinds are
inferred from the lexical shape of the ``node2`` field; N-Triples literals
are classified by their explicit datatype.

Each load call keeps term tables that map the raw text of a term to its
parsed form: a subject, property or IRI token to its shortened id, an object
field to its ``Value``. The prefix scan and the lexical classification
therefore run once per distinct term, and equal literals share one
``Literal``. One more table maps every node id and property id to the first
string object seen with that text, so all index keys and members that spell
one id are one shared string rather than a copy per edge. Each table hands
out its term inside a 1-tuple made once per distinct term, and every lone
index entry of that term is that one tuple, not a 1-tuple per entry
(hash-consing): a tuple is immutable, and a second member replaces the entry
with a set rather than changing the tuple. ``Graph(tag, edges)`` and the
literal in-edges build their own 1-tuples. All the tables are dropped when
the call returns. Interpreter string interning is not used: interned strings
are immortal on Python 3.12, so a dropped graph's ids would never be freed.

``Literal`` is a named tuple of its seven fields: construction, equality and
hashing run in C, and there is no per-instance ``__dict__``. A literal
equals the plain tuple of its fields, so no index mixes the two, and
literals are ordered only through ``value_sort_key``.
"""

from __future__ import annotations

import calendar
import math
import os
import re
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from types import MappingProxyType
from typing import (Callable, Collection, Hashable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence, TypeVar, Union)

from .errors import DataFormatError

DEFAULT_LABEL_PROPERTIES = ("label", "rdfs:label")
DEFAULT_MALFORMED_THRESHOLD = 0.10
EDGE_COLUMNS = ("node1", "label", "node2")


class ValueKind(Enum):
    ITEM = "item"
    STRING = "string"
    MONOLINGUAL = "monolingual"
    DATE = "date"
    QUANTITY = "quantity"
    OTHER = "other"


class Literal(NamedTuple):
    """A typed literal value; value-equal literals from different serializations are equal."""

    kind: ValueKind
    text: str | None = None
    language: str | None = None
    year: int | None = None
    month: int | None = None
    day: int | None = None
    magnitude: float | None = None

    @property
    def precision(self) -> str | None:
        """A date's finest field given ("year", "month" or "day"); None for other kinds."""
        if self.kind is not ValueKind.DATE:
            return None
        return "year" if self.month is None else "month" if self.day is None else "day"

    @staticmethod
    def string(text: str) -> "Literal":
        return Literal(ValueKind.STRING, text)

    @staticmethod
    def monolingual(text: str, language: str) -> "Literal":
        if not language:
            raise ValueError("monolingual text requires a language tag")
        return Literal(ValueKind.MONOLINGUAL, text, language)

    @staticmethod
    def date(year: int, month: int | None = None, day: int | None = None) -> "Literal":
        """A date whose precision is its finest field given; ValueError for a day
        without a month, a month outside 1..12 or a day its month does not have."""
        if day is not None and month is None:
            raise ValueError("a date with a day needs a month")
        if month is not None and not 1 <= month <= 12:
            raise ValueError(f"month {month} is not in 1..12")
        if day is not None and not 1 <= day <= _days_in_month(year, month):
            raise ValueError(f"month {month} of {year} has no day {day}")
        return Literal(ValueKind.DATE, None, None, year, month, day)

    @staticmethod
    def quantity(magnitude: float) -> "Literal":
        magnitude = float(magnitude)
        if not math.isfinite(magnitude):
            raise ValueError("quantity magnitude must be finite")
        return Literal(ValueKind.QUANTITY, None, None, None, None, None, magnitude)

    @staticmethod
    def other(text: str) -> "Literal":
        return Literal(ValueKind.OTHER, text)


# a str is a node id
Value = Union[str, Literal]


def value_kind(value: Value) -> ValueKind:
    return ValueKind.ITEM if isinstance(value, str) else value.kind


def value_sort_key(value: Value) -> tuple:
    """Sort key of a value; node ids sort first. It only orders: values are
    identified by equality, and a literal's key holds every field it compares.
    """
    if isinstance(value, str):
        return (0, value)
    return (1, value.kind.value, value.text or "", value.year or 0,
            value.month or 0, value.day or 0, value.magnitude or 0.0,
            value.language or "")


@dataclass(frozen=True, slots=True)
class Statement:
    subject: str
    property: str
    object: Value
    source_graph: str

    def __post_init__(self) -> None:
        if not self.property:
            raise ValueError("statement property must be non-empty")


def local_name(identifier: str) -> str:
    """Local part of an id: everything after the last '/', '#', or ':'."""
    tail = re.split(r"[/#:]", identifier)[-1]
    return tail or identifier


class PrefixTable:
    """Shortens full IRIs into CURIE-like tokens.

    Prefix keys are given without the trailing colon; the empty prefix
    produces bare local names (Wikidata-style "Q42"). Longest namespace
    wins; unknown namespaces keep the full IRI.
    """

    def __init__(self, prefixes: Mapping[str, str] | None = None):
        table = {}
        for prefix, namespace in (prefixes or {}).items():
            table[prefix.rstrip(":")] = namespace
        self._by_length = sorted(table.items(), key=lambda kv: -len(kv[1]))

    def shorten(self, iri: str) -> str:
        for prefix, namespace in self._by_length:
            if iri.startswith(namespace):
                local = iri[len(namespace):]
                if not local:
                    continue
                return local if prefix == "" else f"{prefix}:{local}"
        return iri


@dataclass
class LoadStats:
    lines: int = 0
    edges: int = 0
    duplicates: int = 0
    skipped: int = 0
    first_bad_lineno: int = 0
    first_bad_text: str = ""

    def skip(self, lineno: int, text: str) -> None:
        """Count one malformed line, remembering the first."""
        self.skipped += 1
        if self.first_bad_lineno == 0:
            self.first_bad_lineno = lineno
            self.first_bad_text = text


_T = TypeVar("_T")

# what a query returns on a miss; shared, and read-only like every query result
_NO_VALUES: tuple = ()
_NO_EDGES: Mapping = MappingProxyType({})
# the ``Graph.derived`` key of a graph's literal in-edges
_LITERAL_IN_EDGES = ("literal in-edges",)


def _label_rank(literal: Literal) -> tuple:
    """Untagged text first, then the tag ``en``, then the other tags in order; then the text."""
    language = literal.language
    return (language is not None, language != "en", language or "", literal.text)


def _insert(index: dict, key: Hashable, prop: str, member: Hashable) -> bool:
    """Put ``member`` into ``index[key][prop]``, a 1-tuple until a second distinct
    member makes it a set; False when it was there already. Get-then-insert: an
    insert allocates only the containers it keeps."""
    by_prop = index.get(key)
    if by_prop is None:
        index[key] = {prop: (member,)}
        return True
    members = by_prop.get(prop)
    if members is None:
        by_prop[prop] = (member,)
    elif member in members:
        return False
    elif type(members) is tuple:
        by_prop[prop] = {members[0], member}
    else:
        members.add(member)
    return True


class Graph:
    """Indexed, deduplicated edge set over node ids.

    ``_spo`` maps subject -> property -> objects and holds every edge.
    ``_osp`` maps node id -> property -> subjects and holds every edge into a
    node id, so it also answers which ids are nodes. An edge into a literal
    is not in ``_osp``: the literal in-edges, with the same layout, are built
    by one scan of ``_spo`` on the first ``in_edges``, ``subjects_with`` or
    ``literals`` call about a literal, and kept through ``derived``. The
    first member of an entry is stored as a 1-tuple (48 B, against 216 B for
    a set); a second distinct member turns the entry into a set. Most entries
    keep one member. A loaded graph's lone entries of one term are one shared
    1-tuple (see the module docstring), so an entry's identity means nothing;
    the constructor and the literal in-edges make a 1-tuple per entry.

    The edges are fixed when the graph is built: by the loaders, whose line
    loop inlines the constructor's insert, or by ``Graph(tag, edges)``. No
    method adds or removes one. The query methods return the stored entries,
    or a shared empty constant on a miss, so callers get read-only
    collections: iterate them, test membership or copy them, never mutate
    them.

    ``derived`` keeps results computed from the graph, one per key, for as
    long as the graph lives. A key names everything besides the graph that
    its result depends on. A path ranking (``pipeline.Run.align``) also
    depends on an external graph: its key names that graph by a weak
    reference, so the target does not keep it alive. A dropped external's
    ranking stays until the target is freed, since no later key equals a
    dead reference.
    A kept result must not refer to its graph: a ``Graph`` holds no reference
    cycles, so a dropped graph is freed by refcounting alone. Threads that
    share a graph may each build a result on its first use; the builds are
    equal, and the last one is kept.
    """

    def __init__(self, tag: str, edges: Iterable[tuple[str, str, Value]] = (),
                 label_properties: Iterable[str] = DEFAULT_LABEL_PROPERTIES):
        """A graph of ``edges``, each (subject, property, object): a string object is
        a node id, a ``Literal`` a literal value. A repeated edge is counted in
        ``stats.duplicates``, every other one in ``stats.edges``; an empty subject,
        property or object is a ValueError."""
        self.tag = tag
        self.label_properties = tuple(label_properties)
        self.stats = stats = LoadStats()
        self._spo: dict[str, dict[str, tuple[Value] | set[Value]]] = {}
        self._osp: dict[str, dict[str, tuple[str] | set[str]]] = {}
        self._derived: dict[Hashable, object] = {}
        for subject, prop, obj in edges:
            if not prop:
                raise ValueError("property must be non-empty")
            if not subject or not obj:
                raise ValueError("node id must be non-empty")
            if not _insert(self._spo, subject, prop, obj):
                stats.duplicates += 1
                continue
            if isinstance(obj, str):
                _insert(self._osp, obj, prop, subject)
            stats.edges += 1

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The result kept under ``key``: ``build()``, called the first time ``key``
        is asked for. ``key`` must name everything besides the graph that the
        result depends on."""
        derived = self._derived
        if key not in derived:
            derived[key] = build()
        return derived[key]

    def _literal_in_edges(self) -> Mapping[Literal, Mapping[str, Collection[str]]]:
        return self.derived(_LITERAL_IN_EDGES, self._index_literals)

    def _index_literals(self) -> dict[Literal, dict[str, tuple[str] | set[str]]]:
        """Literal -> property -> subjects, in ``_osp``'s layout, by one scan of ``_spo``."""
        index: dict[Literal, dict[str, tuple[str] | set[str]]] = {}
        for subject, by_prop in self._spo.items():
            for prop, objs in by_prop.items():
                for obj in objs:
                    if not isinstance(obj, str):
                        _insert(index, obj, prop, subject)
        return index

    # -- queries -----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.stats.edges

    @property
    def node_count(self) -> int:
        """Distinct node ids that are a subject or an object of some edge."""
        spo = self._spo
        return len(spo) + sum(1 for obj in self._osp if obj not in spo)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._spo or node_id in self._osp

    def objects(self, subject: str, prop: str) -> Collection[Value]:
        """Objects of (subject, property), read-only; empty if none."""
        return self._spo.get(subject, _NO_EDGES).get(prop, _NO_VALUES)

    def out_edges(self, subject: str) -> Mapping[str, Collection[Value]]:
        """Property -> objects of ``subject``, read-only; empty if none."""
        return self._spo.get(subject, _NO_EDGES)

    def in_edges(self, obj: Value) -> Mapping[str, Collection[str]]:
        """Property -> subjects with an edge into ``obj``, read-only; empty if none."""
        index = self._osp if isinstance(obj, str) else self._literal_in_edges()
        return index.get(obj, _NO_EDGES)

    def subjects(self) -> Iterator[str]:
        """All node ids appearing as subject of at least one edge."""
        return iter(self._spo)

    def literals(self) -> Iterator[Literal]:
        """Each distinct literal object of some edge, once."""
        return iter(self._literal_in_edges())

    def statements_for(self, prop: str) -> list[tuple[str, Value]]:
        """Every (subject, object) pair of ``prop``, by one scan of the subject index."""
        return [(subject, obj) for subject, by_prop in self._spo.items()
                for obj in by_prop.get(prop, ())]

    def has_property(self, prop: str) -> bool:
        return any(prop in by_prop for by_prop in self._spo.values())

    def subjects_with(self, prop: str, obj: Value) -> Collection[str]:
        """Subjects with a ``prop`` edge into ``obj``, read-only; empty if none."""
        return self.in_edges(obj).get(prop, _NO_VALUES)

    def edges(self) -> Iterator[tuple[str, str, Value]]:
        for subject, by_prop in self._spo.items():
            for prop, objs in by_prop.items():
                for obj in objs:
                    yield subject, prop, obj

    def label(self, node_id: str) -> str:
        """Display label, else the id's local name, else the id.

        The label is the text of a literal with text under the first of
        ``label_properties`` that ``node_id`` has one under; of several, the
        first by ``_label_rank``. So no edge order changes it.
        """
        out = self._spo.get(node_id, _NO_EDGES)
        for prop in self.label_properties:
            texts = [obj for obj in out.get(prop, ()) if isinstance(obj, Literal) and obj.text]
            if texts:
                return min(texts, key=_label_rank).text
        return local_name(node_id)


# -- N-Triples ---------------------------------------------------------------

_XSD = "http://www.w3.org/2001/XMLSchema#"
_NUMERIC_XSD = {
    "integer", "decimal", "double", "float", "int", "long", "short", "byte",
    "nonNegativeInteger", "positiveInteger", "negativeInteger",
    "nonPositiveInteger", "unsignedLong", "unsignedInt", "unsignedShort",
    "unsignedByte",
}

_NT_LINE = re.compile(
    r'^\s*'
    r'(?P<s><[^<>\s]+>|_:\S+)\s+'
    r'(?P<p><[^<>\s]+>)\s+'
    r'(?P<o><[^<>\s]+>|_:\S+|"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9-]*|\^\^<[^<>\s]+>)?)'
    r'\s*\.\s*(?:#.*)?$'
)
_NT_LITERAL = re.compile(
    r'^"(?P<lex>(?:[^"\\]|\\.)*)"(?:@(?P<lang>[A-Za-z][A-Za-z0-9-]*)|\^\^<(?P<dt>[^<>\s]+)>)?$'
)

# a year of four or more digits, then an optional month, then an optional day and time
_DATE = re.compile(r"^(-?\d{4,})(?:-(\d{2})(?:-(\d{2})(?:T\S*)?)?)?$")

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}
# a backslash and then 4 hex digits after u, 8 after U, or any other character;
# a backslash that matches none of them matches alone, and is malformed
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([^uU]))?")


def _unescape_match(m: re.Match) -> str:
    short, long, char = m.groups()
    if char is not None:
        return _ESCAPES.get(char, char)
    digits = short or long
    if digits is not None:
        code = int(digits, 16)
        if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
            return chr(code)
    raise ValueError(f"malformed escape {m.group()!r} in {m.string!r}")


def _unescape(text: str) -> str:
    """Decode backslash escapes; ValueError on a malformed one.

    Malformed: a backslash ending the text, a \\u or \\U escape without
    exactly 4 or 8 hex digits, or one naming a surrogate or a code point
    beyond U+10FFFF (neither can be written back out as UTF-8).
    """
    return _ESCAPE.sub(_unescape_match, text) if "\\" in text else text


def _days_in_month(year: int, month: int) -> int:
    if month == 2:
        return 29 if calendar.isleap(year) else 28
    return 30 if month in (4, 6, 9, 11) else 31


def _parse_date_lexical(lex: str) -> Literal | None:
    """Day, month or year precision date; None for other text or an impossible date."""
    m = _DATE.match(lex)
    if m is None:
        return None
    year, month, day = m.groups()
    try:
        return Literal.date(int(year), month and int(month), day and int(day))
    except ValueError:
        return None


def _nt_literal(token: str) -> Literal | None:
    """The literal an N-Triples object token denotes, classified by its datatype;
    None when the token is an IRI or a blank node."""
    m = _NT_LITERAL.match(token)
    if m is None:
        return None
    lex, lang, datatype = m.group("lex"), m.group("lang"), m.group("dt")
    text = _unescape(lex)
    if lang:
        return Literal.monolingual(text, lang)
    if datatype is None or datatype == _XSD + "string":
        return Literal.string(text)
    if datatype.startswith(_XSD):
        local = datatype[len(_XSD):]
        if local in ("date", "dateTime", "gYear", "gYearMonth"):
            parsed = _parse_date_lexical(text)
            if parsed is not None:
                return parsed
            return Literal.other(text)
        if local in _NUMERIC_XSD:
            try:
                return Literal.quantity(float(text))
            except ValueError:
                return Literal.other(text)
    return Literal.other(text)


class _Terms(dict):
    """Raw term text -> its parsed form, parsed on first sight only.

    A parse that raises is not stored, so every line carrying the bad text
    raises (and is skipped) on its own.
    """

    def __init__(self, parse: Callable[[str], object]):
        super().__init__()
        self._parse = parse

    def __missing__(self, text: str):
        parsed = self[text] = self._parse(text)
        return parsed


# what can begin an ignored line: "#" and each character str.strip() removes (all below U+3001)
_SPACE_OR_HASH = frozenset(c for c in map(chr, range(0x3001)) if c.isspace() or c == "#")


def _load(path: str | Path, graph: Graph, malformed_threshold: float,
          columns: Sequence[str] | None, term_id: Callable[[str], str],
          literal: Callable[[str], Literal | None]) -> Graph:
    """The line loop of both loaders. A line's cells are an edge TSV's tab-separated
    fields under the header's ``columns``, or ``_NT_LINE``'s groups when ``columns`` is
    None. ``term_id`` maps a subject or property token to its id, ``literal`` an object
    token to its literal, or to None for a node.

    A blank line, or one whose first non-space character is ``#``, is ignored. Any
    other line is considered, and malformed (counted and skipped) if it has no cells or
    too few, an empty subject, property or object, or an object that does not parse.
    Over ``malformed_threshold`` of the considered lines malformed is a DataFormatError.

    ``graph`` is new and empty. Each edge goes into its indexes as ``Graph(tag, edges)``
    would put it, by the same insert written out in the loop, except that a new lone
    entry is the term table's shared 1-tuple of its member. The edge and duplicate
    counts are added to ``graph.stats`` once at the end.
    """
    stats, spo, osp = graph.stats, graph._spo, graph._osp
    # every table hands out a 1-tuple of the term, shared by each lone entry of the term
    ids = _Terms(lambda text: (text,))
    terms = _Terms(lambda token: ids[term_id(token)])
    values = _Terms(lambda token: terms[token] if (parsed := literal(token)) is None
                    else (parsed,))
    considered = lineno = edges = duplicates = 0
    with open(path, encoding="utf-8") as fh:
        keys = ("s", "p", "o")
        if columns is not None:
            header_line = fh.readline()
            if not header_line:
                return graph
            keys, lineno = _column_indexes(path, header_line, columns), 1
        subject_key, prop_key, object_key = keys
        for lineno, line in enumerate(fh, lineno + 1):
            text = line.rstrip("\n")
            if not text or text[0] in _SPACE_OR_HASH:
                stripped = text.strip()
                if not stripped or stripped[0] == "#":
                    continue
            considered += 1
            cells = _NT_LINE.match(text) if columns is None else text.split("\t")
            try:  # no match is None, a TypeError to subscript; a short row an IndexError
                subject, prop, token = cells[subject_key], cells[prop_key], cells[object_key]
            except (TypeError, IndexError):
                subject = prop = token = ""
            try:
                one = values[token] if subject and prop and token else None
            except ValueError:
                one = None
            if one is None:
                stats.skip(lineno, text)
                continue
            # ``_insert`` written out twice, as ``Graph.__init__`` calls it, but with the
            # term tables' shared 1-tuples. Kept inline for the cold-load time it saves
            # (ROADMAP item 7, BENCH_31.json). The constructor's emptiness checks hold here
            subject_one, (prop,) = terms[subject], terms[prop]
            subject, obj = subject_one[0], one[0]
            by_prop = spo.get(subject)
            if by_prop is None:
                by_prop = spo[subject] = {}
            objs = by_prop.get(prop)
            if objs is None:
                by_prop[prop] = one
            elif obj in objs:
                duplicates += 1
                continue
            elif type(objs) is tuple:
                by_prop[prop] = {objs[0], obj}
            else:
                objs.add(obj)
            edges += 1
            if isinstance(obj, str):
                into = osp.get(obj)
                if into is None:
                    osp[obj] = {prop: subject_one}
                else:
                    subjs = into.get(prop)
                    if subjs is None:
                        into[prop] = subject_one
                    elif type(subjs) is tuple:
                        into[prop] = {subjs[0], subject}
                    else:
                        subjs.add(subject)
    stats.lines = lineno
    stats.edges += edges
    stats.duplicates += duplicates
    if considered and stats.skipped / considered > malformed_threshold:
        raise DataFormatError(f"{path}: {stats.skipped} of {considered} lines malformed "
                              f"(> {malformed_threshold:.0%} threshold); first at line "
                              f"{stats.first_bad_lineno}: {stats.first_bad_text!r}")
    return graph


def load_ntriples(path: str | Path, tag: str, *,
                  prefixes: Mapping[str, str] | None = None,
                  label_properties: Iterable[str] = DEFAULT_LABEL_PROPERTIES,
                  malformed_threshold: float = DEFAULT_MALFORMED_THRESHOLD) -> Graph:
    """Load a UTF-8 N-Triples file into a fully indexed graph (see ``_load``)."""
    table = PrefixTable(prefixes)
    return _load(path, Graph(tag, label_properties=label_properties), malformed_threshold,
                 None, lambda token: _nt_term_id(token, table), _nt_literal)


def _nt_term_id(token: str, table: PrefixTable) -> str:
    if token.startswith("<"):
        return table.shorten(token[1:-1])
    return token  # blank node label, kept verbatim


# -- edge TSV ----------------------------------------------------------------

_TSV_NODE_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*(?::[^\s]+)?$")
# a year of more than four digits is a date only with a month: alone it is a quantity
_TSV_DATE = re.compile(r"^-?(?:\d{4}|\d{4,}-\d{2}(?:-\d{2})?)$")
# after the KGTK date marker a date's year has any width
_TSV_MARKED_DATE = re.compile(r"^\^-?\d{4,}(?:-\d{2}){0,2}$")
_TSV_NUMBER = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")
_TSV_MONOLINGUAL = re.compile(r"^'(?P<text>(?:[^'\\]|\\.)*)'@(?P<lang>[A-Za-z][A-Za-z0-9-]*)$")


def _tsv_literal(text: str) -> Literal | None:
    """Classify a ``node2`` field by lexical shape; None when it names a node.

    Quoted -> string, 'x'@lang -> monolingual, ISO date (or ``^`` and an ISO
    date) -> date, numeric -> quantity, id-shaped -> None; anything else
    becomes an Other literal.
    """
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return Literal.string(_unescape(text[1:-1]))
    m = _TSV_MONOLINGUAL.match(text)
    if m:
        return Literal.monolingual(_unescape(m.group("text")), m.group("lang"))
    marked = text.startswith("^")
    if (_TSV_MARKED_DATE if marked else _TSV_DATE).match(text):
        parsed = _parse_date_lexical(text[1:] if marked else text)
        if parsed is not None:
            return parsed
    if _TSV_NUMBER.match(text):
        return Literal.quantity(float(text))
    if _TSV_NODE_ID.match(text) or "://" in text:
        return None
    return Literal.other(text)


def parse_tsv_value(text: str) -> Value:
    """The value a ``node2`` field denotes; an id-shaped field is a node id, as is."""
    literal = _tsv_literal(text)
    return text if literal is None else literal


def load_edge_tsv(path: str | Path, tag: str, *,
                  prefixes: Mapping[str, str] | None = None,
                  label_properties: Iterable[str] = DEFAULT_LABEL_PROPERTIES,
                  malformed_threshold: float = DEFAULT_MALFORMED_THRESHOLD) -> Graph:
    """Load a header-first edge TSV (columns node1, label, node2, id optional; see ``_load``).

    A ``node2`` field is classified on its raw text, so an IRI whose
    shortened form looks like a date is still a node; only the shortened id
    is stored.
    """
    return _load(path, Graph(tag, label_properties=label_properties), malformed_threshold,
                 EDGE_COLUMNS, PrefixTable(prefixes).shorten, _tsv_literal)


def _escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"').replace("'", "\\'")
            .replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r"))


def _format_year(year: int) -> str:
    return f"-{abs(year):04d}" if year < 0 else f"{year:04d}"


def serialize_value(value: Value) -> str:
    """Render a value into the edge-TSV ``node2`` lexicon.

    Inverse of parse_tsv_value up to value equality: quantities always carry
    a decimal point so integral magnitudes cannot be re-read as dates. A
    year-precision date whose year has more than four digits is written with
    the KGTK date marker (``^12345``, ``^-12345``), since a bare integer of
    that width reads as a quantity; every other date is written bare.
    """
    if isinstance(value, str):
        return value
    if value.kind is ValueKind.STRING:
        return f'"{_escape(value.text or "")}"'
    if value.kind is ValueKind.MONOLINGUAL:
        return f"'{_escape(value.text or '')}'@{value.language}"
    if value.kind is ValueKind.DATE:
        out = _format_year(value.year or 0)
        if value.month is None:
            return out if len(out.lstrip("-")) == 4 else f"^{out}"
        out += f"-{value.month:02d}"
        if value.day is not None:
            out += f"-{value.day:02d}"
        return out
    if value.kind is ValueKind.QUANTITY:
        mag = value.magnitude or 0.0
        if mag == int(mag) and abs(mag) < 1e15:
            return f"{int(mag)}.0"
        return repr(mag)
    return value.text or ""


def write_edge_tsv(graph: Graph, path: str | Path) -> None:
    """Serialize the full edge set, sorted, so identical graphs give identical bytes."""
    write_tsv(path, EDGE_COLUMNS, sorted(
        (subject, prop, serialize_value(obj)) for subject, prop, obj in graph.edges()))


# -- tables: a header of column names, then one line of tab-joined cells per row


def _column_indexes(path, header_line: str, columns: Sequence[str]) -> tuple[int, ...]:
    """Where each of ``columns`` is in a header line; a missing one is a DataFormatError."""
    header = header_line.rstrip("\n").split("\t")
    try:
        return tuple(header.index(name) for name in columns)
    except ValueError:
        raise DataFormatError(f"{path}: needs {' and '.join(columns)} columns; "
                              f"found {header}") from None


# rows checked, joined and written at a time
_BLOCK_ROWS = 4096


def write_tsv(path: str | Path | None, columns: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Write a header of ``columns``, then one line per row (``None`` writes to stdout).

    Every row has one cell per column, or is one cell starting with ``#``, a
    footer such as ``#coverage=0.5000``. A row of any other width, or a cell
    holding a tab, a newline or a carriage return, is a DataFormatError, and
    nothing is written. ``rows`` may be a generator: it is read, checked and
    joined one block of ``_BLOCK_ROWS`` rows at a time, so no more than one
    block's rows and text are held at once. A file is written block by block
    by ``write_atomic``; stdout gets the whole text once every block passed.
    """
    blocks = _tsv_blocks(path or "<stdout>", columns, rows)
    if not path:
        sys.stdout.write("".join(blocks))
        return
    write_atomic(path, blocks)


def _tsv_blocks(where: str, columns: Sequence[str],
                rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """The text of ``write_tsv``'s table, one checked block at a time."""
    rows, width, start = iter(rows), len(columns), 0
    block = [columns, *islice(rows, _BLOCK_ROWS - 1)]  # row 0 is the header
    while block:
        if set(map(len, block)) != {width}:  # a footer, or a row of another width
            for number, row in enumerate(block, start):
                if len(row) != width and not (len(row) == 1 and row[0].startswith("#")):
                    raise DataFormatError(f"{where}: row {number} has {len(row)} cells "
                                          f"for {width} columns: {tuple(row)!r}")
        text = "\n".join(map("\t".join, block)) + "\n"
        if (text.count("\t") + len(block) != sum(map(len, block))
                or text.count("\n") != len(block) or "\r" in text):
            column, cell = next((columns[index], cell) for row in block for index, cell
                                in enumerate(row) if {"\t", "\n", "\r"} & set(cell))
            raise DataFormatError(f"{where}: column {column}: {cell!r} splits its row")
        yield text
        start += len(block)
        block = list(islice(rows, _BLOCK_ROWS))


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or each of its pieces in turn, to ``path`` whole or not at all:
    it goes to a temporary file beside ``path``, which then replaces ``path`` in one
    ``os.replace``. So a failed or interrupted write, or a piece that raises, leaves
    what was there before and no temporary file."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def read_tsv(path: str | Path, columns: Sequence[str],
             row: Callable[..., object] | None = None) -> list:
    """Each row's cells under ``columns``, which the header names in any order among
    others, as a tuple or as what ``row(*cells)`` makes of them. Blank lines are skipped;
    a row too short, or a ValueError from ``row``, is a DataFormatError naming its line."""
    with open(path, encoding="utf-8") as fh:
        indexes = _column_indexes(path, fh.readline(), columns)
        width = max(indexes) + 1
        rows = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) < width:
                raise DataFormatError(f"{path}:{lineno}: a row needs {width} tab-separated "
                                      f"cells; found {len(cells)}")
            picked = tuple(cells[index] for index in indexes)
            try:
                rows.append(row(*picked) if row else picked)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return rows
