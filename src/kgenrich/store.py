"""Immutable in-memory knowledge graphs loaded from N-Triples or edge-TSV.

A node is its id: a plain string, the same in every graph, so nodes of two
graphs compare and hash as their ids do and every index key hashes in C. A
value is a node id or a ``Literal``. A graph stores a deduplicated edge set
once in each of two indexes kept in lockstep by ``add_edge``: subject->
property->objects and object->property->subjects. An index entry with one
member is a 1-tuple and becomes a set only when a second distinct member
arrives, since most entries never get one. ``statements_for`` (all pairs of
one property) is a scan over the subject index, and the edge counter is the
one in ``Graph.stats``. Graphs are treated as immutable once a loader returns
them; pipeline stages only ever read them and emit separate statement sets.

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
one id are one shared string rather than a copy per edge. All the tables are
dropped when the call returns. Interpreter string interning is not used:
interned strings are immortal on Python 3.12, so a dropped graph's ids
would never be freed.

``Literal`` is a frozen, slotted dataclass: no per-instance ``__dict__``.
"""

from __future__ import annotations

import calendar
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, Union

from .errors import DataFormatError

DEFAULT_LABEL_PROPERTIES = ("label", "rdfs:label")
DEFAULT_MALFORMED_THRESHOLD = 0.10


class ValueKind(Enum):
    ITEM = "item"
    STRING = "string"
    MONOLINGUAL = "monolingual"
    DATE = "date"
    QUANTITY = "quantity"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed literal value; value-equal literals from different serializations are equal."""

    kind: ValueKind
    text: str | None = None
    language: str | None = None
    year: int | None = None
    month: int | None = None
    day: int | None = None
    precision: str | None = None
    magnitude: float | None = None

    @staticmethod
    def string(text: str) -> "Literal":
        return Literal(ValueKind.STRING, text=text)

    @staticmethod
    def monolingual(text: str, language: str) -> "Literal":
        if not language:
            raise ValueError("monolingual text requires a language tag")
        return Literal(ValueKind.MONOLINGUAL, text=text, language=language)

    @staticmethod
    def date(year: int, month: int | None = None, day: int | None = None,
             precision: str | None = None) -> "Literal":
        if precision is None:
            precision = "day" if day is not None else "month" if month is not None else "year"
        if precision not in ("year", "month", "day"):
            raise ValueError(f"bad date precision {precision!r}")
        if precision == "day" and (month is None or day is None):
            raise ValueError("day precision requires month and day")
        if precision == "month" and month is None:
            raise ValueError("month precision requires a month")
        return Literal(ValueKind.DATE, year=year, month=month, day=day, precision=precision)

    @staticmethod
    def quantity(magnitude: float) -> "Literal":
        magnitude = float(magnitude)
        if not math.isfinite(magnitude):
            raise ValueError("quantity magnitude must be finite")
        return Literal(ValueKind.QUANTITY, magnitude=magnitude)

    @staticmethod
    def other(text: str) -> "Literal":
        return Literal(ValueKind.OTHER, text=text)


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
            value.language or "", value.precision or "")


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


# what a query returns on a miss; shared, and read-only like every query result
_NO_VALUES: tuple = ()
_NO_EDGES: Mapping = MappingProxyType({})


class Graph:
    """Indexed, deduplicated edge set over node ids.

    Two indexes hold each edge: ``_spo`` maps subject -> property -> objects
    and ``_osp`` maps object -> property -> subjects. The first member of an
    entry is stored as a 1-tuple (48 B, against 216 B for a set); a second
    distinct member turns the entry into a set. Most entries keep one member.

    Built by the loaders (or test fixtures) through ``add_edge`` and treated
    as immutable afterwards; every pipeline stage only reads it. The query
    methods return the stored entries, or a shared empty constant on a miss,
    so callers get read-only collections: iterate them, test membership or
    copy them, never mutate them.
    """

    def __init__(self, tag: str, label_properties: Iterable[str] = DEFAULT_LABEL_PROPERTIES):
        self.tag = tag
        self.label_properties = tuple(label_properties)
        self.stats = LoadStats()
        self._spo: dict[str, dict[str, tuple[Value] | set[Value]]] = {}
        self._osp: dict[Value, dict[str, tuple[str] | set[str]]] = {}
        self._labels: dict[str, str] = {}

    # -- construction ------------------------------------------------------

    def add_edge(self, subject: str, prop: str, obj: Value) -> bool:
        """Insert one edge into both indexes and count it in ``stats.edges``.

        Returns False when the edge was already present. A string object is
        a node id; pass a ``Literal`` for literal values.
        """
        if not prop:
            raise ValueError("property must be non-empty")
        if not subject or not obj:
            raise ValueError("node id must be non-empty")
        # get-then-insert: an edge allocates only the containers it keeps
        by_prop = self._spo.get(subject)
        if by_prop is None:
            by_prop = self._spo[subject] = {}
        objs = by_prop.get(prop)
        if objs is None:
            by_prop[prop] = (obj,)
        elif obj in objs:
            self.stats.duplicates += 1
            return False
        elif type(objs) is tuple:
            by_prop[prop] = {objs[0], obj}
        else:
            objs.add(obj)
        into = self._osp.get(obj)
        if into is None:
            self._osp[obj] = {prop: (subject,)}
        else:
            subjs = into.get(prop)
            if subjs is None:
                into[prop] = (subject,)
            elif type(subjs) is tuple:
                into[prop] = {subjs[0], subject}
            else:
                subjs.add(subject)
        self.stats.edges += 1
        if prop in self.label_properties and isinstance(obj, Literal) and obj.text:
            self._labels.setdefault(subject, obj.text)
        return True

    # -- queries -----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.stats.edges

    @property
    def node_count(self) -> int:
        """Distinct node ids that are a subject or an object of some edge."""
        spo = self._spo
        return len(spo) + sum(1 for obj in self._osp if isinstance(obj, str) and obj not in spo)

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
        return self._osp.get(obj, _NO_EDGES)

    def subjects(self) -> Iterator[str]:
        """All node ids appearing as subject of at least one edge."""
        return iter(self._spo)

    def literals(self) -> Iterator[Literal]:
        """Each distinct literal object of some edge, once."""
        return (obj for obj in self._osp if not isinstance(obj, str))

    def statements_for(self, prop: str) -> list[tuple[str, Value]]:
        """Every (subject, object) pair of ``prop``, by one scan of the subject index."""
        return [(subject, obj) for subject, by_prop in self._spo.items()
                for obj in by_prop.get(prop, ())]

    def has_property(self, prop: str) -> bool:
        return any(prop in by_prop for by_prop in self._spo.values())

    def subjects_with(self, prop: str, obj: Value) -> Collection[str]:
        """Subjects with a ``prop`` edge into ``obj``, read-only; empty if none."""
        return self._osp.get(obj, _NO_EDGES).get(prop, _NO_VALUES)

    def edges(self) -> Iterator[tuple[str, str, Value]]:
        for subject, by_prop in self._spo.items():
            for prop, objs in by_prop.items():
                for obj in objs:
                    yield subject, prop, obj

    def label(self, node_id: str) -> str:
        """Display label, falling back to the id's local name, then the id."""
        got = self._labels.get(node_id)
        if got is not None:
            return got
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

_DATE_DAY = re.compile(r"^(-?\d{4,})-(\d{2})-(\d{2})(?:T\S*)?$")
_DATE_MONTH = re.compile(r"^(-?\d{4,})-(\d{2})$")
_DATE_YEAR = re.compile(r"^(-?\d{4,})$")

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}


_HEX_DIGITS = re.compile(r"[0-9A-Fa-f]*")


def _unescape(text: str) -> str:
    """Decode backslash escapes; ValueError on a malformed one.

    Malformed: a backslash ending the text, a \\u or \\U escape without
    exactly 4 or 8 hex digits, or one naming a surrogate or a code point
    beyond U+10FFFF (neither can be written back out as UTF-8).
    """
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 == len(text):
            raise ValueError(f"dangling backslash at the end of {text!r}")
        esc = text[i + 1]
        if esc in "uU":
            width = 4 if esc == "u" else 8
            digits = text[i + 2:i + 2 + width]
            if len(digits) != width or not _HEX_DIGITS.fullmatch(digits):
                raise ValueError(f"malformed \\{esc} escape in {text!r}")
            code = int(digits, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise ValueError(f"escape \\{esc}{digits} is not a character")
            out.append(chr(code))
            i += 2 + width
        else:
            out.append(_ESCAPES.get(esc, esc))
            i += 2
    return "".join(out)


def _days_in_month(year: int, month: int) -> int:
    if month == 2:
        return 29 if calendar.isleap(year) else 28
    return 30 if month in (4, 6, 9, 11) else 31


def _parse_date_lexical(lex: str) -> Literal | None:
    """Day, month or year precision date; None for other text or an impossible date."""
    m = _DATE_DAY.match(lex)
    if m:
        year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if not (1 <= month <= 12 and 1 <= day <= _days_in_month(year, month)):
            return None
        return Literal.date(year, month, day)
    m = _DATE_MONTH.match(lex)
    if m:
        month = int(m.group(2))
        if not 1 <= month <= 12:
            return None
        return Literal.date(int(m.group(1)), month)
    m = _DATE_YEAR.match(lex)
    if m:
        return Literal.date(int(m.group(1)))
    return None


def _nt_literal(token: str) -> Literal:
    """The literal an N-Triples object token denotes, classified by its datatype."""
    m = _NT_LITERAL.match(token)
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


def _check_threshold(path: str | Path, stats: LoadStats, considered: int,
                     threshold: float) -> None:
    if considered and stats.skipped / considered > threshold:
        raise DataFormatError(
            f"{path}: {stats.skipped} of {considered} lines malformed "
            f"(> {threshold:.0%} threshold); first at line "
            f"{stats.first_bad_lineno}: {stats.first_bad_text!r}"
        )


def load_ntriples(path: str | Path, tag: str, *,
                  prefixes: Mapping[str, str] | PrefixTable | None = None,
                  label_properties: Iterable[str] = DEFAULT_LABEL_PROPERTIES,
                  malformed_threshold: float = DEFAULT_MALFORMED_THRESHOLD) -> Graph:
    """Load a UTF-8 N-Triples file into a fully indexed graph.

    Malformed lines are counted and skipped; if more than
    ``malformed_threshold`` of the non-blank, non-comment lines are
    malformed, a DataFormatError naming the first offending line is raised.
    """
    table = prefixes if isinstance(prefixes, PrefixTable) else PrefixTable(prefixes)
    graph = Graph(tag, label_properties)
    stats = graph.stats
    ids = _Terms(lambda text: text)
    terms = _Terms(lambda token: ids[_nt_term_id(token, table)])
    values = _Terms(lambda token: _nt_literal(token) if token[0] == '"' else terms[token])
    considered = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stats.lines += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            considered += 1
            m = _NT_LINE.match(line)
            if m is None:
                stats.skip(lineno, stripped)
                continue
            try:
                obj = values[m.group("o")]
            except ValueError:
                stats.skip(lineno, stripped)
                continue
            graph.add_edge(terms[m.group("s")], terms[m.group("p")], obj)
    _check_threshold(path, stats, considered, malformed_threshold)
    return graph


def _nt_term_id(token: str, table: PrefixTable) -> str:
    if token.startswith("<"):
        return table.shorten(token[1:-1])
    return token  # blank node label, kept verbatim


# -- edge TSV ----------------------------------------------------------------

_TSV_NODE_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*(?::[^\s]+)?$")
_TSV_DATE = re.compile(r"^-?\d{4}(?:-\d{2}(?:-\d{2})?)?$")
_TSV_NUMBER = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")
_TSV_MONOLINGUAL = re.compile(r"^'(?P<text>(?:[^'\\]|\\.)*)'@(?P<lang>[A-Za-z][A-Za-z0-9-]*)$")


def _tsv_literal(text: str) -> Literal | None:
    """Classify a ``node2`` field by lexical shape; None when it names a node.

    Quoted -> string, 'x'@lang -> monolingual, ISO date -> date, numeric ->
    quantity, id-shaped -> None; anything else becomes an Other literal.
    """
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return Literal.string(_unescape(text[1:-1]))
    m = _TSV_MONOLINGUAL.match(text)
    if m:
        return Literal.monolingual(_unescape(m.group("text")), m.group("lang"))
    if _TSV_DATE.match(text):
        parsed = _parse_date_lexical(text)
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
                  prefixes: Mapping[str, str] | PrefixTable | None = None,
                  label_properties: Iterable[str] = DEFAULT_LABEL_PROPERTIES,
                  malformed_threshold: float = DEFAULT_MALFORMED_THRESHOLD) -> Graph:
    """Load a header-first edge TSV (columns node1, label, node2, id optional).

    A ``node2`` field is classified on its raw text, so an IRI whose
    shortened form looks like a date is still a node; only the shortened id
    is stored.
    """
    table = prefixes if isinstance(prefixes, PrefixTable) else PrefixTable(prefixes)
    graph = Graph(tag, label_properties)
    stats = graph.stats
    ids = _Terms(lambda text: text)
    terms = _Terms(lambda text: ids[table.shorten(text)])

    def value(text: str) -> Value:
        literal = _tsv_literal(text)
        return terms[text] if literal is None else literal

    values = _Terms(value)
    considered = 0
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            return graph
        header = header_line.rstrip("\n").split("\t")
        try:
            subj_col, prop_col, obj_col = (header.index(name)
                                           for name in ("node1", "label", "node2"))
        except ValueError:
            raise DataFormatError(
                f"{path}: required columns node1/label/node2 missing; found {header}"
            ) from None
        width = max(subj_col, prop_col, obj_col) + 1
        stats.lines += 1
        for lineno, line in enumerate(fh, 2):
            stats.lines += 1
            stripped = line.rstrip("\n")
            if not stripped or stripped.startswith("#"):
                continue
            considered += 1
            fields = stripped.split("\t")
            if len(fields) < width or not fields[subj_col] or not fields[prop_col]:
                stats.skip(lineno, stripped)
                continue
            try:
                obj = values[fields[obj_col]]
            except ValueError:
                stats.skip(lineno, stripped)
                continue
            graph.add_edge(terms[fields[subj_col]], terms[fields[prop_col]], obj)
    _check_threshold(path, stats, considered, malformed_threshold)
    return graph


def _escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"').replace("'", "\\'")
            .replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r"))


def _format_year(year: int) -> str:
    return f"-{abs(year):04d}" if year < 0 else f"{year:04d}"


def serialize_value(value: Value) -> str:
    """Render a value into the edge-TSV ``node2`` lexicon.

    Inverse of parse_tsv_value up to value equality: quantities always carry
    a decimal point so integral magnitudes cannot be re-read as dates.
    """
    if isinstance(value, str):
        return value
    if value.kind is ValueKind.STRING:
        return f'"{_escape(value.text or "")}"'
    if value.kind is ValueKind.MONOLINGUAL:
        return f"'{_escape(value.text or '')}'@{value.language}"
    if value.kind is ValueKind.DATE:
        out = _format_year(value.year or 0)
        if value.precision in ("month", "day"):
            out += f"-{value.month:02d}"
        if value.precision == "day":
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
    rows = sorted(
        (subject, prop, serialize_value(obj)) for subject, prop, obj in graph.edges()
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node1\tlabel\tnode2\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")
