"""Property alignment: find the external property path matching a target property.

The signal is structural first, lexical second: candidate paths are the
property sequences (length <= L) whose composition connects mapped known
(subject, object) pairs in the external graph, ranked by how many pairs they
connect. The top candidates are then reranked by gestalt string similarity
between the target property label and the path label, with a threshold
deciding whether the lexical winner overrides the frequency winner.

Enumeration has one rule for item and literal targets alike. At L = 1 it
scans each pair's start's out-edges, in one pass over the pairs. At L >= 2 it
walks forward by node id to depth D (L-1 at L <= 3, L-2 at L >= 4, joined to
a two-hop map) and takes the last hop backwards through the target's
``{prop: subjects}`` map. A node at depth D-1 takes its last forward step a
set at a time: one C-level intersection of its objects with the nodes the
maps start from. So a pair costs Python work per edge above depth D-1, C work
per edge out of depth D-1 and Python work per hit. Pairs are walked target by
target: a call holds one target's maps.
"""

from __future__ import annotations

import difflib
import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Collection, Iterable, Mapping, Sequence

from .store import Graph, Literal, Value, ValueKind, value_sort_key

MAX_PATH_LENGTH_CAP = 6
_LastHop = Mapping[str, Collection[str]]  # see _last_hop
_TwoHop = dict[str, list[tuple[str, str, str]]]  # see _two_hops


class AlignMode(Enum):
    HYBRID = "hybrid"
    FREQUENCY_ONLY = "frequency"
    STRING_ONLY = "string"


@dataclass(frozen=True)
class AlignConfig:
    max_path_length: int = 1
    sample_cap: int = 200_000
    top_k: int = 10
    similarity_threshold: float = 0.9
    mode: AlignMode = AlignMode.HYBRID
    sample_seed: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.max_path_length <= MAX_PATH_LENGTH_CAP:
            raise ValueError(f"max_path_length must be in 1..{MAX_PATH_LENGTH_CAP}")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        if self.sample_cap < 1 or self.top_k < 1:
            raise ValueError("sample_cap and top_k must be >= 1")


@dataclass(frozen=True)
class PropertyPath:
    steps: tuple[str, ...]
    support: int = 0
    similarity: float | None = None

    @property
    def path_str(self) -> str:
        """The steps joined by ``/``, with ``\\`` and ``/`` inside a step escaped by ``\\``."""
        return "/".join(step.replace("\\", "\\\\").replace("/", "\\/") for step in self.steps)

    @staticmethod
    def parse(text: str) -> "PropertyPath":
        """The path whose ``path_str`` is ``text``; ValueError when there is none."""
        steps = _PATH_STEP.findall(text)
        if not text or "/".join(steps) != text:
            raise ValueError(f"{text!r}: a path step is empty or has a stray backslash")
        return PropertyPath(tuple(re.sub(r"\\(.)", r"\1", step) for step in steps))


# a step of a path_str: characters other than \ and /, or one of them escaped
_PATH_STEP = re.compile(r"(?:[^\\/]|\\[\\/])+")


def gestalt_similarity(a: str, b: str) -> float:
    """Ratcliff/Obershelp ratio: 2*matched / (len(a) + len(b)).

    1.0 iff the strings are equal; 0.0 when exactly one is empty or nothing
    matches. Backed by difflib with the junk heuristics disabled, which
    performs the literal longest-common-substring recursion.
    """
    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def normalize_label(raw: str) -> str:
    """Strip any namespace, split camelCase/underscores, lowercase. Idempotent."""
    tail = re.split(r"[/#:]", raw)[-1]
    spaced = _CAMEL.sub(" ", tail).replace("_", " ")
    return " ".join(spaced.lower().split())


# -- path enumeration ---------------------------------------------------------


def values_match(found: Value, wanted: Value) -> bool:
    """Terminal match for path search: node ids exactly, literals by value.

    Dates compare at the coarser of the two precisions, quantities by
    magnitude, plain and language-tagged strings by text, and any other
    literal by equality.
    """
    if isinstance(found, str) or isinstance(wanted, str):
        return found == wanted
    if found.kind is ValueKind.DATE and wanted.kind is ValueKind.DATE:
        return found.year == wanted.year and (
            found.month is None or wanted.month is None or (found.month == wanted.month and (
                found.day is None or wanted.day is None or found.day == wanted.day)))
    return _match_key(found) == _match_key(wanted)


def _match_key(value: Literal) -> object:
    """What ``values_match`` compares, a date cut to its year: equal keys are needed to match."""
    if value.kind is ValueKind.DATE:
        return (ValueKind.DATE, value.year)
    if value.kind is ValueKind.QUANTITY:
        return (ValueKind.QUANTITY, value.magnitude)
    if value.kind in (ValueKind.STRING, ValueKind.MONOLINGUAL):
        return (ValueKind.STRING, value.text)
    return value


def _sample_pairs(pairs: set[tuple[str, Value]],
                  cfg: AlignConfig) -> Iterable[tuple[str, Value]]:
    """The pairs to walk, in no set order: the ranking is a total order that
    never sees it. Only dropping pairs needs the sorted order."""
    if len(pairs) <= cfg.sample_cap:
        return pairs
    ordered = sorted(pairs, key=lambda p: (p[0], value_sort_key(p[1])))
    if cfg.sample_seed is not None:
        return random.Random(cfg.sample_seed).sample(ordered, cfg.sample_cap)
    return ordered[:cfg.sample_cap]


def _last_hop(graph: Graph, target: Value, buckets: dict[object, list[Literal]]) -> _LastHop:
    """``{prop: subjects}`` over the edges into ``target``: an item's own ``in_edges``, or
    per property the union over every literal in ``buckets`` that ``values_match`` accepts."""
    if isinstance(target, str):
        return graph.in_edges(target)
    last: dict[str, set[str]] = {}
    for found in buckets.get(_match_key(target), ()):
        if values_match(found, target):
            for prop, subjects in graph.in_edges(found).items():
                last.setdefault(prop, set()).update(subjects)
    return last


def _two_hops(graph: Graph, target: Value, last: _LastHop) -> _TwoHop:
    """``{meeting id m: [(p1, middle id b, p_last)]}`` for the paths m -p1-> b -p_last-> target
    with b, m not the target and m not b, from ``in_edges`` of every subject b in ``last``;
    the walk still has to check that b is not on its own path."""
    suffixes: _TwoHop = {}
    for p_last, mids in last.items():
        for mid in mids:
            if mid == target:
                continue
            for p1, subjects in graph.in_edges(mid).items():
                for meet in subjects:
                    if meet != mid and meet != target:
                        suffixes.setdefault(meet, []).append((p1, mid, p_last))
    return suffixes


def _pair_paths(graph: Graph, start_id: str, target: Value, max_len: int,
                last: _LastHop, ends: set[str], two_hop: _TwoHop) -> set[tuple[str, ...]]:
    """Property sequences of every simple path start -> target of 2..L hops.

    ``last`` and ``two_hop`` are the target's maps and ``ends`` every node
    they start from. A branch never revisits a node, so a sequence counts
    once per pair however many node paths realize it; intermediate literals
    end a branch, and no path passes through the target. Every node the walk
    steps on closes paths by ``last``. At depth D-1 (see the module docstring)
    ``ends`` meets the node's objects less the walk's path in C, and each hit
    closes by ``last`` and, at L >= 4, by the ``two_hop`` suffixes whose
    middle node is off the path (nearer nodes go on through the middle node).
    """
    out_edges = graph.out_edges
    found: set[tuple[str, ...]] = set()
    inner = (max_len - 2 if max_len >= 4 else max_len - 1) - 1  # the depth D-1

    def close(node_id: str, seq: tuple[str, ...]) -> None:
        for prop, subjects in last.items():
            if node_id in subjects:
                found.add(seq + (prop,))

    def reach(node_id: str, seq: tuple[str, ...], visited: set[Value]) -> None:
        if node_id in ends:
            close(node_id, seq)
        out = out_edges(node_id)
        if len(seq) == inner:
            for hit in ends.intersection(chain.from_iterable(out.values())) - visited:
                for prop, objs in out.items():
                    if hit in objs:
                        step = seq + (prop,)
                        close(hit, step)
                        for p1, mid, p_last in two_hop.get(hit, ()):
                            if mid not in visited:
                                found.add(step + (p1, p_last))
            return
        for prop, objs in out.items():
            step = seq + (prop,)
            for obj in objs:
                if isinstance(obj, str) and obj not in visited:
                    visited.add(obj)
                    reach(obj, step, visited)
                    visited.remove(obj)

    reach(start_id, (), {start_id, target})  # the target counts as visited: no path passes it
    # ``reach`` holds its own cell: without this the cycle keeps ``found`` and the
    # target's maps alive until the cyclic collector runs
    del reach
    return found


def enumerate_paths(graph: Graph, pairs: Iterable[tuple[str, Value]],
                    cfg: AlignConfig) -> list[PropertyPath]:
    """Rank property paths by the number of known pairs they connect.

    Pairs beyond ``sample_cap`` are dropped deterministically (sorted by
    subject id, first N; or a seeded random sample when configured). At
    L = 1 each kept pair counts the properties of its start's out-edges that
    reach its target, in one pass over the pairs. At L >= 2 the pairs are
    grouped by target. Support is a sum over pairs, so they are walked target
    by target: a target's last-hop map (and at L >= 4 its two-hop map) lives
    only while its pairs are walked, so a call holds one target's maps at a
    time. Output is sorted by (support desc, steps asc).
    """
    max_len = cfg.max_path_length
    sampled = _sample_pairs(set(pairs), cfg)
    if max_len == 1:  # each pair's start's out-edges, by id or by value
        out_edges = graph.out_edges
        return _ranked(Counter((prop,) for start_id, target in sampled if start_id != target
                               for prop, objs in out_edges(start_id).items()
                               if (target in objs if isinstance(target, str)
                                   else any(values_match(obj, target) for obj in objs))))
    by_target: dict[Value, list[str]] = {}
    for subject_id, target in sampled:
        if subject_id != target:
            by_target.setdefault(target, []).append(subject_id)
    buckets: dict[object, list[Literal]] = {}
    if not all(isinstance(target, str) for target in by_target):
        for literal in graph.literals():
            buckets.setdefault(_match_key(literal), []).append(literal)
    support: Counter[tuple[str, ...]] = Counter()
    for target, starts in by_target.items():
        last = _last_hop(graph, target, buckets)
        two_hop = _two_hops(graph, target, last) if max_len >= 4 else {}
        ends = set().union(*last.values(), two_hop)
        if last:
            for start_id in starts:
                support.update(_pair_paths(graph, start_id, target, max_len, last, ends, two_hop))
        del last, ends, two_hop  # freed before the next target's maps are built
    return _ranked(support)


def _ranked(support: Counter[tuple[str, ...]]) -> list[PropertyPath]:
    ranked = [PropertyPath(steps=seq, support=count) for seq, count in support.items()]
    ranked.sort(key=lambda p: (-p.support, p.steps))
    return ranked


# -- selection ----------------------------------------------------------------


def path_label(graph: Graph, path: PropertyPath) -> str:
    return " ".join(normalize_label(graph.label(step)) for step in path.steps)


def score_candidates(graph: Graph, target_label: str,
                     candidates: Sequence[PropertyPath]) -> list[PropertyPath]:
    target_norm = normalize_label(target_label)
    return [replace(p, similarity=gestalt_similarity(target_norm, path_label(graph, p)))
            for p in candidates]


def select_path(candidates: Sequence[PropertyPath], target_label: str,
                graph: Graph, cfg: AlignConfig) -> PropertyPath | None:
    """Pick the aligned path per mode; None when there are no candidates.

    Hybrid: rerank the top_k most supported candidates by similarity; take
    the lexical winner if it clears the threshold, else fall back to the
    top-1 by support. Frequency-only: top-1 by support. String-only: the
    most similar candidate over the whole list, support ignored.
    """
    if not candidates:
        return None
    if cfg.mode is AlignMode.FREQUENCY_ONLY:
        return score_candidates(graph, target_label, candidates[:1])[0]
    # max keeps the first of equal similarities, i.e. the better supported one
    if cfg.mode is AlignMode.STRING_ONLY:
        return max(score_candidates(graph, target_label, candidates),
                   key=lambda p: p.similarity)
    scored = score_candidates(graph, target_label, candidates[:cfg.top_k])
    best = max(scored, key=lambda p: p.similarity)
    if best.similarity >= cfg.similarity_threshold:
        return best
    return scored[0]
