"""Property alignment: find the external property path matching a target property.

The signal is structural first, lexical second: candidate paths are the
property sequences (length <= L) whose composition connects mapped known
(subject, object) pairs in the external graph, ranked by how many pairs they
connect. The top candidates are then reranked by gestalt string similarity
between the target property label and the path label, with a threshold
deciding whether the lexical winner overrides the frequency winner.

Enumeration walks forward from each sampled subject by node id. For an
item-valued target and L >= 2 the walk stops one hop short, at depth L-1,
and takes the last hop backwards: each node it reaches is looked up in the
target's predecessor map, read once per distinct target from the graph's
object index (``Graph.in_edges``) and memoised for one ``enumerate_paths``
call. A pair then costs about degree^(L-1) edge visits instead of
degree^L, and the predecessor maps of one call together cost at most one
pass over the edge set, however many pairs share a hub target. Literal
targets, and L = 1, keep the plain forward walk.
"""

from __future__ import annotations

import difflib
import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .store import Graph, Value, ValueKind, value_sort_key

MAX_PATH_LENGTH_CAP = 6


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
        return "/".join(self.steps)


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

    Dates compare at the coarser of the two precisions; plain and
    language-tagged strings match on their text.
    """
    if isinstance(wanted, str):
        return found == wanted
    if isinstance(found, str):
        return False
    a, b = found, wanted
    if a.kind is ValueKind.DATE and b.kind is ValueKind.DATE:
        rank = {"year": 0, "month": 1, "day": 2}
        depth = min(rank[a.precision], rank[b.precision])
        fields_a = (a.year, a.month, a.day)[:depth + 1]
        fields_b = (b.year, b.month, b.day)[:depth + 1]
        return fields_a == fields_b
    if a.kind is ValueKind.QUANTITY and b.kind is ValueKind.QUANTITY:
        return a.magnitude == b.magnitude
    if a.kind in (ValueKind.STRING, ValueKind.MONOLINGUAL) and \
            b.kind in (ValueKind.STRING, ValueKind.MONOLINGUAL):
        return a.text == b.text
    return a == b


def _sample_pairs(pairs: set[tuple[str, Value]], cfg: AlignConfig) -> list[tuple[str, Value]]:
    ordered = sorted(pairs, key=lambda p: (p[0], value_sort_key(p[1])))
    if len(ordered) <= cfg.sample_cap:
        return ordered
    if cfg.sample_seed is not None:
        rng = random.Random(cfg.sample_seed)
        picked = rng.sample(ordered, cfg.sample_cap)
        return sorted(picked, key=lambda p: (p[0], value_sort_key(p[1])))
    return ordered[:cfg.sample_cap]


def _predecessors(graph: Graph, target_id: str) -> dict[str, list[str]]:
    """{predecessor id: [props with an edge into target]} from the object index."""
    preds: dict[str, list[str]] = {}
    for prop, subjects in graph.in_edges(target_id).items():
        for subj in subjects:
            preds.setdefault(subj, []).append(prop)
    return preds


def _pair_paths(graph: Graph, start_id: str, target: Value, max_len: int,
                into: dict[str, dict[str, list[str]]]) -> set[tuple[str, ...]]:
    """All property sequences realized by a simple path start -> target.

    Cycle avoidance is per traversal: a branch never revisits a node, so a
    sequence counts once per pair no matter how many node instantiations
    realize it. Intermediate literals end their branch, and no path passes
    through the target.

    Item targets at L >= 2: the forward walk, keyed by node id, stops at
    depth L-1; at every node it reaches (the start included) the last hop is
    a lookup in the target's predecessor map ``{predecessor id: [props]}``,
    built once per distinct target from ``Graph.in_edges`` and kept in
    ``into`` for the whole ``enumerate_paths`` call. A pair costs the
    out-edges of the nodes within L-2 hops of the start instead of within
    L-1 (about degree^(L-1) rather than degree^L edge visits), and every
    target costs its in-degree once, so building all the maps of one call
    takes at most one pass over the edge set.

    Literal targets, and item targets at L = 1, take the full-depth forward
    walk and test each object at the frontier: literals with
    ``values_match``, because date-precision folding has no exact index key;
    nodes by id. At L = 1 the start is the only node a walk reaches, so a
    predecessor map (the target's whole in-degree) would not be repaid.
    """
    found: set[tuple[str, ...]] = set()
    out_edges = graph.out_edges

    if isinstance(target, str) and max_len > 1:
        if target == start_id:
            return found
        preds = into.get(target)
        if preds is None:
            preds = into[target] = _predecessors(graph, target)
        if not preds:
            return found

        def reach(node_id: str, seq: tuple[str, ...], visited: set[str]) -> None:
            for prop in preds.get(node_id, ()):
                found.add(seq + (prop,))
            if len(seq) + 1 >= max_len:
                return
            for prop, objs in out_edges(node_id).items():
                step = seq + (prop,)
                for obj in objs:
                    if isinstance(obj, str) and obj not in visited and obj != target:
                        visited.add(obj)
                        reach(obj, step, visited)
                        visited.remove(obj)

        reach(start_id, (), {start_id})
        return found

    target_id = target if isinstance(target, str) else None

    def walk(node_id: str, seq: tuple[str, ...], visited: set[str]) -> None:
        deeper = len(seq) + 1 < max_len
        for prop, objs in out_edges(node_id).items():
            step = seq + (prop,)
            for obj in objs:
                if isinstance(obj, str):
                    if obj in visited:
                        continue
                    if obj == target_id:
                        found.add(step)  # no simple path re-reaches the target
                    elif deeper:
                        visited.add(obj)
                        walk(obj, step, visited)
                        visited.remove(obj)
                elif target_id is None and values_match(obj, target):
                    found.add(step)

    walk(start_id, (), {start_id})
    return found


def enumerate_paths(graph: Graph, pairs: Iterable[tuple[str, Value]],
                    cfg: AlignConfig) -> list[PropertyPath]:
    """Rank property paths by the number of known pairs they connect.

    Pairs beyond ``sample_cap`` are dropped deterministically (sorted by
    subject id, first N; or a seeded random sample when configured). Output
    is sorted by (support desc, steps asc).
    """
    support: Counter[tuple[str, ...]] = Counter()
    into: dict[str, dict[str, list[str]]] = {}
    for subject_id, target in _sample_pairs(set(pairs), cfg):
        support.update(_pair_paths(graph, subject_id, target, cfg.max_path_length, into))
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
