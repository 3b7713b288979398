"""Independent reference implementations used to check the main build.

These are deliberately brute force and share no code with the package: the
string similarity follows the textbook longest-common-substring recursion,
and the path oracle enumerates concrete simple node paths one by one, with
the value test for literal terminals written out again.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import astuple


def brute_longest_match(a: str, b: str) -> tuple[int, int, int]:
    """Longest common substring; ties go to the earliest start in a, then b."""
    besti = bestj = bestk = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > bestk:
                besti, bestj, bestk = i, j, k
    return besti, bestj, bestk


def brute_matched_chars(a: str, b: str) -> int:
    i, j, k = brute_longest_match(a, b)
    if k == 0:
        return 0
    return (k + brute_matched_chars(a[:i], b[:j])
            + brute_matched_chars(a[i + k:], b[j + k:]))


def ratcliff_obershelp(a: str, b: str) -> float:
    """2*K / (|a| + |b|) with K from the recursive LCS decomposition."""
    if not a and not b:
        return 1.0
    return 2.0 * brute_matched_chars(a, b) / (len(a) + len(b))


_DATE_DEPTH = {"year": 1, "month": 2, "day": 3}


def same_value(found, wanted) -> bool:
    """Terminal test by value: node ids by equality; dates at the coarser of
    the two precisions; quantities by magnitude; plain and language-tagged
    strings by text; any other literal by all of its fields."""
    if isinstance(found, str) or isinstance(wanted, str):
        return found == wanted
    kinds = {found.kind.value, wanted.kind.value}
    if kinds == {"date"}:
        depth = min(_DATE_DEPTH[found.precision], _DATE_DEPTH[wanted.precision])
        return ([found.year, found.month, found.day][:depth]
                == [wanted.year, wanted.month, wanted.day][:depth])
    if kinds == {"quantity"}:
        return found.magnitude == wanted.magnitude
    if kinds <= {"string", "monolingual"}:
        return found.text == wanted.text
    return astuple(found) == astuple(wanted)


def simple_path_sequences(edges, start, target, max_len, matches=operator.eq):
    """Property sequences of every simple directed path start -> target.

    ``edges`` is an iterable of (subject, property, object) with hashable
    endpoints. A path is simple when all its nodes (including the start) are
    distinct; length is counted in edges, capped at ``max_len``. The result
    is the set of property-id tuples realized by at least one such path.
    A path ends at the first object ``o`` with ``matches(o, target)``; pass
    ``same_value`` for literal targets.
    """
    out_edges = defaultdict(list)
    for subj, prop, obj in edges:
        out_edges[subj].append((prop, obj))

    sequences = set()

    def extend(node, props, on_path):
        if len(props) >= max_len:
            return
        for prop, obj in out_edges[node]:
            if obj in on_path:
                continue
            if matches(obj, target):
                sequences.add(tuple(props + [prop]))
            else:
                extend(obj, props + [prop], on_path | {obj})

    extend(start, [], {start})
    return sequences
