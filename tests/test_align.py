from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgenrich.align import (MAX_PATH_LENGTH_CAP, AlignConfig, AlignMode, PropertyPath,
                            _last_hop, _match_key, _two_hops, enumerate_paths,
                            gestalt_similarity, normalize_label, select_path, values_match)
from kgenrich.store import Graph, Literal, value_sort_key

from conftest import graph_from_edges
from oracles import ratcliff_obershelp, same_value, simple_path_sequences


# -- normalize_label ----------------------------------------------------------

def test_normalize_label_examples():
    assert normalize_label("dbp:architecturalStyle") == "architectural style"
    assert normalize_label("industry") == "industry"
    assert normalize_label("") == ""
    assert normalize_label("place_of_birth") == "place of birth"
    assert normalize_label("http://schema.org/birthPlace") == "birth place"


@given(st.text(max_size=40))
def test_normalize_label_idempotent(raw):
    once = normalize_label(raw)
    assert normalize_label(once) == once


# -- gestalt similarity ---------------------------------------------------------

def test_gestalt_identity_and_disjoint():
    assert gestalt_similarity("industry", "industry") == 1.0
    assert gestalt_similarity("abc", "xyz") == 0.0
    assert gestalt_similarity("", "x") == 0.0
    assert gestalt_similarity("x", "") == 0.0


def test_gestalt_frozen_derived_value():
    # computed with the brute-force reference before the build: K=10 ("ast member")
    expected = 2 * 10 / (len("cast member") + len("past member"))
    assert gestalt_similarity("cast member", "past member") == pytest.approx(expected, abs=1e-12)
    assert ratcliff_obershelp("cast member", "past member") == pytest.approx(expected, abs=1e-12)


@given(st.text("abcdef _", max_size=30), st.text("abcdef _", max_size=30))
def test_gestalt_matches_brute_force(a, b):
    got = gestalt_similarity(a, b)
    assert abs(got - ratcliff_obershelp(a, b)) <= 1e-12
    assert 0.0 <= got <= 1.0
    if a and a == b:
        assert got == 1.0
    if got == 1.0 and (a or b):
        assert a == b


# -- path text -------------------------------------------------------------------

_STEPS = st.lists(st.text(st.sampled_from("ab:/\\.") | st.characters(blacklist_categories=("Cs",)),
                          min_size=1, max_size=8), min_size=1, max_size=4)


@given(_STEPS)
def test_path_text_round_trips_any_non_empty_steps(steps):
    path = PropertyPath(steps=tuple(steps))
    assert PropertyPath.parse(path.path_str) == path
    if not any("/" in step or "\\" in step for step in steps):
        assert path.path_str == "/".join(steps)


def test_path_text_escapes_a_slash_inside_a_step():
    path = PropertyPath(steps=("http://other.org/p/rel", "a\\b"))
    assert path.path_str == "http:\\/\\/other.org\\/p\\/rel/a\\\\b"


@pytest.mark.parametrize("text", ["", "/", "a/", "/a", "a//b", "a\\b", "a\\", "\\"])
def test_path_text_with_an_empty_step_or_a_stray_backslash_is_refused(text):
    with pytest.raises(ValueError):
        PropertyPath.parse(text)


# -- path enumeration -----------------------------------------------------------

def _cfg(max_len=1, **kw):
    return AlignConfig(max_path_length=max_len, **kw)


def test_single_edge_path():
    g = graph_from_edges("dbp", [("dbr:A", "dbp:industry", "dbr:X")])
    paths = enumerate_paths(g, {("dbr:A", "dbr:X")}, _cfg(1))
    assert paths == [PropertyPath(steps=("dbp:industry",), support=1)]


def test_no_connecting_edges():
    g = graph_from_edges("dbp", [("dbr:A", "dbp:industry", "dbr:Y")])
    assert enumerate_paths(g, {("dbr:A", "dbr:X")}, _cfg(1)) == []


def test_getty_style_four_hop():
    edges = []
    for i in range(3):
        edges += [
            (f"ulan:person{i}", "foaf:focus", f"ulan:agent{i}"),
            (f"ulan:agent{i}", "gvp:biographyPreferred", f"ulan:bio{i}"),
            (f"ulan:bio{i}", "schema:birthPlace", f"ulan:place{i}"),
            (f"ulan:place{i}", "skos:exactMatch", f"tgn:70117{i}"),
        ]
    g = graph_from_edges("getty", edges)
    pairs = {(f"ulan:person{i}", f"tgn:70117{i}") for i in range(3)}
    paths = enumerate_paths(g, pairs, _cfg(4))
    assert paths[0].steps == ("foaf:focus", "gvp:biographyPreferred",
                              "schema:birthPlace", "skos:exactMatch")
    assert paths[0].support == 3


def test_property_sequence_counted_once_per_pair():
    g = graph_from_edges("dbp", [
        ("dbr:S", "p", "dbr:M1"), ("dbr:M1", "q", "dbr:O"),
        ("dbr:S", "p", "dbr:M2"), ("dbr:M2", "q", "dbr:O"),
    ])
    paths = enumerate_paths(g, {("dbr:S", "dbr:O")}, _cfg(2))
    assert paths == [PropertyPath(steps=("p", "q"), support=1)]


def test_cycle_avoidance_terminates():
    g = graph_from_edges("dbp", [
        ("dbr:S", "loop", "dbr:S"),
        ("dbr:S", "p", "dbr:M"), ("dbr:M", "back", "dbr:S"), ("dbr:M", "q", "dbr:O"),
    ])
    paths = enumerate_paths(g, {("dbr:S", "dbr:O")}, _cfg(4))
    assert {p.steps for p in paths} == {("p", "q")}


def test_literal_terminal_matching_by_value():
    g = graph_from_edges("dbp", [
        ("dbr:A", "dbp:founded", Literal.date(1885, 1, 1)),
        ("dbr:B", "dbp:founded", Literal.date(1990)),
    ])
    pairs = {("dbr:A", Literal.date(1885)), ("dbr:B", Literal.date(1990))}
    paths = enumerate_paths(g, pairs, _cfg(1))
    # year-precision target matches the day-precision edge at the coarser precision
    assert paths == [PropertyPath(steps=("dbp:founded",), support=2)]


def test_deterministic_sampling_first_n_by_subject():
    g = graph_from_edges("dbp", [
        ("dbr:A", "p", "dbr:X"), ("dbr:B", "q", "dbr:X"),
        ("dbr:C", "q", "dbr:X"), ("dbr:D", "q", "dbr:X"),
    ])
    pairs = {(s, "dbr:X") for s in ("dbr:A", "dbr:B", "dbr:C", "dbr:D")}
    paths = enumerate_paths(g, pairs, _cfg(1, sample_cap=2))
    # sorted subjects: A, B -> one p hit and one q hit
    assert {(p.steps, p.support) for p in paths} == {(("p",), 1), (("q",), 1)}


def test_seeded_sampling_is_reproducible():
    g = graph_from_edges("dbp", [(f"dbr:S{i}", "p", "dbr:X") for i in range(10)])
    pairs = {(f"dbr:S{i}", "dbr:X") for i in range(10)}
    one = enumerate_paths(g, pairs, _cfg(1, sample_cap=4, sample_seed=7))
    two = enumerate_paths(g, pairs, _cfg(1, sample_cap=4, sample_seed=7))
    assert one == two
    assert one[0].support == 4


def _random_graph(rng, n_nodes, n_edges, n_props, acyclic):
    edges = set()
    while len(edges) < n_edges:
        i, j = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if acyclic and i >= j:
            continue
        edges.add((f"N{i}", f"P{rng.randrange(n_props)}", f"N{j}"))
    return sorted(edges)


@pytest.mark.parametrize("max_len", range(1, MAX_PATH_LENGTH_CAP + 1))
@pytest.mark.parametrize("seed,acyclic", [(1, True), (2, False), (3, False)])
def test_enumerate_matches_exhaustive_oracle(seed, acyclic, max_len):
    rng = random.Random(seed)
    edges = _random_graph(rng, n_nodes=30, n_edges=150, n_props=6, acyclic=acyclic)
    g = graph_from_edges("x", edges)
    nodes = sorted({e[0] for e in edges} | {e[2] for e in edges})
    pairs = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(6)}
    pairs |= {(nodes[0], "ABSENT"), ("ABSENT", nodes[2]), (nodes[1], nodes[1])}
    got = {p.steps: p.support for p in enumerate_paths(g, pairs, _cfg(max_len))}
    want = {}
    for subj, obj in pairs:
        for seq in simple_path_sequences(edges, subj, obj, max_len):
            want[seq] = want.get(seq, 0) + 1
    assert got == want


# equal-by-value groups: a year, a month and two days of 1900; 5 and 5.0;
# "x" plain and tagged; an Other "x" that matches neither string
_LITERALS = [Literal.date(1900), Literal.date(1900, 5), Literal.date(1900, 5, 1),
             Literal.date(1900, 6, 1), Literal.date(1901, 5, 1), Literal.quantity(5),
             Literal.quantity(5.0), Literal.quantity(6), Literal.string("x"),
             Literal.monolingual("x", "en"), Literal.string("y"), Literal.other("x")]


@pytest.mark.parametrize("max_len", range(1, MAX_PATH_LENGTH_CAP + 1))
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_enumerate_literal_targets_match_exhaustive_oracle(seed, max_len):
    rng = random.Random(seed)
    edges = _random_graph(rng, n_nodes=30, n_edges=120, n_props=6, acyclic=False)
    edges += sorted({(f"N{rng.randrange(30)}", f"P{rng.randrange(6)}", rng.choice(_LITERALS))
                     for _ in range(60)}, key=repr)
    g = graph_from_edges("x", edges)
    held = {obj for _, _, obj in edges if not isinstance(obj, str)}
    literals = list(g.literals())
    assert len(literals) == len(held) and set(literals) == held
    nodes = [f"N{i}" for i in range(30)]
    targets = _LITERALS + [Literal.date(1777), rng.choice(nodes), rng.choice(nodes)]
    pairs = {(rng.choice(nodes), target) for target in targets for _ in range(3)}
    got = {p.steps: p.support for p in enumerate_paths(g, pairs, _cfg(max_len))}
    want = {}
    for subj, obj in pairs:
        for seq in simple_path_sequences(edges, subj, obj, max_len, same_value):
            want[seq] = want.get(seq, 0) + 1
    assert got == want


def test_literal_terminal_two_hops_matches_by_value():
    day = Literal.date(1885, 1, 1)
    g = graph_from_edges("dbp", [
        ("dbr:A", "dbp:parent", "dbr:M"), ("dbr:M", "dbp:founded", day),
        ("dbr:A", "dbp:sibling", "dbr:N"), ("dbr:N", "dbp:founded", Literal.date(1886, 1, 1)),
        ("dbr:N", "dbp:next", "dbr:M"),  # reaches the date only in three hops
    ])
    target = Literal.date(1885)
    assert values_match(day, target)
    paths = enumerate_paths(g, {("dbr:A", target)}, _cfg(2))
    assert paths == [PropertyPath(steps=("dbp:parent", "dbp:founded"), support=1)]


def test_last_hop_lists_a_property_once_per_predecessor():
    # two literals match the year target, both reached from A over P1
    g = graph_from_edges("dbp", [("A", "P1", Literal.date(1900, 5, 1)),
                                 ("A", "P1", Literal.date(1900, 6, 1))])
    buckets = {}
    for literal in g.literals():
        buckets.setdefault(_match_key(literal), []).append(literal)
    assert _last_hop(g, Literal.date(1900), buckets) == {"P1": {"A"}}
    for max_len in (1, 2):
        paths = enumerate_paths(g, {("A", Literal.date(1900))}, _cfg(max_len))
        assert paths == [PropertyPath(steps=("P1",), support=1)]


def test_two_hop_join_keeps_only_suffixes_off_the_walked_path():
    g = graph_from_edges("x", [("S", "a", "B"), ("B", "b", "M"), ("M", "c", "B"),
                               ("B", "d", "T")])
    # at L = 4 the walk stops at M (S, B, M) and M's only suffix c/d passes B again
    assert enumerate_paths(g, {("S", "T")}, _cfg(4)) == [
        PropertyPath(steps=("a", "d"), support=1)]
    # a middle node equal to the start (M -e-> S -f-> T), a target self-loop
    # (T -g-> T), a meeting node equal to the target (T -h-> B -d-> T) and
    # one equal to the middle node (B -k-> B -d-> T)
    edges = [("S", "a", "B"), ("B", "b", "M"), ("M", "c", "B"), ("B", "d", "T"),
             ("M", "e", "S"), ("S", "f", "T"), ("T", "g", "T"), ("T", "h", "B"),
             ("B", "k", "B")]
    g = graph_from_edges("x", edges)
    suffixes = _two_hops(g, "T", _last_hop(g, "T", {}))
    assert {meet: sorted(entries) for meet, entries in suffixes.items()} == {
        "S": [("a", "B", "d")], "M": [("c", "B", "d"), ("e", "S", "f")]}
    for max_len in range(1, MAX_PATH_LENGTH_CAP + 1):
        got = {p.steps for p in enumerate_paths(g, {("S", "T")}, _cfg(max_len))}
        assert got == simple_path_sequences(edges, "S", "T", max_len)
        assert got == ({("f",)} if max_len == 1 else {("f",), ("a", "d")})


@pytest.mark.parametrize("max_len", [2, 4])
@pytest.mark.parametrize("seed", [7, 8])
def test_sample_cap_takes_the_first_pairs_before_grouping_by_target(seed, max_len):
    rng = random.Random(seed)
    edges = _random_graph(rng, n_nodes=30, n_edges=120, n_props=6, acyclic=False)
    edges += sorted({(f"N{rng.randrange(30)}", f"P{rng.randrange(6)}", rng.choice(_LITERALS))
                     for _ in range(40)}, key=repr)
    g = graph_from_edges("x", edges)
    targets = [f"N{i}" for i in range(30)] + _LITERALS
    # several targets per subject, so the cap cuts through one subject's targets
    pairs = {(f"N{rng.randrange(10)}", rng.choice(targets)) for _ in range(40)}
    cap = len(pairs) // 2 + 1
    kept = sorted(pairs, key=lambda p: (p[0], value_sort_key(p[1])))[:cap]
    assert len({target for _, target in kept}) > 1
    got = {p.steps: p.support for p in enumerate_paths(g, pairs, _cfg(max_len, sample_cap=cap))}
    want = {}
    for subj, obj in kept:
        for seq in simple_path_sequences(edges, subj, obj, max_len, same_value):
            want[seq] = want.get(seq, 0) + 1
    assert got == want


def _hub_edges(fan):
    """One hub H with ``fan`` out-edges over four properties, most to nodes X_i
    that lead on to item targets T_j and to year literals; starts S_j reach H.
    It also points back at the starts, at the targets, at a literal and at
    itself, and one start is a predecessor of its own target."""
    edges = [("H", f"h{i % 4}", f"X{i}") for i in range(fan)]
    edges += [("H", "back", f"S{j}") for j in range(12)]
    edges += [("H", "direct", "T1"), ("H", "self", "H"), ("H", "year", Literal.date(1903, 4))]
    for i in range(fan):
        edges.append((f"X{i}", "q", f"T{i % 7}"))
        if i % 3 == 0:
            edges.append((f"X{i}", "born", Literal.date(1900 + i % 5, 1 + i % 12, 1)))
        if i % 5 == 0:
            edges.append((f"X{i}", "next", f"X{(i * 7 + 1) % fan}"))
    for j in range(12):
        edges += [(f"S{j}", "link", "H"), (f"T{j % 7}", "sees", f"S{j}")]
    edges += [("S0", "p", "T0"), ("T0", "loop", "T0"), ("T3", "to", "H")]
    return edges


@pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5, 6])
def test_enumerate_through_a_hub_matches_exhaustive_oracle(max_len):
    edges = _hub_edges(300)
    g = graph_from_edges("x", edges)
    pairs = {(f"S{j}", f"T{j % 7}") for j in range(12)}
    pairs |= {(f"S{j}", Literal.date(1900 + j % 5)) for j in range(0, 12, 2)}
    pairs |= {("H", "T3"), ("S5", "S0"), ("X0", Literal.date(1903))}
    got = {p.steps: p.support for p in enumerate_paths(g, pairs, _cfg(max_len))}
    want = {}
    for subj, obj in pairs:
        for seq in simple_path_sequences(edges, subj, obj, max_len, same_value):
            want[seq] = want.get(seq, 0) + 1
    assert got == want
    if max_len >= 3:  # paths through the hub are found
        assert got[("link", "h0", "q")] >= 1 and ("link", "h1", "born") in got


def _fan_edges(n_targets, fan):
    """Per target T: fan predecessors B -d-> T, each with fan predecessors
    M -c-> B, and a start S -a-> M reaching T in three hops."""
    edges = []
    for t in range(n_targets):
        edges.append((f"S{t}", "a", f"M{t}.0.0"))
        for b in range(fan):
            edges.append((f"B{t}.{b}", "d", f"T{t}"))
            edges += [(f"M{t}.{b}.{m}", "c", f"B{t}.{b}") for m in range(fan)]
    return edges


def test_enumerate_holds_one_targets_maps_at_a_time():
    g = graph_from_edges("x", _fan_edges(40, 30))

    def peak(pairs):
        tracemalloc.start()
        try:
            paths = enumerate_paths(g, pairs, _cfg(4))
            return tracemalloc.get_traced_memory()[1], paths
        finally:
            tracemalloc.stop()

    one, paths = peak({("S0", "T0")})
    assert paths == [PropertyPath(steps=("a", "c", "d"), support=1)]
    every, paths = peak({(f"S{t}", f"T{t}") for t in range(40)})
    assert paths == [PropertyPath(steps=("a", "c", "d"), support=40)]
    # each target's two-hop map holds 900 suffixes; 40 of them kept at once read ~50x
    assert every <= 8 * one


# -- selection ------------------------------------------------------------------

def _label_graph(labels):
    return Graph("dbp", [(prop, "label", Literal.string(text)) for prop, text in labels.items()])


def _paths(*specs):
    return [PropertyPath(steps=(s,), support=n) for s, n in specs]


def test_select_reranks_architectural_style():
    candidates = _paths(("dbp:architecture", 8), ("dbp:architecturalStyle", 3),
                        ("dbp:location", 2))
    g = Graph("dbp")  # labels fall back to local names
    cfg = _cfg(1)
    chosen = select_path(candidates, "architectural style", g, cfg)
    assert chosen.steps == ("dbp:architecturalStyle",)
    assert chosen.similarity == 1.0


def test_select_continent_modes():
    candidates = _paths(("dbp:location", 5), ("dbp:continent", 3))
    g = Graph("dbp")
    hybrid = select_path(candidates, "continent", g, _cfg(1))
    freq = select_path(candidates, "continent", g, _cfg(1, mode=AlignMode.FREQUENCY_ONLY))
    assert hybrid.steps == ("dbp:continent",)
    assert freq.steps == ("dbp:location",)


def test_select_cast_member_modes():
    fillers = [(f"dbp:filler{i}", 19 - i) for i in range(10)]
    candidates = _paths(("dbp:starring", 20), *fillers, ("dbp:pastMember", 2))
    g = Graph("dbp")
    hybrid = select_path(candidates, "cast member", g, _cfg(1))
    string = select_path(candidates, "cast member", g, _cfg(1, mode=AlignMode.STRING_ONLY))
    freq = select_path(candidates, "cast member", g, _cfg(1, mode=AlignMode.FREQUENCY_ONLY))
    assert hybrid.steps == ("dbp:starring",)
    assert string.steps == ("dbp:pastMember",)
    assert freq.steps == ("dbp:starring",)


def test_string_mode_tie_keeps_the_better_supported_path():
    # candidates arrive ranked by support; the tied winner is not the lexically first
    candidates = _paths(("dbp:zeta", 7), ("dbp:other", 5), ("dbp:alpha", 3))
    g = _label_graph({"dbp:zeta": "industry", "dbp:other": "owner", "dbp:alpha": "industry"})
    chosen = select_path(candidates, "industry", g, _cfg(1, mode=AlignMode.STRING_ONLY))
    assert chosen.steps == ("dbp:zeta",) and chosen.similarity == 1.0


def test_select_uses_label_edges_over_local_names():
    candidates = _paths(("dbp:p1", 5), ("dbp:p2", 3))
    g = _label_graph({"dbp:p1": "zzz", "dbp:p2": "industry"})
    chosen = select_path(candidates, "industry", g, _cfg(1))
    assert chosen.steps == ("dbp:p2",)


def test_select_multi_hop_path_label_is_space_joined():
    candidates = [PropertyPath(steps=("foaf:focus", "schema:birthPlace"), support=4)]
    g = Graph("getty")
    chosen = select_path(candidates, "focus birth place", g, _cfg(2))
    assert chosen.similarity == 1.0


def test_hybrid_equals_frequency_when_all_similarities_low():
    candidates = _paths(("dbp:aaa", 9), ("dbp:bbb", 5), ("dbp:ccc", 2))
    g = Graph("dbp")
    hybrid = select_path(candidates, "qqqq", g, _cfg(1))
    freq = select_path(candidates, "qqqq", g, _cfg(1, mode=AlignMode.FREQUENCY_ONLY))
    assert hybrid.steps == freq.steps == ("dbp:aaa",)


def test_select_empty_candidates():
    assert select_path([], "industry", Graph("dbp"), _cfg(1)) is None


def test_equal_support_breaks_ties_lexicographically():
    g = graph_from_edges("dbp", [
        ("dbr:A", "zeta", "dbr:X"), ("dbr:A", "alpha", "dbr:X"),
    ])
    paths = enumerate_paths(g, {("dbr:A", "dbr:X")}, _cfg(1))
    assert [p.steps for p in paths] == [("alpha",), ("zeta",)]


def test_alignment_determinism(company_fixture):
    g = company_fixture.external
    pairs = {(f"dbr:Company{c}", f"dbr:Industry{c}") for c in "ABCDE"}
    runs = [select_path(enumerate_paths(g, pairs, _cfg(1)), "industry", g, _cfg(1))
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].steps == ("dbp:industry",)


def test_align_settings_bounds():
    with pytest.raises(ValueError):
        AlignConfig(max_path_length=0)
    with pytest.raises(ValueError):
        AlignConfig(max_path_length=7)
    with pytest.raises(ValueError):
        AlignConfig(similarity_threshold=1.5)
