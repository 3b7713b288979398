from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from kgenrich.resolve import (MappingSpec, build_mapping, inverse_resolve, resolve)
from kgenrich.store import Literal

from conftest import graph_from_edges, with_edges


def _sitelink_graph(links):
    edges = [(subj, "sitelink", Literal.string(title)) for subj, title in links]
    edges.append(("Q999", "P31", "Q5"))  # node with no link edge
    return graph_from_edges("wd", edges)


def test_build_mapping_with_prefix_transform():
    g = _sitelink_graph([("Q30185", "Lesburlesque")])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    assert mapping.forward["Q30185"] == ("dbr:Lesburlesque",)


def test_build_mapping_rewrites_a_node_id_link_value():
    # a link edge may point at a node id rather than a string literal
    g = graph_from_edges("wd", [("Q1", "P1", "Lesburlesque"), ("Q2", "P1", Literal.quantity(3))])
    mapping = build_mapping(g, MappingSpec("P1", prefix="dbr:"))
    assert mapping.forward == {"Q1": ("dbr:Lesburlesque",)}
    assert mapping.inverse == {"dbr:Lesburlesque": ("Q1",)}
    assert mapping.skipped == 1


def test_unlinked_node_absent():
    g = _sitelink_graph([("Q30185", "Lesburlesque")])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    assert "Q999" not in mapping.forward


def test_shared_external_id_transposes_to_set_of_two():
    g = _sitelink_graph([("Q1", "Same"), ("Q2", "Same")])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    assert mapping.inverse["dbr:Same"] == ("Q1", "Q2")


def test_transform_percent_encodes_spaces():
    g = _sitelink_graph([("Q15401730", "Amanda de Andrade")])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    assert mapping.forward["Q15401730"] == ("dbr:Amanda%20de%20Andrade",)


def test_transform_failure_skipped_and_counted():
    g = graph_from_edges("wd", [
        ("Q1", "sitelink", Literal.string("  ")),     # empty after strip
        ("Q2", "sitelink", Literal.date(1999)),        # not an id-shaped value
        ("Q3", "sitelink", Literal.string("Fine")),
    ])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    assert mapping.skipped == 2
    assert len(mapping.forward) == 1


def test_resolve_coverage():
    g = with_edges(_sitelink_graph([("Q1", "A"), ("Q2", "B"), ("Q3", "C")]), ("Q4", "P31", "Q5"))
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    res = resolve(mapping, {"Q1"})
    assert res.mapped == {"Q1": ("dbr:A",)}
    assert res.coverage == 1.0
    assert resolve(mapping, {"Q4"}).coverage == 0.0
    mixed = resolve(mapping, {q for q in ("Q1", "Q2", "Q3", "Q4")})
    assert mixed.coverage == 0.75


def test_inverse_resolve():
    g = _sitelink_graph([("Q217117", "Burlesque")])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    inv = inverse_resolve(mapping, {"dbr:Burlesque", "dbr:NeverLinked"})
    assert inv.mapped == {"dbr:Burlesque": ("Q217117",)}
    assert inv.ambiguous == frozenset()


def test_inverse_resolve_flags_ambiguous():
    g = _sitelink_graph([("Q1", "Same"), ("Q2", "Same")])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    inv = inverse_resolve(mapping, {"dbr:Same"})
    assert len(inv.mapped["dbr:Same"]) == 2
    assert inv.ambiguous == {"dbr:Same"}


@given(st.dictionaries(st.integers(0, 20), st.text("abcdef", min_size=1, max_size=4),
                       min_size=1, max_size=20))
def test_transpose_property(links):
    g = _sitelink_graph([(f"Q{k}", v) for k, v in links.items()])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="x:"))
    for ids in (*mapping.forward.values(), *mapping.inverse.values()):
        assert list(ids) == sorted(set(ids))
    for node, exts in mapping.forward.items():
        for ext in exts:
            assert node in mapping.inverse[ext]
    for ext, nodes in mapping.inverse.items():
        for node in nodes:
            assert ext in mapping.forward[node]


def test_roundtrip_identity_on_unambiguous_subset():
    g = _sitelink_graph([("Q1", "A"), ("Q2", "B")])
    mapping = build_mapping(g, MappingSpec("sitelink", prefix="dbr:"))
    nodes = {"Q1", "Q2"}
    forward = resolve(mapping, nodes).mapped
    externals = {e for exts in forward.values() for e in exts}
    back = inverse_resolve(mapping, externals).mapped
    recovered = {n for nodes_ in back.values() for n in nodes_}
    assert recovered == nodes
