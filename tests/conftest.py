from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from kgenrich.align import AlignConfig
from kgenrich.config import (GapSettings, GraphSpec, MappingSpec, OutputSettings,
                             PipelineConfig)
from kgenrich.store import Graph, Literal
from kgenrich.validate import (RelationMode, ValidationSettings, ValueTypeConstraint)

# Fig-3-style allowed classes for the industry property
INDUSTRY_CLASSES = frozenset({"Q8148", "Q268592", "Q8187769", "Q3958441", "Q121359"})

COMPANY_CLASS = "Q783794"
INDUSTRY_PROP = "P452"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A fresh copy of ``perfbench/<name>.py``, loaded by file path (perfbench is not a
    package). It is registered in ``sys.modules`` because ``dataclass`` looks it up there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def graph_from_edges(tag, edges, label_properties=("label",)):
    return Graph(tag, edges, label_properties)


def with_edges(graph: Graph, *edges) -> Graph:
    """A new graph of ``graph``'s edges and ``edges``, with its tag and label properties."""
    return Graph(graph.tag, [*graph.edges(), *edges], graph.label_properties)


@dataclass
class CompanyFixture:
    target: Graph
    external: Graph
    cfg: PipelineConfig
    constraints: dict
    gap_subject: str = "Q1006"
    expected_value: str = "Q2002"


def _company_target() -> Graph:
    companies = [f"Q100{i}" for i in range(1, 7)]
    industries = [f"Q200{i}" for i in range(1, 6)]
    edges = []
    for i, company in enumerate(companies):
        edges.append((company, "P31", COMPANY_CLASS))
        edges.append((company, "sitelink", Literal.string(f"Company{'ABCDEF'[i]}")))
        edges.append((company, "label", Literal.string(f"Firm {'ABCDEF'[i]}")))
    for i, industry in enumerate(industries):
        edges.append((industry, "P31", "Q8148"))
        edges.append((industry, "sitelink", Literal.string(f"Industry{'ABCDE'[i]}")))
    # all but the last company have a known industry
    for company, industry in zip(companies[:5], industries):
        edges.append((company, INDUSTRY_PROP, industry))
    edges += [
        ("Q1001", "P571", Literal.date(1990)),
        ("Q1002", "P571", Literal.date(1985, 3, 1)),
        ("Q1003", "P571", Literal.date(2001)),
        ("Q1001", "P17", "Q30"),
        ("Q1002", "P17", "Q30"),
        (INDUSTRY_PROP, "label", Literal.string("industry")),
        ("P31", "label", Literal.string("instance of")),
        ("P571", "label", Literal.string("inception")),
        ("P17", "label", Literal.string("country")),
        (COMPANY_CLASS, "label", Literal.string("company")),
        ("Q8148", "label", Literal.string("industry")),
    ]
    return graph_from_edges("wd", edges)


def make_company_external(tag: str = "dbp") -> Graph:
    edges = []
    pairs = list(zip("ABCDE", "ABCDE"))
    for company_letter, industry_letter in pairs:
        edges.append((f"dbr:Company{company_letter}", "dbp:industry",
                      f"dbr:Industry{industry_letter}"))
    # the retrievable value for the gap company
    edges.append(("dbr:CompanyF", "dbp:industry", "dbr:IndustryB"))
    # a weaker connecting decoy property
    edges.append(("dbr:CompanyA", "dbp:product", "dbr:IndustryA"))
    edges.append(("dbr:CompanyB", "dbp:product", "dbr:IndustryB"))
    for i, letter in enumerate("ABCDEF"):
        edges.append((f"dbr:Company{letter}", "dbp:founder", f"dbr:Person{i}"))
        edges.append((f"dbr:Company{letter}", "dbp:locationCity", f"dbr:City{i % 3}"))
    for letter, year in zip("ABCDE", (1990, 1985, 2001, 1999, 2010)):
        edges.append((f"dbr:Company{letter}", "dbp:founded", Literal.date(year)))
    for i in range(3):
        edges.append((f"dbr:City{i}", "dbp:country", "dbr:CountryX"))
    edges += [
        ("dbp:industry", "label", Literal.string("industry")),
        ("dbp:product", "label", Literal.string("product")),
        ("dbp:founder", "label", Literal.string("founder")),
    ]
    return graph_from_edges(tag, edges)


def make_company_config(**alignment_overrides) -> PipelineConfig:
    alignment = AlignConfig(**{"max_path_length": 1, **alignment_overrides})
    return PipelineConfig(
        target=GraphSpec(path="", tag="wd"),
        externals=[GraphSpec(path="", tag="dbp")],
        mappings={"dbp": MappingSpec(link_property="sitelink", prefix="dbr:"),
                  "dbp2": MappingSpec(link_property="sitelink", prefix="dbr:")},
        alignment=alignment,
        validation=ValidationSettings(),
        gaps=GapSettings(type_property="P31"),
        output=OutputSettings(),
    )


def industry_constraints() -> dict:
    return {INDUSTRY_PROP: ValueTypeConstraint(
        property=INDUSTRY_PROP, allowed_classes=INDUSTRY_CLASSES,
        relation_mode=RelationMode.BOTH)}


def make_company_fixture() -> CompanyFixture:
    return CompanyFixture(target=_company_target(), external=make_company_external(),
                          cfg=make_company_config(), constraints=industry_constraints())


@pytest.fixture
def company_fixture() -> CompanyFixture:
    return make_company_fixture()
