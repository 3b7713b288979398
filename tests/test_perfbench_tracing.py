"""The benchmark's tracer sees every stage it measures.

``perfbench/tracing.py`` wraps module attributes of ``kgenrich.pipeline``
and ``kgenrich.validate``; a stage that stops calling through one of those
names would drop out of the per-layer metrics without any error. This test
installs the tracer, runs a batch and both kinds of consistency call, and
checks that each traced name recorded a span.
"""

from __future__ import annotations

import importlib

import pytest

from kgenrich.consistency import Granularity

from conftest import COMPANY_CLASS, INDUSTRY_PROP, make_company_external, perfbench_module

STAGES = ("detect_gaps", "build_mapping", "alignment_pairs", "resolve", "enumerate_paths",
          "select_path", "retrieve", "validate_detailed", "allowed_class_closure",
          "agreement", "literal_agreement")


@pytest.fixture
def tracing():
    """The tracing module; every attribute it wraps is restored afterwards."""
    module = perfbench_module("tracing")
    wrapped = [importlib.import_module(f"kgenrich.{name}")
               for name in ("cli", "pipeline", "validate")]
    saved = [(target, dict(vars(target))) for target in wrapped]
    yield module
    for target, names in saved:
        vars(target).update(names)


def test_tracer_records_every_traced_stage(tracing, company_fixture):
    fx = company_fixture
    tracer = tracing.Tracer()
    tracing.install(tracer, {}, full=True)
    pipeline = importlib.import_module("kgenrich.pipeline")
    kwargs = {"entity_class": COMPANY_CLASS, "constraints": fx.constraints}
    pipeline.batch_enrich(fx.target, [fx.external, make_company_external("dbp2")],
                          [INDUSTRY_PROP, "P571"], fx.cfg, **kwargs)
    pipeline.run_consistency(fx.target, fx.external, INDUSTRY_PROP, fx.cfg, **kwargs)
    pipeline.run_consistency(fx.target, fx.external, "P571", fx.cfg, Granularity.YEAR,
                             **kwargs)
    recorded = {span[0] for span in tracer.spans}
    assert set(STAGES) <= recorded, sorted(set(STAGES) - recorded)
