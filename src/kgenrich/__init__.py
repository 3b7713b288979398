"""Knowledge-graph enrichment from external linked-data sources.

Pipeline: gap detection -> entity resolution -> property-path alignment ->
knowledge retrieval -> semantic validation, with agreement measurement and
batch reporting on top.
"""

from .align import (AlignConfig, AlignMode, PropertyPath, enumerate_paths,
                    gestalt_similarity, normalize_label, select_path)
from .config import PipelineConfig, config_from_dict, load_config, load_graph
from .consistency import (AgreementReport, Granularity, agreement, format_rate,
                          literal_agreement)
from .errors import ConfigError, DataFormatError, KgEnrichError, UsageError
from .gaps import GapPartition, detect_gaps
from .pipeline import (BatchResult, EnrichmentResult, batch_enrich, emit_report,
                       enrich_property, run_consistency, write_statements)
from .resolve import (EntityMapping, IdTransform, build_mapping, inverse_resolve,
                      resolve)
from .retrieve import CandidateStatement, follow_path, retrieve
from .store import (Graph, Literal, PrefixTable, Statement, ValueKind,
                    load_edge_tsv, load_ntriples, value_kind, write_edge_tsv)
from .validate import (RejectReason, RelationMode, ValidationSettings,
                       ValidationVerdict, ValueTypeConstraint, check_datatype,
                       check_literal_range, check_value_type,
                       infer_expected_datatype, load_constraints)

__version__ = "0.1.0"

__all__ = [
    "AlignConfig", "AlignMode", "PropertyPath", "enumerate_paths",
    "gestalt_similarity", "normalize_label", "select_path",
    "PipelineConfig", "config_from_dict", "load_config", "load_graph",
    "AgreementReport", "Granularity", "agreement", "format_rate",
    "literal_agreement",
    "ConfigError", "DataFormatError", "KgEnrichError", "UsageError",
    "GapPartition", "detect_gaps",
    "BatchResult", "EnrichmentResult", "batch_enrich", "emit_report",
    "enrich_property", "run_consistency", "write_statements",
    "EntityMapping", "IdTransform", "build_mapping", "inverse_resolve", "resolve",
    "CandidateStatement", "follow_path", "retrieve",
    "Graph", "Literal", "PrefixTable", "Statement",
    "ValueKind", "load_edge_tsv", "load_ntriples", "value_kind", "write_edge_tsv",
    "RejectReason", "RelationMode", "ValidationSettings", "ValidationVerdict",
    "ValueTypeConstraint", "check_datatype", "check_literal_range",
    "check_value_type", "infer_expected_datatype", "load_constraints",
]
