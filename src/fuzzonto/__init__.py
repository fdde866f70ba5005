"""fuzzonto: ontology normalization, membership assignment, fuzzy rule output.

Pipeline: parse an OWL/RDF-XML subset (or model JSON), rewrite the model to a
standard form of classes / plain properties / relations, assign exact-rational
membership values mu = 1/n, and generate identifying fuzzy rules.
"""

from .emit import decimal6, emit_json
from .errors import (
    DuplicateIdentifier,
    FixpointOverflow,
    FuzzontoError,
    MalformedDocument,
    NotNormalized,
    UnsupportedConstruct,
)
from .ingest import parse_document, validate_model
from .membership import (
    AnnotatedOntology,
    ComplexKey,
    MembershipEntry,
    MembershipTable,
    assign_all,
    assign_partof_mu,
    assign_property_mu,
    assign_relation_mu,
    build_equivalence_groups,
    copy_to_equivalents,
)
from .model import Diagnostic, OntologyModel, RawModifier
from .normalize import NormalizeResult, normalize
from .rules import check_runs, premise_runs

__version__ = "0.1.0"

__all__ = [
    "AnnotatedOntology",
    "ComplexKey",
    "Diagnostic",
    "DuplicateIdentifier",
    "FixpointOverflow",
    "FuzzontoError",
    "MalformedDocument",
    "MembershipEntry",
    "MembershipTable",
    "NormalizeResult",
    "NotNormalized",
    "OntologyModel",
    "RawModifier",
    "UnsupportedConstruct",
    "assign_all",
    "assign_partof_mu",
    "assign_property_mu",
    "assign_relation_mu",
    "build_equivalence_groups",
    "check_runs",
    "copy_to_equivalents",
    "decimal6",
    "emit_json",
    "normalize",
    "parse_document",
    "premise_runs",
    "validate_model",
]
