"""fuzzonto: ontology normalization, membership assignment, fuzzy rule output.

Pipeline: parse an OWL/RDF-XML subset (or model JSON), rewrite the model to a
standard form of classes / plain properties / relations, assign exact-rational
membership values mu = 1/n, and generate identifying fuzzy rules.
"""

from .emit import (
    annotated_to_json,
    decimal6,
    emit_json,
    emit_normalized_rdf,
    rules_to_json,
)
from .errors import (
    DuplicateIdentifier,
    FixpointOverflow,
    FuzzontoError,
    MalformedDocument,
    NotNormalized,
    UnsupportedConstruct,
)
from .ingest import load_json, parse_document, validate_model
from .membership import (
    AnnotatedOntology,
    ComplexKey,
    EquivalenceGroups,
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
from .normalize import NormalizeResult, RewriteTrace, normalize
from .rules import FuzzyRule, check_consistency, generate_rules

__version__ = "0.1.0"

__all__ = [
    "AnnotatedOntology",
    "ComplexKey",
    "Diagnostic",
    "DuplicateIdentifier",
    "EquivalenceGroups",
    "FixpointOverflow",
    "FuzzontoError",
    "FuzzyRule",
    "MalformedDocument",
    "MembershipEntry",
    "MembershipTable",
    "NormalizeResult",
    "NotNormalized",
    "OntologyModel",
    "RawModifier",
    "RewriteTrace",
    "UnsupportedConstruct",
    "annotated_to_json",
    "assign_all",
    "assign_partof_mu",
    "assign_property_mu",
    "assign_relation_mu",
    "build_equivalence_groups",
    "check_consistency",
    "copy_to_equivalents",
    "decimal6",
    "emit_json",
    "emit_normalized_rdf",
    "generate_rules",
    "load_json",
    "normalize",
    "parse_document",
    "rules_to_json",
    "validate_model",
]
