"""fuzzonto: ontology normalization, membership assignment, fuzzy rule output.

Pipeline: parse an OWL/RDF-XML subset (or model JSON), rewrite the model to a
standard form of classes / plain properties / relations, assign exact-rational
membership values mu = 1/n, and generate identifying fuzzy rules.
"""

from .emit import emit_json
from .errors import (
    DuplicateIdentifier,
    FixpointOverflow,
    FuzzontoError,
    MalformedDocument,
    NotNormalized,
    UnsupportedConstruct,
)
from .ingest import parse_document, validate_model
from .membership import assign_all
from .model import Diagnostic, OntologyModel, RawModifier
from .normalize import normalize
from .rules import check_runs, premise_runs

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "DuplicateIdentifier",
    "FixpointOverflow",
    "FuzzontoError",
    "MalformedDocument",
    "NotNormalized",
    "OntologyModel",
    "RawModifier",
    "UnsupportedConstruct",
    "assign_all",
    "check_runs",
    "emit_json",
    "normalize",
    "parse_document",
    "premise_runs",
    "validate_model",
]
