"""Parsing of the recognized OWL/RDF-XML subset and the JSON interchange form.

Recognized RDF/XML constructs: owl:Class, rdfs:subClassOf, owl:equivalentClass,
owl:ObjectProperty, owl:DatatypeProperty, owl:SymmetricProperty,
owl:TransitiveProperty, owl:inverseOf, owl:intersectionOf (parseType
"Collection"), rdfs:domain, rdfs:range, rdf:ID / rdf:about / rdf:resource, and
relation elements nested inside an owl:Class (e.g. <subAreaOf
rdf:resource="#Latvia"/>).  Anything else is recorded as a warning, or raises
UnsupportedConstruct in strict mode.  The document root must be rdf:RDF.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from .errors import DuplicateIdentifier, MalformedDocument, UnsupportedConstruct
from .model import (
    ASSERTED,
    DATATYPE,
    INTERSECTION,
    INVERSE,
    OBJECT,
    SYMMETRIC,
    TRANSITIVE,
    Diagnostic,
    OntologyModel,
    RawModifier,
)

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

SCHEMA_VERSION = "fuzzonto/1"

_MODIFIER_KINDS = (SYMMETRIC, TRANSITIVE, INVERSE, INTERSECTION)
_MODEL_KEYS = {
    "schema",
    "classes",
    "properties",
    "holdings",
    "relations",
    "subclass",
    "equivalences",
    "modifiers",
    "normalized",
}


def parse_document(data, fmt: str = "rdfxml", strict: bool = False) -> OntologyModel:
    """Parse an UTF-8 document into a raw (non-normalized) model."""
    if fmt == "rdfxml":
        return _RdfXmlParser(strict).parse(data)
    if fmt == "json":
        return load_json(data)
    raise ValueError(f"unknown format {fmt!r}")


def _split_tag(tag: str) -> tuple[str, str]:
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns, local
    return "", tag


def _ref_name(value: str) -> tuple[str, str | None]:
    """Local name and optional full IRI for an rdf:about/rdf:resource value."""
    if value.startswith("#"):
        return value[1:], None
    if "#" in value:
        return value.rsplit("#", 1)[1], value
    if "/" in value:
        return value.rsplit("/", 1)[1], value
    return value, None


class _RdfXmlParser:
    def __init__(self, strict: bool):
        self.strict = strict
        self.model = OntologyModel()
        self.warnings: list[Diagnostic] = []
        self.declared: dict[str, str] = {}  # name -> class | datatype | object

    # -- helpers ----------------------------------------------------------

    def _warn(self, code: str, message: str, location: str | None = None) -> None:
        self.warnings.append(Diagnostic(code, "warning", message, location))

    def _unsupported(self, what: str, location: str | None = None) -> None:
        if self.strict:
            raise UnsupportedConstruct(f"{what}" + (f" ({location})" if location else ""))
        self._warn("unsupported-construct", f"{what} skipped", location)

    def _declare(self, name: str, kind: str, location: str) -> None:
        existing = self.declared.get(name)
        if existing is not None and existing != kind:
            raise DuplicateIdentifier(
                f"{name!r} declared both as {existing} and as {kind} ({location})"
            )
        self.declared[name] = kind
        if kind == "class":
            self.model.touch_class(name)
        else:
            self.model.declare_property(name, kind)

    def _element_name(self, el, what: str) -> str | None:
        ident = el.get(f"{{{RDF_NS}}}ID")
        if ident is not None:
            return ident
        about = el.get(f"{{{RDF_NS}}}about")
        if about is not None:
            name, iri = _ref_name(about)
            if iri and what == "class":
                self.model.touch_class(name, iri)
            return name
        self._unsupported(f"anonymous {what}")
        return None

    def _resource(self, el) -> tuple[str, str | None] | None:
        value = el.get(f"{{{RDF_NS}}}resource")
        if value is None:
            return None
        return _ref_name(value)

    def _class_target(self, el, location: str) -> str | None:
        """Class named by rdf:resource or by a nested owl:Class child."""
        res = self._resource(el)
        if res is not None:
            name, iri = res
            self.model.touch_class(name, iri)
            return name
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (OWL_NS, "Class"):
                name = self._element_name(child, "class")
                if name is not None:
                    self.model.touch_class(name)
                    return name
            else:
                self._unsupported(f"nested {local}", location)
                return None
        self._unsupported("empty class reference", location)
        return None

    # -- walk ---------------------------------------------------------------

    def parse(self, data) -> OntologyModel:
        if isinstance(data, str):
            data = data.encode("utf-8")
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            raise MalformedDocument(f"XML syntax error: {exc}") from exc
        ns, local = _split_tag(root.tag)
        if (ns, local) != (RDF_NS, "RDF"):
            raise MalformedDocument(f"root element must be rdf:RDF, got {local!r}")

        for el in root:
            ns, local = _split_tag(el.tag)
            if (ns, local) == (OWL_NS, "Class"):
                self._parse_class(el)
            elif (ns, local) == (OWL_NS, "ObjectProperty"):
                self._parse_property(el, OBJECT)
            elif (ns, local) == (OWL_NS, "DatatypeProperty"):
                self._parse_property(el, DATATYPE)
            elif (ns, local) == (OWL_NS, "SymmetricProperty"):
                self._parse_property(el, OBJECT, modifier_kind=SYMMETRIC)
            elif (ns, local) == (OWL_NS, "TransitiveProperty"):
                self._parse_property(el, OBJECT, modifier_kind=TRANSITIVE)
            elif (ns, local) == (OWL_NS, "Ontology"):
                self._parse_ontology_header(el)
            else:
                self._unsupported(f"top-level element {local}")

        model = self.model
        model.parse_warnings = tuple(self.warnings)
        return model

    def _parse_ontology_header(self, el) -> None:
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (OWL_NS, "imports"):
                self._warn("imports-ignored", "owl:imports is ignored", "owl:Ontology")
            else:
                self._unsupported(f"ontology header element {local}", "owl:Ontology")

    def _parse_class(self, el) -> None:
        name = self._element_name(el, "class")
        if name is None:
            return
        location = f"owl:Class {name}"
        self._declare(name, "class", location)

        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (RDFS_NS, "subClassOf"):
                target = self._class_target(child, location)
                if target is not None:
                    self.model.add_subclass(name, target, ASSERTED)
            elif (ns, local) == (OWL_NS, "equivalentClass"):
                target = self._class_target(child, location)
                if target is None:
                    continue
                if not self.model.add_equivalence(name, target) and name == target:
                    self._warn(
                        "self-equivalence",
                        f"self-equivalence dropped for {name}",
                        location,
                    )
            elif (ns, local) == (OWL_NS, "intersectionOf"):
                self._parse_intersection(child, name, location)
            elif (ns, local) == (RDF_NS, "type"):
                pass
            elif ns in (RDF_NS, RDFS_NS, OWL_NS):
                self._unsupported(f"class element {local}", location)
            else:
                self._parse_nested_relation(child, name, local, location)

    def _parse_intersection(self, el, name: str, location: str) -> None:
        if el.get(f"{{{RDF_NS}}}parseType") != "Collection":
            self._unsupported("intersectionOf without parseType Collection", location)
            return
        members = []
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (OWL_NS, "Class"):
                member = self._element_name(child, "class")
                if member is not None:
                    self.model.touch_class(member)
                    members.append(member)
            else:
                self._unsupported(f"intersection member {local}", location)
        self.model.add_modifier(
            RawModifier(INTERSECTION, name, members=tuple(members))
        )

    def _parse_nested_relation(self, el, subject: str, predicate: str, location: str) -> None:
        res = self._resource(el)
        if res is None:
            self._unsupported(f"relation element {predicate} without rdf:resource", location)
            return
        obj, iri = res
        self.model.touch_class(obj, iri)
        self.model.add_relation(predicate, subject, obj, ASSERTED)

    def _parse_property(self, el, kind: str, modifier_kind: str | None = None) -> None:
        name = self._element_name(el, "property")
        if name is None:
            return
        location = f"owl:{kind.capitalize()}Property {name}"
        self._declare(name, kind, location)

        domains: list[str] = []
        ranges: list[str] = []
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (RDFS_NS, "domain"):
                res = self._resource(child)
                if res is None:
                    self._unsupported("domain without rdf:resource", location)
                    continue
                self.model.touch_class(res[0], res[1])
                domains.append(res[0])
            elif (ns, local) == (RDFS_NS, "range"):
                res = self._resource(child)
                if res is None:
                    self._unsupported("range without rdf:resource", location)
                    continue
                if kind == OBJECT:
                    self.model.touch_class(res[0], res[1])
                    ranges.append(res[0])
                # datatype ranges (XSD types) carry no class information
            elif (ns, local) == (OWL_NS, "inverseOf"):
                res = self._resource(child)
                if res is None:
                    self._unsupported("inverseOf without rdf:resource", location)
                    continue
                counterpart = res[0]
                # inverseOf implies the counterpart is an object property
                self._declare(counterpart, OBJECT, location)
                self.model.add_modifier(RawModifier(INVERSE, name, counterpart=counterpart))
            elif (ns, local) == (RDF_NS, "type"):
                pass
            else:
                self._unsupported(f"property element {local}", location)

        if modifier_kind is not None:
            self.model.add_modifier(RawModifier(modifier_kind, name))

        if kind == OBJECT:
            for d in domains:
                for r in ranges:
                    self.model.add_relation(name, d, r, ASSERTED)
        else:
            for d in domains:
                self.model.add_holding(name, d, ASSERTED)


# -- JSON interchange ---------------------------------------------------------


def load_json(data) -> OntologyModel:
    """Load the JSON interchange form; inverse of emit.emit_json.  Bytes may
    start with a UTF-8 byte order mark."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"JSON syntax error: {exc}") from exc
    except RecursionError:
        raise MalformedDocument("JSON nesting too deep") from None
    if not isinstance(doc, dict):
        raise MalformedDocument("top-level JSON value must be an object")

    warnings: list[Diagnostic] = []
    schema = doc.get("schema")
    if schema is None:
        warnings.append(Diagnostic("missing-schema", "warning", "schema field absent"))
    elif schema != SCHEMA_VERSION:
        raise MalformedDocument(f"unsupported schema {schema!r}")
    for key in sorted(doc):
        if key not in _MODEL_KEYS:
            warnings.append(
                Diagnostic("unknown-key", "warning", f"unknown key {key!r} ignored")
            )

    model = OntologyModel()

    for i, item in enumerate(_array(doc, "classes")):
        name = _field(item, "name", str, f"classes[{i}]")
        iri = item.get("iri")
        if iri is not None and not isinstance(iri, str):
            raise MalformedDocument(f"classes[{i}].iri must be a string")
        model.touch_class(name, iri)

    for i, item in enumerate(_array(doc, "properties")):
        where = f"properties[{i}]"
        name = _field(item, "name", str, where)
        kind = _field(item, "kind", str, where)
        if kind not in (DATATYPE, OBJECT):
            raise MalformedDocument(f"{where}.kind must be datatype or object")
        if name in model.classes:
            raise DuplicateIdentifier(f"{name!r} is both a class and a property")
        model.declare_property(name, kind)

    for i, item in enumerate(_array(doc, "holdings")):
        where = f"holdings[{i}]"
        model.add_holding(
            _field(item, "property", str, where),
            _field(item, "holder", str, where),
            _origin(item, where),
        )

    for i, item in enumerate(_array(doc, "relations")):
        where = f"relations[{i}]"
        model.add_relation(
            _field(item, "predicate", str, where),
            _field(item, "subject", str, where),
            _field(item, "object", str, where),
            _origin(item, where),
        )

    for i, item in enumerate(_array(doc, "subclass")):
        where = f"subclass[{i}]"
        model.add_subclass(
            _field(item, "sub", str, where),
            _field(item, "super", str, where),
            _origin(item, where),
        )

    for i, item in enumerate(_array(doc, "equivalences")):
        where = f"equivalences[{i}]"
        a = _field(item, "a", str, where)
        b = _field(item, "b", str, where)
        if a == b:
            warnings.append(
                Diagnostic(
                    "self-equivalence", "warning", f"self-equivalence dropped for {a}", where
                )
            )
            continue
        model.add_equivalence(a, b)

    for i, item in enumerate(_array(doc, "modifiers")):
        where = f"modifiers[{i}]"
        kind = _field(item, "kind", str, where)
        target = _field(item, "target", str, where)
        if kind not in _MODIFIER_KINDS:
            raise MalformedDocument(f"{where}.kind must be one of {_MODIFIER_KINDS}")
        counterpart = None
        members: tuple[str, ...] = ()
        if kind == INVERSE:
            counterpart = _field(item, "counterpart", str, where)
        if kind == INTERSECTION:
            raw = item.get("members")
            if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
                raise MalformedDocument(f"{where}.members must be a list of strings")
            members = tuple(raw)
        model.add_modifier(RawModifier(kind, target, counterpart, members))

    normalized = doc.get("normalized", False)
    if not isinstance(normalized, bool):
        raise MalformedDocument("normalized must be a boolean")
    if normalized and model.modifiers:
        raise MalformedDocument("a normalized model must not carry modifiers")
    model.normalized = normalized
    model.parse_warnings = tuple(warnings)
    return model


def _array(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise MalformedDocument(f"{key} must be an array")
    return value


def _field(item, name: str, typ, where: str):
    if not isinstance(item, dict):
        raise MalformedDocument(f"{where} must be an object")
    value = item.get(name)
    if not isinstance(value, typ):
        raise MalformedDocument(f"{where}.{name} missing or not a {typ.__name__}")
    return value


def _origin(item: dict, where: str) -> str:
    value = item.get("origin", ASSERTED)
    if not isinstance(value, str):
        raise MalformedDocument(f"{where}.origin must be a string")
    return value


# -- validation ----------------------------------------------------------------


def validate_model(model: OntologyModel) -> list[Diagnostic]:
    """Consistency diagnostics; never raises.

    Holdings, relations and subclass axioms are filtered by dictionary
    lookups first; only the elements that fail a check are sorted and
    rendered.
    """
    out: list[Diagnostic] = []
    classes, properties = model.classes, model.properties

    def check_class(name: str, location: str) -> None:
        if name not in classes:
            out.append(
                Diagnostic(
                    "undeclared-class",
                    "error",
                    f"class {name} referenced but not present",
                    location,
                )
            )

    def check_property(name: str, location: str) -> None:
        if name not in properties:
            out.append(
                Diagnostic(
                    "undeclared-property",
                    "warning",
                    f"property {name} used but not declared",
                    location,
                )
            )

    failing = [
        (prop, holder)
        for prop, holder in model.holdings
        if holder not in classes or prop not in properties
    ]
    for prop, holder in sorted(failing):
        check_class(holder, f"holding {prop}/{holder}")
        check_property(prop, f"holding {prop}/{holder}")
    failing = [
        (pred, subject, obj)
        for pred, subject, obj in model.relations
        if subject not in classes or obj not in classes or pred not in properties
    ]
    for pred, subject, obj in sorted(failing):
        where = f"relation {pred}({subject}, {obj})"
        check_class(subject, where)
        check_class(obj, where)
        check_property(pred, where)
    failing = [
        (sub, sup)
        for sub, sup in model.subclass_axioms
        if sub not in classes or sup not in classes
    ]
    for sub, sup in sorted(failing):
        where = f"subclass {sub} -> {sup}"
        check_class(sub, where)
        check_class(sup, where)
    for a, b in sorted(model.equivalences):
        where = f"equivalence ({a}, {b})"
        check_class(a, where)
        check_class(b, where)
        if a == b:
            out.append(
                Diagnostic(
                    "self-equivalence", "warning", f"self-equivalence dropped for {a}", where
                )
            )

    modifier_props: set[str] = set()
    for m in model.sorted_modifiers():
        where = f"{m.kind} modifier on {m.target}"
        if m.kind == INTERSECTION:
            check_class(m.target, where)
            for member in m.members:
                check_class(member, where)
        else:
            check_property(m.target, where)
            modifier_props.add(m.target)
        if m.kind == INVERSE and m.counterpart is not None:
            modifier_props.add(m.counterpart)
            if m.counterpart not in model.properties:
                out.append(
                    Diagnostic(
                        "undeclared-inverse",
                        "warning",
                        f"inverseOf names undeclared property {m.counterpart}",
                        where,
                    )
                )

    used = {prop for prop, _ in model.holdings}
    used |= {pred for pred, _, _ in model.relations}
    used |= modifier_props
    for name in sorted(properties.keys() - used):
        out.append(
            Diagnostic(
                "property-unused",
                "warning",
                f"property {name} has no domain/range assertions",
                name,
            )
        )

    if model.normalized and model.modifiers:
        out.append(
            Diagnostic(
                "modifiers-in-normalized",
                "error",
                "normalized model still carries raw modifiers",
            )
        )
    return out
