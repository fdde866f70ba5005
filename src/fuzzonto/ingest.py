"""Parsing of the recognized OWL/RDF-XML subset and the JSON interchange form.

Recognized RDF/XML constructs: owl:Class, rdfs:subClassOf, owl:equivalentClass,
owl:ObjectProperty, owl:DatatypeProperty, owl:SymmetricProperty,
owl:TransitiveProperty, owl:inverseOf, owl:intersectionOf (parseType
"Collection"), rdfs:domain, rdfs:range, rdf:ID / rdf:about / rdf:resource, and
relation elements nested inside an owl:Class (e.g. <subAreaOf
rdf:resource="#Latvia"/>).  Anything else is recorded as a warning, or raises
UnsupportedConstruct in strict mode.  The document root must be rdf:RDF.

The RDF/XML reader runs one expat pass and keeps one top-level element at a
time.  It reads entities as ElementTree's parser did, and reports a syntax
error anywhere in the document before any other error.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from xml.parsers import expat

from .errors import DuplicateIdentifier, MalformedDocument, UnsupportedConstruct
from .model import (
    ASSERTED,
    COLLECTIONS,
    DATATYPE,
    ELEMENT_KINDS,
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

# a \uD800-\uDFFF escape: strict UTF-8 decoding lets no other lone surrogate in
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_MODIFIER_KINDS = (SYMMETRIC, TRANSITIVE, INVERSE, INTERSECTION)
_MODEL_KEYS = {"schema", *COLLECTIONS, "normalized"}


def parse_document(data, fmt: str = "rdfxml", strict: bool = False) -> OntologyModel:
    """Parse an UTF-8 document into a raw (non-normalized) model."""
    if fmt == "rdfxml":
        return _RdfXmlParser(strict).parse(data)
    if fmt == "json":
        return load_json(data)
    raise ValueError(f"unknown format {fmt!r}")


# names as expat reports them: namespace, "}", local name; expat rejects a
# namespace that holds "}", so the last "}" in a name ends its namespace
_RDF, _RDFS, _OWL = RDF_NS + "}", RDFS_NS + "}", OWL_NS + "}"
_RESOURCE, _CLASS, _VOCABULARIES = _RDF + "resource", _OWL + "Class", {RDF_NS, RDFS_NS, OWL_NS}
_PROPERTY_TAGS = {  # tag -> (kind, modifier kind)
    _OWL + "ObjectProperty": (OBJECT, None),
    _OWL + "DatatypeProperty": (DATATYPE, None),
    _OWL + "SymmetricProperty": (OBJECT, SYMMETRIC),
    _OWL + "TransitiveProperty": (OBJECT, TRANSITIVE),
}


def _ref_name(value: str) -> tuple[str, str | None]:
    """Local name and optional full IRI for an rdf:about/rdf:resource value."""
    if value.startswith("#"):
        return value[1:], None
    if "#" in value:
        return value.rsplit("#", 1)[1], value
    if "/" in value:
        return value.rsplit("/", 1)[1], value
    return value, None


def _expat_parse(data: bytes, start, end) -> None:
    """Run expat over data as ElementTree did: internal entities expand, under
    expat's amplification limit, and an unexpanded one is an error."""
    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.CharacterDataHandler = len  # keeps text from the default handler

    def unexpanded(text: str) -> None:
        if text[:1] == "&":
            ref = text.encode()[:100].decode(errors="replace")  # ElementTree's cut
            line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
            raise expat.ExpatError(f"undefined entity {ref}: line {line}, column {column}")

    parser.DefaultHandlerExpand = unexpanded
    try:
        parser.Parse(data, False)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise MalformedDocument(f"XML syntax error: {exc}") from exc
    finally:  # the parser and its handler hold each other
        parser.DefaultHandlerExpand = None


class _RdfXmlParser:
    """Builds the model one top-level element at a time: the start handler
    keeps each element's tag, attributes and children down to depth 4 (the
    root's is 1), the deepest the subset reads, and the end tag of a
    top-level element takes it off the root and reads it."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.model = OntologyModel()
        self.warnings: list[Diagnostic] = []
        self.declared: dict[str, str] = {}  # name -> class | datatype | object
        self.path: list = []  # the open elements' children lists, or None below depth 4

    def parse(self, data) -> OntologyModel:
        if isinstance(data, str):
            data = data.encode("utf-8")
        try:
            _expat_parse(data, self._start, self._end)
        except (MalformedDocument, DuplicateIdentifier, UnsupportedConstruct):
            _expat_parse(data, None, None)  # a syntax error comes first, wherever it is
            raise
        self.model.parse_warnings = tuple(self.warnings)
        return self.model

    def _start(self, tag: str, attrs: dict) -> None:
        path = self.path
        if len(path) >= 4:  # below depth 4, which nothing reads
            path.append(None)
        elif path:
            children: list = []
            path[-1].append((tag, attrs, children))
            path.append(children)
        elif tag == _RDF + "RDF":
            path.append([])
        else:
            raise MalformedDocument(f"root element must be rdf:RDF, got {tag.rpartition('}')[2]!r}")

    def _end(self, tag: str) -> None:
        path = self.path
        path.pop()
        if len(path) == 1:  # a top-level element ended
            self._top_level(*path[0].pop())

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

    def _element_name(self, attrs: dict, what: str) -> str | None:
        ident = attrs.get(_RDF + "ID")
        if ident is not None:
            return ident
        about = attrs.get(_RDF + "about")
        if about is not None:
            name, iri = _ref_name(about)
            if iri and what == "class":
                self.model.touch_class(name, iri)
            return name
        self._unsupported(f"anonymous {what}")
        return None

    def _class_target(self, attrs: dict, children: list, location: str) -> str | None:
        """The class named by rdf:resource or by the first named owl:Class child."""
        value = attrs.get(_RESOURCE)
        if value is not None:
            name, iri = _ref_name(value)
            self.model.touch_class(name, iri)
            return name
        for tag, attrs, _ in children:
            if tag != _CLASS:
                self._unsupported(f"nested {tag.rpartition('}')[2]}", location)
                return None
            name = self._element_name(attrs, "class")
            if name is not None:
                self.model.touch_class(name)
                return name
        self._unsupported("empty class reference", location)
        return None

    def _top_level(self, tag: str, attrs: dict, children: list) -> None:
        if tag == _CLASS:
            self._class(attrs, children)
        elif tag in _PROPERTY_TAGS:
            self._property(attrs, children, *_PROPERTY_TAGS[tag])
        elif tag == _OWL + "Ontology":
            for tag, _, _ in children:
                if tag == _OWL + "imports":
                    self._warn("imports-ignored", "owl:imports is ignored", "owl:Ontology")
                else:
                    what = f"ontology header element {tag.rpartition('}')[2]}"
                    self._unsupported(what, "owl:Ontology")
        else:
            self._unsupported(f"top-level element {tag.rpartition('}')[2]}")

    def _class(self, attrs: dict, children: list) -> None:
        name = self._element_name(attrs, "class")
        if name is None:
            return
        location = f"owl:Class {name}"
        self._declare(name, "class", location)
        model = self.model
        for tag, attrs, nested in children:
            ns, _, local = tag.rpartition("}")
            if ns not in _VOCABULARIES:  # a relation element, such as <subAreaOf>
                value = attrs.get(_RESOURCE)
                if value is None:
                    self._unsupported(f"relation element {local} without rdf:resource", location)
                    continue
                obj, iri = _ref_name(value)
                model.touch_class(obj, iri)
                model.add_relation(local, name, obj, ASSERTED)
            elif tag == _RDFS + "subClassOf":
                target = self._class_target(attrs, nested, location)
                if target is not None:
                    model.add_subclass(name, target)
            elif tag == _OWL + "equivalentClass":
                target = self._class_target(attrs, nested, location)
                if target == name:
                    self._warn("self-equivalence", f"self-equivalence dropped for {name}", location)
                elif target is not None:
                    model.add_equivalence(name, target)
            elif tag == _OWL + "intersectionOf":
                if attrs.get(_RDF + "parseType") != "Collection":
                    self._unsupported("intersectionOf without parseType Collection", location)
                    continue
                members = []
                for tag, attrs, _ in nested:
                    if tag != _CLASS:
                        self._unsupported(f"intersection member {tag.rpartition('}')[2]}", location)
                        continue
                    member = self._element_name(attrs, "class")
                    if member is not None:
                        model.touch_class(member)
                        members.append(member)
                model.add_modifier(RawModifier(INTERSECTION, name, members=tuple(members)))
            elif tag != _RDF + "type":
                self._unsupported(f"class element {local}", location)

    def _property(self, attrs: dict, children: list, kind: str, modifier_kind: str | None) -> None:
        name = self._element_name(attrs, "property")
        if name is None:
            return
        location = f"owl:{kind.capitalize()}Property {name}"
        self._declare(name, kind, location)
        model = self.model
        domains: list[str] = []
        ranges: list[str] = []
        for tag, attrs, _ in children:
            local, value = tag.rpartition("}")[2], attrs.get(_RESOURCE)
            if tag not in (_RDFS + "domain", _RDFS + "range", _OWL + "inverseOf"):
                if tag != _RDF + "type":
                    self._unsupported(f"property element {local}", location)
            elif value is None:
                self._unsupported(f"{local} without rdf:resource", location)
            elif local == "inverseOf":  # which makes the counterpart an object property
                counterpart = _ref_name(value)[0]
                self._declare(counterpart, OBJECT, location)
                model.add_modifier(RawModifier(INVERSE, name, counterpart=counterpart))
            elif local == "domain" or kind == OBJECT:  # datatype ranges (XSD types) name no class
                target, iri = _ref_name(value)
                model.touch_class(target, iri)
                (domains if local == "domain" else ranges).append(target)
        if modifier_kind is not None:
            model.add_modifier(RawModifier(modifier_kind, name))
        for d in domains:
            if kind == OBJECT:
                for r in ranges:
                    model.add_relation(name, d, r, ASSERTED)
            else:
                model.add_holding(name, d, ASSERTED)


# -- JSON interchange ---------------------------------------------------------


def load_json(data) -> OntologyModel:
    """Load the JSON interchange form; inverse of emit.emit_json.  Bytes may
    start with a UTF-8 byte order mark.  A lone surrogate, escaped or in a
    str, which no UTF-8 output can carry, makes the document malformed."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8-sig")
        else:
            data.encode("utf-8")
        doc = json.loads(data)
        if _SURROGATE_ESCAPE.search(data):  # a pair is fine; a lone one cannot be written
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"JSON syntax error: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise MalformedDocument(f"lone surrogate {exc.object[exc.start]!r} in a string") from None
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

    for kind in ELEMENT_KINDS:
        elements = getattr(model, kind.attr)
        for i, item in enumerate(_array(doc, kind.array)):
            where = f"{kind.array}[{i}]"
            key = tuple([_field(item, name, str, where) for name in kind.fields])
            elements.setdefault(key, _origin(item, where))  # the first origin stays

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

    Holdings, relations and subclass axioms are filtered first: the names at
    each class or property position, less the declared ones, are the missing
    names, and only the elements that hold one are sorted and rendered.  A
    property that its declaration and uses give both kinds is an error: the
    RDF/XML writer would declare it as both, which the reader rejects.
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

    used: dict[str, set[str]] = {DATATYPE: set(), OBJECT: set()}  # kind -> names used as one
    for kind in ELEMENT_KINDS:
        elements = getattr(model, kind.attr)
        missing: set[str] = set()
        for i in kind.class_slots:
            missing |= set(map(itemgetter(i), elements)).difference(classes)
        for i in kind.property_slots:
            names = set(map(itemgetter(i), elements))
            used[kind.needs] |= names
            missing |= names.difference(properties)
        if not missing:
            continue
        # a name may be missing as a class and declared as a property, or the
        # other way round; the checks below tell
        for key in sorted(key for key in elements if not missing.isdisjoint(key)):
            where = kind.render(*key)
            for i in kind.class_slots:
                check_class(key[i], where)
            for i in kind.property_slots:
                check_property(key[i], where)
    # not el_equivalence, which sorts: a library caller can put an unsorted
    # pair in the set, and its location shows the pair as it is
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

    for m in model.sorted_modifiers():
        where = f"{m.kind} modifier on {m.target}"
        if m.kind == INTERSECTION:
            check_class(m.target, where)
            for member in m.members:
                check_class(member, where)
        else:
            check_property(m.target, where)
            used[OBJECT].add(m.target)
        if m.kind == INVERSE and m.counterpart is not None:
            used[OBJECT].add(m.counterpart)
            if m.counterpart not in model.properties:
                out.append(
                    Diagnostic(
                        "undeclared-inverse",
                        "warning",
                        f"inverseOf names undeclared property {m.counterpart}",
                        where,
                    )
                )

    for name in sorted(properties.keys() - used[DATATYPE] - used[OBJECT]):
        out.append(
            Diagnostic(
                "property-unused",
                "warning",
                f"property {name} has no domain/range assertions",
                name,
            )
        )

    # a property has one kind, which its declaration and every use must agree on
    for name, kind in properties.items():
        used.setdefault(kind, set()).add(name)
    for name in sorted(used[DATATYPE] & used[OBJECT]):
        out.append(
            Diagnostic(
                "property-kind-conflict",
                "error",
                f"property {name} used both as datatype and as object",
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
