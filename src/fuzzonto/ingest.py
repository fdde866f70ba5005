"""Parsing of the recognized OWL/RDF-XML subset, and model validation.

Recognized RDF/XML constructs: owl:Class, rdfs:subClassOf, owl:equivalentClass,
owl:ObjectProperty, owl:DatatypeProperty, owl:SymmetricProperty,
owl:TransitiveProperty, owl:inverseOf, owl:intersectionOf (parseType
"Collection"), rdfs:domain, rdfs:range, rdf:ID / rdf:about / rdf:resource, and
relation elements nested inside an owl:Class (e.g. <subAreaOf
rdf:resource="#Latvia"/>).  Anything else is recorded as a warning, or raises
UnsupportedConstruct in strict mode.  The document root must be rdf:RDF.

The RDF/XML reader runs one expat pass and keeps one top-level element at a
time.  It reads entities as ElementTree's parser did, and reports a syntax
error anywhere in the document before any other error.  The JSON
interchange form is read by staged.load_json, which only JSON input loads.
"""

from __future__ import annotations

from operator import itemgetter
from xml.parsers import expat

from .errors import DuplicateIdentifier, MalformedDocument, UnsupportedConstruct
from .model import (
    ASSERTED,
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


def parse_document(data, fmt: str = "rdfxml", strict: bool = False) -> OntologyModel:
    """Parse an UTF-8 document into a raw (non-normalized) model."""
    if fmt == "rdfxml":
        return _RdfXmlParser(strict).parse(data)
    if fmt == "json":
        from .staged import load_json  # only JSON input loads json and the reader

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


def _resource_class(model: OntologyModel, value: str) -> str:
    """The class an rdf:resource value names, entered in the model."""
    if value[:1] == "#":  # a local name, as most references are: no IRI
        name = value[1:]
        model.classes.setdefault(name, None)
    else:
        name, iri = _ref_name(value)
        model.touch_class(name, iri)
    return name


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
            self.model.classes.setdefault(name, None)
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
            return _resource_class(self.model, value)
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
                obj = _resource_class(model, value)
                model.relations.setdefault((local, name, obj), ASSERTED)
            elif tag == _RDFS + "subClassOf":
                target = self._class_target(attrs, nested, location)
                if target is not None:
                    model.subclass_axioms.setdefault((name, target), ASSERTED)
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
                target = _resource_class(model, value)
                (domains if local == "domain" else ranges).append(target)
        if modifier_kind is not None:
            model.add_modifier(RawModifier(modifier_kind, name))
        for d in domains:
            if kind == OBJECT:
                for r in ranges:
                    model.relations.setdefault((name, d, r), ASSERTED)
            else:
                model.holdings.setdefault((name, d), ASSERTED)


# -- validation ----------------------------------------------------------------


def validate_model(model: OntologyModel) -> list[Diagnostic]:
    """Consistency diagnostics; never raises.

    Holdings, relations and subclass axioms are filtered first: the names at
    each class or property position, less the declared ones, are the missing
    names, and only the elements that hold one are sorted and rendered.  A
    property that its declaration and uses give both kinds is an error: the
    RDF/XML writer would declare it as both, which the reader rejects.  So is
    a name that is both a class and a property, which both readers reject.
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
    for name in sorted(classes.keys() & (used[DATATYPE] | used[OBJECT])):
        out.append(
            Diagnostic(
                "class-property-conflict", "error", f"{name} is both a class and a property", name
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
