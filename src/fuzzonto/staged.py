"""The model JSON reader and the RDF/XML and assign writers, which ``cli`` and
``ingest.parse_document`` import only for the input, command or ``--format``
that needs them: a ``rules`` run on RDF/XML loads neither this nor ``json``.
"""

from __future__ import annotations

import json
import re

from .emit import decimal6, dump_json, model_to_obj
from .errors import DuplicateIdentifier, MalformedDocument, NotNormalized, UnwritableName
from .ingest import OWL_NS, RDF_NS, RDFS_NS, SCHEMA_VERSION
from .membership import PART_OF, PROPERTY, AnnotatedOntology
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

# a \uD800-\uDFFF escape: strict UTF-8 decoding lets no other lone surrogate in
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_MODIFIER_KINDS = (SYMMETRIC, TRANSITIVE, INVERSE, INTERSECTION)
_MODEL_KEYS = {"schema", *COLLECTIONS, "normalized"}


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


# -- normalized RDF/XML -----------------------------------------------------------


def emit_normalized_rdf(m: OntologyModel) -> bytes:
    """RDF/XML holding only classes, plain properties, subclass and
    equivalence axioms.  One property block per domain/range assertion so a
    re-parse recovers exactly the same relation set.  A name or IRI with a
    character outside XML 1.0's Char production raises UnwritableName."""
    if not m.normalized:
        raise NotNormalized("RDF export is defined for normalized models only")
    names = {*m.classes, *filter(None, m.classes.values()), *m.properties}  # each checked once
    names.update(*m.holdings, *m.relations, *m.subclass_axioms, *m.equivalences)
    bad = re.search("[^\t\n\r -\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]", "\t".join(names))
    if bad:
        name = min(name for name in names if bad[0] in name)
        raise UnwritableName(f"{name!r} holds U+{ord(bad[0]):04X}, which XML 1.0 cannot carry")
    # imported here: xml.sax.saxutils pulls in urllib.request, http.client and
    # ssl, which every other command would pay for at start-up
    from xml.sax.saxutils import quoteattr

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<rdf:RDF xmlns:rdf={quoteattr(RDF_NS)} xmlns:rdfs={quoteattr(RDFS_NS)} '
        f"xmlns:owl={quoteattr(OWL_NS)}>",
    ]

    subs: dict[str, list[str]] = {}
    for sub, sup in sorted(m.subclass_axioms):
        subs.setdefault(sub, []).append(sup)
    equivalents: dict[str, list[str]] = {}
    for a, b in sorted(m.equivalences):
        equivalents.setdefault(a, []).append(b)

    for name, iri in sorted(m.classes.items()):
        children = [
            f"    <rdfs:subClassOf rdf:resource={quoteattr('#' + sup)}/>"
            for sup in subs.get(name, ())
        ]
        children += [
            f"    <owl:equivalentClass rdf:resource={quoteattr('#' + other)}/>"
            for other in equivalents.get(name, ())
        ]
        about = iri if iri is not None else f"#{name}"  # an empty IRI is kept as-is
        opener = f"  <owl:Class rdf:about={quoteattr(about)}"
        if children:
            lines.append(opener + ">")
            lines.extend(children)
            lines.append("  </owl:Class>")
        else:
            lines.append(opener + "/>")

    # one block per holding or relation, under the kind it needs, and a bare
    # block for each declared property that none names
    blocks = {kind.needs: list(getattr(m, kind.attr)) for kind in ELEMENT_KINDS if kind.needs}
    emitted_props = {key[0] for keys in blocks.values() for key in keys}
    for name, kind in sorted(m.properties.items()):
        if name not in emitted_props:
            blocks[DATATYPE if kind == DATATYPE else OBJECT].append((name,))

    for kind, tag in ((DATATYPE, "owl:DatatypeProperty"), (OBJECT, "owl:ObjectProperty")):
        for name, *ends in sorted(blocks[kind]):  # ends: the domain, then the range if any
            opener = f"  <{tag} rdf:about={quoteattr('#' + name)}"
            if ends:
                lines.append(opener + ">")
                lines.extend(
                    f"    <rdfs:{end} rdf:resource={quoteattr('#' + target)}/>"
                    for end, target in zip(("domain", "range"), ends)
                )
                lines.append(f"  </{tag}>")
            else:
                lines.append(opener + "/>")

    lines.append("</rdf:RDF>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- the assign JSON --------------------------------------------------------------


def mu_to_obj(n: int) -> dict:
    return {"num": 1, "den": n, "decimal": decimal6(n)}


def _key_to_obj(kind: str, key) -> dict:
    if kind == PROPERTY:
        return {"property": key}
    if kind == PART_OF:
        return {"class": key.resulting_class}
    return {"predicate": key.predicate, "class": key.resulting_class}


def annotated_to_json(annotated: AnnotatedOntology) -> bytes:
    membership = [
        {
            "key": _key_to_obj(kind, key),
            "kind": kind,
            "mu": mu_to_obj(entry.n),
            "determiners": list(entry.determiners),
        }
        for kind, key, entry in annotated.table.entries()
    ]
    return dump_json(
        {
            "schema": SCHEMA_VERSION,
            "model": model_to_obj(annotated.model),
            "membership": membership,
        }
    )
