"""Serialization: canonical JSON documents and the normalized RDF/XML form.

Everything here is byte-deterministic: collections are emitted in canonical
sort order, JSON uses sorted keys and a fixed indent, and the RDF/XML writer
builds the document textually from sorted blocks.  Exact rational mu values
are rendered to six decimal places (banker's rounding) only at this layer.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from json.encoder import encode_basestring as _quote

from .errors import NotNormalized
from .ingest import OWL_NS, RDF_NS, RDFS_NS, SCHEMA_VERSION
from .membership import PART_OF, PROPERTY, AnnotatedOntology
from .model import DATATYPE, INTERSECTION, INVERSE, OntologyModel
from .rules import FuzzyRule

_SIX_PLACES = Decimal("0.000001")


def decimal6(value: Fraction) -> str:
    """Six-fractional-digit decimal string, round half to even."""
    quantized = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        _SIX_PLACES, rounding=ROUND_HALF_EVEN
    )
    return str(quantized)


def dump_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode(
        "utf-8"
    )


# -- model ----------------------------------------------------------------------


def model_to_obj(m: OntologyModel) -> dict:
    classes = []
    for name, iri in sorted(m.classes.items()):
        item = {"name": name}
        if iri is not None:
            item["iri"] = iri
        classes.append(item)

    modifiers = []
    for mod in m.sorted_modifiers():
        item = {"kind": mod.kind, "target": mod.target}
        if mod.kind == INVERSE:
            item["counterpart"] = mod.counterpart
        if mod.kind == INTERSECTION:
            item["members"] = list(mod.members)
        modifiers.append(item)

    return {
        "classes": classes,
        "properties": [
            {"name": name, "kind": kind} for name, kind in sorted(m.properties.items())
        ],
        "holdings": [
            {"property": prop, "holder": holder, "origin": origin}
            for (prop, holder), origin in sorted(m.holdings.items())
        ],
        "relations": [
            {"predicate": pred, "subject": subject, "object": obj, "origin": origin}
            for (pred, subject, obj), origin in sorted(m.relations.items())
        ],
        "subclass": [
            {"sub": sub, "super": sup, "origin": origin}
            for (sub, sup), origin in sorted(m.subclass_axioms.items())
        ],
        "equivalences": [{"a": a, "b": b} for a, b in sorted(m.equivalences)],
        "modifiers": modifiers,
        "normalized": m.normalized,
    }


def emit_json(m: OntologyModel) -> bytes:
    obj = model_to_obj(m)
    obj["schema"] = SCHEMA_VERSION
    return dump_json(obj)


# -- normalized RDF/XML -----------------------------------------------------------


def emit_normalized_rdf(m: OntologyModel) -> bytes:
    """RDF/XML holding only classes, plain properties, subclass and
    equivalence axioms.  One property block per domain/range assertion so a
    re-parse recovers exactly the same relation set."""
    if not m.normalized:
        raise NotNormalized("RDF export is defined for normalized models only")
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

    datatype_blocks = list(m.holdings)  # (property, holder or "")
    object_blocks = list(m.relations)  # (predicate, subject or "", object or "")
    emitted_props = {prop for prop, _ in datatype_blocks}
    emitted_props.update(pred for pred, _, _ in object_blocks)
    for name, kind in sorted(m.properties.items()):
        if name in emitted_props:
            continue
        if kind == DATATYPE:
            datatype_blocks.append((name, ""))
        else:
            object_blocks.append((name, "", ""))

    for name, holder in sorted(datatype_blocks):
        opener = f"  <owl:DatatypeProperty rdf:about={quoteattr('#' + name)}"
        if holder:
            lines.append(opener + ">")
            lines.append(f"    <rdfs:domain rdf:resource={quoteattr('#' + holder)}/>")
            lines.append("  </owl:DatatypeProperty>")
        else:
            lines.append(opener + "/>")

    for name, subject, obj in sorted(object_blocks):
        opener = f"  <owl:ObjectProperty rdf:about={quoteattr('#' + name)}"
        if subject:
            lines.append(opener + ">")
            lines.append(f"    <rdfs:domain rdf:resource={quoteattr('#' + subject)}/>")
            lines.append(f"    <rdfs:range rdf:resource={quoteattr('#' + obj)}/>")
            lines.append("  </owl:ObjectProperty>")
        else:
            lines.append(opener + "/>")

    lines.append("</rdf:RDF>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- membership and rules -----------------------------------------------------------


def mu_to_obj(mu: Fraction) -> dict:
    return {"num": mu.numerator, "den": mu.denominator, "decimal": decimal6(mu)}


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
            "mu": mu_to_obj(entry.mu),
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


def _premise_to_obj(premise) -> dict:
    if isinstance(premise, str):
        return {"kind": PROPERTY, "property": premise}
    if premise.kind == PART_OF:
        return {"kind": PART_OF, "class": premise.resulting_class}
    return {
        "kind": premise.kind,
        "predicate": premise.predicate,
        "class": premise.resulting_class,
    }


def _rule_field_block(obj: dict) -> str:
    """A flat dict of scalars as dump_json renders it as a field of a rule."""
    fields = ",\n".join(
        f"        {_quote(key)}: "
        + (_quote(value) if isinstance(value, str) else json.dumps(value))
        for key, value in sorted(obj.items())
    )
    return "{\n" + fields + "\n      }"


def rules_to_json(rules: list[FuzzyRule]) -> bytes:
    """The bytes dump_json gives for {"schema", "rules": [...]}, written
    record by record.

    The stdlib encodes indented JSON in pure Python.  Every rule record has
    the same shape, so it is written here directly, with C string escaping,
    and each distinct premise and mu block is rendered once.
    """
    premise_blocks: dict = {}
    mu_blocks: dict = {}
    records = []
    for r in rules:
        premise = premise_blocks.get(r.premise)
        if premise is None:
            premise = premise_blocks[r.premise] = _rule_field_block(
                _premise_to_obj(r.premise)
            )
        mu_key = (r.mu.numerator, r.mu.denominator)  # cheaper to hash than a Fraction
        mu = mu_blocks.get(mu_key)
        if mu is None:
            mu = mu_blocks[mu_key] = _rule_field_block(mu_to_obj(r.mu))
        records.append(
            f'    {{\n      "category": {_quote(r.category)},\n'
            f'      "conclusion": {_quote(r.conclusion)},\n'
            f'      "mu": {mu},\n      "premise": {premise}\n    }}'
        )
    body = "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"
    return (
        f'{{\n  "rules": {body},\n  "schema": {_quote(SCHEMA_VERSION)}\n}}\n'
    ).encode("utf-8")


def rules_to_text(rules: list[FuzzyRule]) -> str:
    return "".join(
        f"IF {r.premise_text} (mu={decimal6(r.mu)}) THEN {r.conclusion}\n" for r in rules
    )


def traces_to_obj(traces) -> list[dict]:
    return [
        {"rule": t.rule, "produced": t.produced, "sources": list(t.sources)}
        for t in traces
    ]
