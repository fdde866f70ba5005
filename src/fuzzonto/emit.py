"""Serialization: canonical JSON documents and the normalized RDF/XML form.

Everything here is byte-deterministic: collections are emitted in canonical
sort order, JSON uses sorted keys and a fixed indent, and the RDF/XML writer
builds the document textually from sorted blocks.  Exact rational mu values
are rendered to six decimal places (banker's rounding) only at this layer.

The rules writers work on runs of rules that share premise and mu (see
rules.py).  The rules JSON and text, the traces and the traced report each
have one writer that yields chunks, one per run or trace, for the CLI to
write in blocks; a caller that wants one document joins them, as
``b"".join(runs_json_chunks(runs))``; the list shim ``rules_to_json`` does
that for (premise, conclusion, mu) tuples, grouped into runs first.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring as _quote

from .errors import NotNormalized
from .ingest import OWL_NS, RDF_NS, RDFS_NS, SCHEMA_VERSION
from .membership import PART_OF, PROPERTY, AnnotatedOntology
from .model import DATATYPE, INTERSECTION, INVERSE, OntologyModel
from .rules import premise_text, rule_runs


def decimal6(value: Fraction) -> str:
    """Six-fractional-digit decimal string, round half to even, exact at any
    size; a negative value keeps its sign when it rounds to zero."""
    millionths, rest = divmod(abs(value.numerator) * 10**6, value.denominator)
    if 2 * rest > value.denominator or (2 * rest == value.denominator and millionths & 1):
        millionths += 1
    whole, fraction = divmod(millionths, 10**6)
    return f"{'-' if value.numerator < 0 else ''}{whole}.{fraction:06d}"


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


def _premise_block(premise) -> str:
    """A rule's premise object as dump_json renders it, from one template per
    kind."""
    if isinstance(premise, str):
        return (
            '{\n        "kind": "property",\n'
            f'        "property": {_quote(premise)}\n      }}'
        )
    if premise.kind == PART_OF:
        return (
            f'{{\n        "class": {_quote(premise.resulting_class)},\n'
            '        "kind": "part_of"\n      }'
        )
    return (
        f'{{\n        "class": {_quote(premise.resulting_class)},\n'
        f'        "kind": {_quote(premise.kind)},\n'
        f'        "predicate": {_quote(premise.predicate)}\n      }}'
    )


def _mu_block(mu: Fraction) -> str:
    return (
        f'{{\n        "decimal": "{decimal6(mu)}",\n'
        f'        "den": {mu.denominator},\n        "num": {mu.numerator}\n      }}'
    )


def rules_to_json(rules: list[tuple]) -> bytes:
    """List shim: runs_json_chunks over rule_runs(rules), joined."""
    return b"".join(runs_json_chunks(rule_runs(rules)))


def runs_json_chunks(runs):
    """The bytes dump_json gives for {"schema", "rules": [...]} over rules
    given as runs (see rules.premise_runs), one chunk per run.

    The stdlib encodes indented JSON in pure Python.  Every rule record has
    the same shape, so it is written here directly, with C string escaping.
    The records of a run differ only in their conclusion: the text around it
    is built once per run and the quoted conclusions are joined with it.
    """
    mu_blocks: dict = {}
    head = '    {\n      "category": "identifying",\n      "conclusion": '
    yield b'{\n  "rules": ['
    sep = "\n"
    for (premise, mu), conclusions in runs:
        mu_key = (mu.numerator, mu.denominator)  # cheaper to hash than a Fraction
        mu_block = mu_blocks.get(mu_key)
        if mu_block is None:
            mu_block = mu_blocks[mu_key] = _mu_block(mu)
        tail = (
            f',\n      "mu": {mu_block},\n'
            f'      "premise": {_premise_block(premise)}\n    }}'
        )
        run = (tail + ",\n" + head).join(map(_quote, conclusions))
        yield (sep + head + run + tail).encode("utf-8")
        sep = ",\n"
    yield b"]" if sep == "\n" else b"\n  ]"
    yield f',\n  "schema": {_quote(SCHEMA_VERSION)}\n}}\n'.encode("utf-8")


def runs_text_chunks(runs):
    """One "IF premise (mu=...) THEN conclusion" line per rule, one chunk per
    run; the line prefix is built once per run."""
    decimals: dict = {}
    for (premise, mu), conclusions in runs:
        mu_key = (mu.numerator, mu.denominator)
        decimal = decimals.get(mu_key)
        if decimal is None:
            decimal = decimals[mu_key] = decimal6(mu)
        prefix = f"IF {premise_text(premise)} (mu={decimal}) THEN "
        yield prefix + ("\n" + prefix).join(conclusions) + "\n"


def traces_to_obj(traces) -> list[dict]:
    return [
        {"rule": t.rule, "produced": t.produced, "sources": list(t.sources)}
        for t in traces
    ]


def traces_chunks(traces, pad: str = "", end: bytes = b"\n"):
    """The traces array as dump_json renders it with every line after the
    first indented by pad, one chunk per trace, then end."""
    yield b"["
    sep = "\n"
    for t in traces:
        sources = (
            f"[\n{pad}      "
            + f",\n{pad}      ".join(map(_quote, t.sources))
            + f"\n{pad}    ]"
            if t.sources
            else "[]"
        )
        record = (
            f'{sep}{pad}  {{\n{pad}    "produced": {_quote(t.produced)},\n'
            f'{pad}    "rule": {_quote(t.rule)},\n{pad}    "sources": {sources}\n{pad}  }}'
        )
        yield record.encode("utf-8")
        sep = ",\n"
    yield b"]" if sep == "\n" else f"\n{pad}]".encode("utf-8")
    yield end


_TRACES_PLACEHOLDER = "\x00traces\x00"


def report_to_json(report: dict, traces):
    """The bytes dump_json gives for report with "traces" set to
    traces_to_obj(traces), as the report's head, one chunk per trace and its
    tail: dump_json writes the report with a placeholder there, which the
    fixed-shape writer's traces replace.  The placeholder holds NUL
    characters, which XML text cannot, so its first match is the one
    dump_json wrote."""
    head, _, tail = dump_json({**report, "traces": _TRACES_PLACEHOLDER}).partition(
        _quote(_TRACES_PLACEHOLDER).encode("utf-8")
    )
    yield head
    yield from traces_chunks(traces, "  ", tail)
