"""Serialization: canonical JSON documents and the normalized RDF/XML form.

Everything here is byte-deterministic: collections are emitted in canonical
sort order, JSON uses sorted keys and a fixed indent, and the RDF/XML writer
builds the document textually from sorted blocks.  A grade mu = 1/n arrives
as the integer n and is rendered as num 1, den n and 1/n to six decimal
places (banker's rounding) only at this layer.

The rules writers work on runs of rules that share premise and n (see
rules.py).  The rules JSON and text, the traces and the traced report each
have one writer that yields chunks, one per run or trace, for the CLI to
write in blocks; a caller that wants one document joins them, as
``b"".join(runs_json_chunks(runs))``; the list shim ``rules_to_json`` does
that for (premise, conclusion, n) tuples, grouped into runs first.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring as _quote

from .errors import NotNormalized, UnwritableName
from .ingest import OWL_NS, RDF_NS, RDFS_NS, SCHEMA_VERSION
from .membership import PART_OF, PROPERTY, AnnotatedOntology
from .model import DATATYPE, ELEMENT_KINDS, INTERSECTION, INVERSE, OBJECT, OntologyModel
from .rules import premise_text, rule_runs


def decimal6(n: int) -> str:
    """1/n as a six-fractional-digit decimal string, round half to even."""
    millionths, rest = divmod(10**6, n)
    if 2 * rest > n or (2 * rest == n and millionths & 1):
        millionths += 1
    whole, fraction = divmod(millionths, 10**6)
    return f"{whole}.{fraction:06d}"


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

    obj = {
        "classes": classes,
        "properties": [
            {"name": name, "kind": kind} for name, kind in sorted(m.properties.items())
        ],
        "equivalences": [{"a": a, "b": b} for a, b in sorted(m.equivalences)],
        "modifiers": modifiers,
        "normalized": m.normalized,
    }
    # a dict display per key length is as fast as constant keys; dict(zip(...)) is not
    for kind in ELEMENT_KINDS:
        items = sorted(getattr(m, kind.attr).items())
        if len(kind.fields) == 2:
            a, b = kind.fields
            obj[kind.array] = [{a: x, b: y, "origin": origin} for (x, y), origin in items]
        else:
            a, b, c = kind.fields
            obj[kind.array] = [{a: x, b: y, c: z, "origin": origin} for (x, y, z), origin in items]
    return obj


def emit_json(m: OntologyModel) -> bytes:
    obj = model_to_obj(m)
    obj["schema"] = SCHEMA_VERSION
    return dump_json(obj)


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


# -- membership and rules -----------------------------------------------------------


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


def _mu_block(n: int) -> str:
    return (
        f'{{\n        "decimal": "{decimal6(n)}",\n'
        f'        "den": {n},\n        "num": 1\n      }}'
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
    for (premise, n), conclusions in runs:
        mu_block = mu_blocks.get(n)
        if mu_block is None:
            mu_block = mu_blocks[n] = _mu_block(n)
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
    for (premise, n), conclusions in runs:
        decimal = decimals.get(n)
        if decimal is None:
            decimal = decimals[n] = decimal6(n)
        prefix = f"IF {premise_text(premise)} (mu={decimal}) THEN "
        yield prefix + ("\n" + prefix).join(conclusions) + "\n"


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
    """The bytes dump_json gives for report with "traces" set to the list of
    {"rule", "produced", "sources"} records of traces, as the report's head,
    one chunk per trace and its tail: dump_json writes the report with a
    placeholder there, which the fixed-shape writer's traces replace.  The
    placeholder holds NUL characters, which XML text cannot, so its first
    match is the one dump_json wrote."""
    head, _, tail = dump_json({**report, "traces": _TRACES_PLACEHOLDER}).partition(
        _quote(_TRACES_PLACEHOLDER).encode("utf-8")
    )
    yield head
    yield from traces_chunks(traces, "  ", tail)
