"""Serialization: the model JSON and the rules JSON and text.

Everything here is byte-deterministic: collections are emitted in canonical
sort order, and JSON uses sorted keys and a fixed indent.  A grade mu = 1/n
arrives as the integer n and is rendered as num 1, den n and 1/n to six
decimal places (banker's rounding) only at this layer.  The RDF/XML and
assign writers are in staged.py and the trace writers in trace.py, which a
``rules`` run does not load.

The rules writers work on runs of rules that share premise and n (see
rules.py).  The rules JSON and text each have one writer that yields chunks,
one per run, for the CLI to write in blocks; a caller that wants one
document joins them, as ``b"".join(runs_json_chunks(runs))``; the list shim
``rules_to_json`` does that for (premise, conclusion, n) tuples, grouped
into runs first.
"""

from __future__ import annotations

from _json import encode_basestring as _quote

from .ingest import SCHEMA_VERSION
from .membership import PART_OF
from .model import ELEMENT_KINDS, INTERSECTION, INVERSE, OntologyModel
from .rules import premise_text, rule_runs


def decimal6(n: int) -> str:
    """1/n as a six-fractional-digit decimal string, round half to even."""
    millionths, rest = divmod(10**6, n)
    if 2 * rest > n or (2 * rest == n and millionths & 1):
        millionths += 1
    whole, fraction = divmod(millionths, 10**6)
    return f"{whole}.{fraction:06d}"


def dump_json(obj) -> bytes:
    import json  # here, and _quote from _json, so that a rules run loads no json

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


# -- membership and rules -----------------------------------------------------------


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
