"""Rewrite traces, rebuilt from the batch log of a normalize run.

A prefix of a collection of the result's model is what was present at a
point of the run (see normalize.py), so each derived element's sources
follow from the positions of its batch.  The trace writers, for stderr and
for the report, yield one chunk per trace.  Only a traced run imports this
module.
"""

from __future__ import annotations

from _json import encode_basestring as _quote
from collections import namedtuple
from functools import partial
from itertools import islice

from . import closure
from .emit import dump_json
from .model import el_equivalence, el_holding, el_modifier, el_relation, el_subclass

# one element's first derivation: the rule, the element and its rendered sources
RewriteTrace = namedtuple("RewriteTrace", "rule produced sources", defaults=((),))


def traces(result):
    """One RewriteTrace per derived element of a NormalizeResult's model and
    per equivalence a subclass cycle formed, batch by batch in log order;
    copies, lifts and mirrored relations sorted within their batch."""
    m = result.model
    holdings, relations, axioms = list(m.holdings), list(m.relations), list(m.subclass_axioms)
    for rule, start, end, present, extra in result.log:
        if rule == "equiv-property-copy":
            found = _copies(holdings[start:end], extra, el_holding)
        elif rule == "equiv-relation-copy":
            found = _copies(relations[start:end], extra, el_relation)
        elif rule == "subclass-closure" and extra:  # a cycle's equivalences
            found = ((el_equivalence(*p), (el_subclass(*p), el_subclass(*p[::-1]))) for p in extra)
        elif rule == "subclass-closure":
            found = _closure(axioms[start:end], axioms[:end], el_subclass)
        elif rule == "relation-lift":
            found = _lifts(relations[start:end], islice(relations, start), axioms[:present])
        elif rule == "intersection-to-subclass":
            found = ((el_subclass(*key), (el_modifier(extra),)) for key in axioms[start:end])
        elif rule == "transitive-close":
            found = _closure(
                [key[1:] for key in relations[start:end]],
                [key[1:] for key in islice(relations, end) if key[0] == extra.target],
                partial(el_relation, extra.target),
            )
        else:  # symmetric or inverse: counterpart(o, s) from target(s, o)
            found = (
                (el_relation(*key), (el_relation(extra.target, key[2], key[1]), el_modifier(extra)))
                for key in sorted(relations[start:end], key=lambda key: (key[2], key[1]))
            )
        for produced, sources in found:
            yield RewriteTrace(rule, produced, sources)


def _copies(batch: list[tuple], group: tuple[str, ...], render):
    """Copies sorted by pattern and member.  Every member of the group holds
    a copied pattern after the batch, so the least member that held it
    before is the least one that the batch did not give it to."""
    given: dict[tuple, set[str]] = {}
    for key in batch:
        given.setdefault(key[::2], set()).add(key[1])
    for first, member, *rest in sorted(batch, key=lambda key: (key[::2], key[1])):
        held = min(name for name in group if name not in given[(first, *rest)])
        yield render(first, member, *rest), (render(first, held, *rest),)


def _lifts(batch: list[tuple], before, axioms: list[tuple]):
    """Lifts r(s, sup) sorted by (r, s, o, sup), o the least with r(s, o)
    before the batch and o -> sup among the axioms present then."""
    sups = sorted({key[2] for key in batch})
    slot = {sup: i for i, sup in enumerate(sups)}
    wanted: dict[tuple[str, str], int] = {}  # (r, s) -> the sups it lifts to, as bits
    for pred, subject, sup in batch:
        wanted[pred, subject] = wanted.get((pred, subject), 0) | 1 << slot[sup]
    ups: dict[str, int] = {}  # o -> the sups above it, as bits
    for sub, sup in axioms:
        if sup in slot:
            ups[sub] = ups.get(sub, 0) | 1 << slot[sup]
    objects: dict[tuple[str, str], list[str]] = {}
    for pred, subject, obj in before:
        if (pred, subject) in wanted:
            objects.setdefault((pred, subject), []).append(obj)
    found = []  # (r, s, o, sup), o the first in name order with sup above it
    for (pred, subject), row in wanted.items():
        for obj in sorted(objects[pred, subject]):
            hits = row & ups.get(obj, 0)
            found += [(pred, subject, obj, sups[bit]) for bit in closure.bits(hits)]
            row ^= hits
    for pred, subject, obj, sup in sorted(found):
        source = (el_relation(pred, subject, obj), el_subclass(obj, sup))
        yield el_relation(pred, subject, sup), source


def _closure(batch: list[tuple], pairs: list[tuple], render):
    """Closure pairs (a, b) in batch order.  Each cites the least w in name
    order, other than a and b, with (a, w) and (w, b) among the closed pairs;
    w = a or w = b would cite the element itself or a self-pair."""
    names = sorted({name for pair in pairs for name in pair})
    index = {name: i for i, name in enumerate(names)}
    rows = closure.reachable_pairs(len(names), [(index[a], index[b]) for a, b in pairs]).rows
    for a, b in batch:
        u, v = index[a], index[b]
        bit, candidates, sources = 1 << v, rows[u], ()
        while candidates:  # rows[u]'s bits, low to high; cheaper than masking out u and v
            low = candidates & -candidates
            w = low.bit_length() - 1
            if rows[w] & bit and w != u and w != v:
                sources = (render(a, names[w]), render(names[w], b))
                break
            candidates ^= low
        yield render(a, b), sources


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
