"""Output checks that share no code with fuzzonto.

Both checks read only the documents the program writes, parsed with the json
module: a normalized model (``fuzzonto normalize`` output, schema fuzzonto/1)
and a rules document (``fuzzonto rules`` output).

* closure: one naive step of every rewrite the normalized model claims to be
  closed under; each element that step would add is a gap.
* membership: a single-pass recount of every key's grade 1/n and determiner
  set, compared key by key with the rules document.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction


class Model:
    """The element sets of a normalized model document."""

    def __init__(self, doc: dict):
        self.classes = {c["name"] for c in doc["classes"]}
        self.holdings = {(h["property"], h["holder"]) for h in doc["holdings"]}
        self.relations = {(r["predicate"], r["subject"], r["object"]) for r in doc["relations"]}
        self.subclass = {(a["sub"], a["super"]) for a in doc["subclass"]}
        self.equivalences = {(e["a"], e["b"]) for e in doc["equivalences"]}
        self.modifiers = len(doc["modifiers"])

    def element_count(self) -> int:
        return (
            len(self.classes)
            + len(self.holdings)
            + len(self.relations)
            + len(self.subclass)
            + len(self.equivalences)
            + self.modifiers
        )


def _successors(pairs) -> dict:
    out: dict = {}
    for a, b in pairs:
        out.setdefault(a, set()).add(b)
    return out


def closure_check(m: Model, modifiers: dict) -> dict:
    """One naive derivation step per rule; counts the elements it would add.

    Rules checked: subclass transitivity, relation lift along superclasses,
    equivalence copies of holdings and subject-position relations, and the
    declared symmetric, transitive and forward inverseOf modifiers.  The
    reverse inverseOf direction is reported apart, as ``inverse-reverse``,
    because fuzzonto has not decided whether it owes it.
    """
    supers = _successors(m.subclass)
    equiv = _successors(m.equivalences | {(b, a) for a, b in m.equivalences})
    by_pred: dict = {}
    for p, s, o in m.relations:
        by_pred.setdefault(p, set()).add((s, o))

    def swapped(pred, pairs):
        return {(pred, o, s) for s, o in pairs}

    def composed(pred, pairs):
        succ = _successors(pairs)
        return {(pred, a, c) for a, b in pairs for c in succ.get(b, ())}

    have = {"subclass": m.subclass, "holding": m.holdings, "relation": m.relations}
    want = {
        "subclass-transitive": (
            "subclass",
            {(a, c) for a, b in m.subclass for c in supers.get(b, ()) if a != c},
        ),
        "relation-lift": (
            "relation",
            {(p, s, sup) for p, s, o in m.relations for sup in supers.get(o, ())},
        ),
        "equiv-holding": (
            "holding",
            {(p, other) for p, h in m.holdings for other in equiv.get(h, ())},
        ),
        "equiv-relation": (
            "relation",
            {(p, other, o) for p, s, o in m.relations for other in equiv.get(s, ())},
        ),
        "symmetric": ("relation", set()),
        "transitive": ("relation", set()),
        "inverse": ("relation", set()),
    }
    for p in modifiers["symmetric"]:
        want["symmetric"][1].update(swapped(p, by_pred.get(p, ())))
    for p in modifiers["transitive"]:
        want["transitive"][1].update(composed(p, by_pred.get(p, set())))
    reverse = set()
    for p, q in modifiers["inverse"]:
        want["inverse"][1].update(swapped(q, by_pred.get(p, ())))
        reverse |= swapped(p, by_pred.get(q, ()))

    required = set()
    gaps = set()
    by_rule = {}
    for rule, (kind, wanted) in want.items():
        missing = wanted - have[kind]
        by_rule[rule] = len(missing)
        required |= {(kind, e) for e in wanted}
        gaps |= {(kind, e) for e in missing}
    return {
        "required": len(required),
        "gaps": len(gaps),
        "by_rule": by_rule,
        "inverse-reverse": len(reverse - m.relations),
    }


def _groups(m: Model) -> dict:
    """Class -> frozenset of its equivalence group, by repeated set merging."""
    sets = [{a, b} for a, b in m.equivalences]
    merged = True
    while merged:
        merged = False
        out: list[set] = []
        for current in sets:
            for existing in out:
                if existing & current:
                    existing |= current
                    merged = True
                    break
            else:
                out.append(set(current))
        sets = out
    group = {name: frozenset((name,)) for name in m.classes}
    for s in sets:
        for name in s:
            group[name] = frozenset(s)
    return group


def expected_table(m: Model) -> dict:
    """Premise key -> (mu, widened determiners) recounted from the model."""
    group = _groups(m)
    found: dict = {}
    for p, holder in m.holdings:
        found.setdefault(("property", p), set()).add(holder)
    for sub, sup in m.subclass:
        found.setdefault(("part_of", sup), set()).add(sub)
    for p, s, o in m.relations:
        found.setdefault(("relation", p, o), set()).add(s)
    table = {}
    for key, determiners in found.items():
        n = len({min(group.get(d, (d,))) for d in determiners})
        widened = set()
        for d in determiners:
            widened |= group.get(d, {d})
        table[key] = (Fraction(1, n), frozenset(widened))
    return table


def _six_places(mu: Fraction) -> str:
    value = Decimal(mu.numerator) / Decimal(mu.denominator)
    return str(value.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def rules_table(doc: dict) -> tuple[dict, int]:
    """Premise key -> (set of mu, set of conclusions); and malformed rule count."""
    table: dict = {}
    bad = 0
    seen = set()
    for rule in doc["rules"]:
        premise = rule["premise"]
        kind = premise["kind"]
        if kind == "property":
            key = ("property", premise["property"])
        elif kind == "part_of":
            key = ("part_of", premise["class"])
        else:
            key = ("relation", premise["predicate"], premise["class"])
        mu = Fraction(rule["mu"]["num"], rule["mu"]["den"])
        if rule["mu"]["decimal"] != _six_places(mu) or (key, rule["conclusion"]) in seen:
            bad += 1
        seen.add((key, rule["conclusion"]))
        mus, conclusions = table.setdefault(key, (set(), set()))
        mus.add(mu)
        conclusions.add(rule["conclusion"])
    return table, bad


def mu_check(m: Model, rules_bytes: bytes) -> dict:
    """Keys whose grade or determiner set differs from the recount."""
    expected = expected_table(m)
    got, bad = rules_table(json.loads(rules_bytes))
    errors = 0
    for key in expected.keys() | got.keys():
        if key not in expected or key not in got:
            errors += 1
            continue
        mu, widened = expected[key]
        mus, conclusions = got[key]
        if mus != {mu} or conclusions != widened:
            errors += 1
    return {
        "keys": len(expected),
        "errors": errors,
        "malformed_rules": bad,
        "rules": sum(len(w) for _, w in expected.values()),
    }
