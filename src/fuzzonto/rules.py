"""Identifying fuzzy rules from an annotated ontology.

Each table key becomes a premise; each class in its (widened) determining set
becomes one conclusion.  Rules therefore satisfy, by construction,
mu(premise) * |representative conclusions| = 1 — the check re-verifies that
identity from the rules alone.  Every rule is identifying, so a rule carries
no category; the writers print the one there is.

All rules of one key share its premise and mu, so the rules come as runs:
``((premise, mu), conclusions)`` pairs.  ``premise_runs`` builds them
straight from the table, one per key, with the keys sorted once by premise
text and each key's sorted determiners as its conclusions; the CLI takes
them from there to the check and the writers without building a rule object.
``generate_rules`` expands the runs into ``FuzzyRule`` tuples, and
``rule_runs`` groups any rule list back into runs, so the list entry points
(``check_consistency`` and ``emit.rules_to_json``) run the same run-level
bodies.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from operator import itemgetter

from .membership import PART_OF, AnnotatedOntology, ComplexKey
from .model import Diagnostic

def premise_text(premise: str | ComplexKey) -> str:
    """The premise as rules print it: a property name, or a key's text."""
    return premise if isinstance(premise, str) else premise.text


class FuzzyRule(namedtuple("FuzzyRule", "premise conclusion mu")):
    """premise: a property name or a relation complex; mu: a Fraction."""

    __slots__ = ()

    @property
    def premise_text(self) -> str:
        return premise_text(self.premise)


def premise_runs(annotated: AnnotatedOntology) -> list[tuple]:
    """The rules as runs, sorted by (premise text, conclusion): one run per
    key, except where premises print alike (say, a predicate named part_of):
    their rules merge by conclusion, a tie keeping the table order, and split
    into runs again where the key changes."""
    table = annotated.table
    # (text, rank, key, entry); the rank orders premises that print alike as
    # the table does: properties, part_of complexes, relation complexes
    premises = [(name, (0,), name, entry) for name, entry in table.property_mu.items()]
    premises += [
        (
            key.text,
            (1,) if key.kind == PART_OF else (2, key.predicate, key.resulting_class),
            key,
            entry,
        )
        for key, entry in table.complex_mu.items()
    ]
    premises.sort(key=itemgetter(0, 1))

    runs = []
    for _, alike in groupby(premises, itemgetter(0)):
        alike = list(alike)
        if len(alike) == 1:
            _, _, key, entry = alike[0]
            runs.append(((key, entry.mu), entry.determiners))
            continue
        merged = [
            (key, conclusion, entry.mu)
            for _, _, key, entry in alike
            for conclusion in entry.determiners
        ]
        merged.sort(key=itemgetter(1))  # stable
        runs += rule_runs(merged)
    return runs


_new_tuple = tuple.__new__  # FuzzyRule(...) would run namedtuple's Python __new__


def generate_rules(annotated: AnnotatedOntology) -> list[FuzzyRule]:
    """The rules of premise_runs, one FuzzyRule each, in the same order."""
    return [
        _new_tuple(FuzzyRule, (premise, conclusion, mu))
        for (premise, mu), conclusions in premise_runs(annotated)
        for conclusion in conclusions
    ]


def rule_runs(rules):
    """Maximal runs of consecutive rules that share premise and mu, as
    ((premise, mu), conclusions) pairs, conclusions a tuple.

    Fields compare by identity first, so on generator output, where a
    premise's rules share one key and one mu object, only run boundaries
    reach ``__eq__``.
    """
    for shared, run in groupby(rules, itemgetter(0, 2)):
        yield shared, tuple(map(itemgetter(1), run))


def check_consistency(
    rules: list[FuzzyRule], annotated: AnnotatedOntology
) -> list[Diagnostic]:
    """Violations of the reciprocity identity; empty on generator output."""
    return check_runs(rule_runs(rules), annotated)


def check_runs(runs, annotated: AnnotatedOntology) -> list[Diagnostic]:
    """check_consistency over rules given as runs (see rule_runs)."""
    # by key, not by text: a predicate named part_of gives relation keys that
    # print like the part_of keys of the same class.  A premise may come in
    # several runs, adjacent or not; they merge here.
    by_premise: dict[str | ComplexKey, list] = {}
    for (premise, mu), conclusions in runs:
        by_premise.setdefault(premise, []).append((mu, conclusions))

    representatives = annotated.groups.representatives
    out: list[Diagnostic] = []
    for premise, parts in by_premise.items():
        mu = parts[0][0]
        if len(parts) > 1:
            if any(other is not mu and other != mu for other, _ in parts):
                text = premise_text(premise)
                values = len({other for other, _ in parts})
                out.append(
                    Diagnostic(
                        "mixed-mu",
                        "error",
                        f"premise {text!r} carries {values} distinct mu values",
                        text,
                    )
                )
                continue
            conclusions = [c for _, part in parts for c in part]
        else:
            conclusions = parts[0][1]
        reps = len(representatives(conclusions))
        if mu.numerator * reps != mu.denominator:
            text = premise_text(premise)
            out.append(
                Diagnostic(
                    "identity-violation",
                    "error",
                    f"premise {text!r}: mu={mu} but {reps} representative conclusions",
                    text,
                )
            )
    out.sort(key=lambda d: d.location)  # stable: premises that print alike
    return out
