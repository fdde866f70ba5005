"""Identifying fuzzy rules from an annotated ontology.

Each table key becomes a premise; each class in its (widened) determining set
becomes one conclusion.  Rules therefore satisfy, by construction,
mu(premise) * |representative conclusions| = 1 — check_consistency re-verifies
that identity from the finished rule list alone.

The work scales with the number of premises, not of rules: the keys are
sorted once by premise text, and each key's determiners, already sorted,
become its rules in order.  Consecutive rules that share premise, mu and
category form a run (``rule_runs``); the check and the writers handle one
run at a time.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from operator import itemgetter

from .membership import PART_OF, AnnotatedOntology, ComplexKey
from .model import Diagnostic

IDENTIFYING = "identifying"


def premise_text(premise: str | ComplexKey) -> str:
    """The premise as rules print it: a property name, or a key's text."""
    return premise if isinstance(premise, str) else premise.text


class FuzzyRule(
    namedtuple("FuzzyRule", "premise conclusion mu category", defaults=(IDENTIFYING,))
):
    """premise: a property name or a relation complex; mu: a Fraction."""

    __slots__ = ()

    @property
    def premise_text(self) -> str:
        return premise_text(self.premise)


_new_tuple = tuple.__new__  # FuzzyRule(...) would run namedtuple's Python __new__


def generate_rules(annotated: AnnotatedOntology) -> list[FuzzyRule]:
    """Rules sorted by (premise text, conclusion), one run per premise."""
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

    rules: list[FuzzyRule] = []
    for _, alike in groupby(premises, itemgetter(0)):
        alike = list(alike)
        start = len(rules)
        for _, _, key, entry in alike:
            mu = entry.mu
            rules += [
                _new_tuple(FuzzyRule, (key, conclusion, mu, IDENTIFYING))
                for conclusion in entry.determiners
            ]
        if len(alike) > 1:  # e.g. a predicate named part_of; the sort is stable
            rules[start:] = sorted(rules[start:], key=itemgetter(1))
    return rules


def rule_runs(rules):
    """Maximal runs of consecutive rules that share premise, mu and category,
    as ((premise, mu, category), conclusions) pairs.

    Fields compare by identity first, so on generator output, where a
    premise's rules share one key and one mu object, only run boundaries
    reach ``__eq__``.
    """
    for shared, run in groupby(rules, itemgetter(0, 2, 3)):
        yield shared, list(map(itemgetter(1), run))


def check_consistency(
    rules: list[FuzzyRule], annotated: AnnotatedOntology
) -> list[Diagnostic]:
    """Violations of the reciprocity identity; empty on generator output."""
    # by key, not by text: a predicate named part_of gives relation keys that
    # print like the part_of keys of the same class.  A premise may come in
    # several runs, adjacent or not; they merge here.
    by_premise: dict[str | ComplexKey, list] = {}
    for (premise, mu, _), conclusions in rule_runs(rules):
        by_premise.setdefault(premise, []).append((mu, conclusions))

    out: list[Diagnostic] = []
    for premise, runs in by_premise.items():
        mu = runs[0][0]
        if len(runs) > 1:
            if any(other is not mu and other != mu for other, _ in runs):
                text = premise_text(premise)
                values = len({other for other, _ in runs})
                out.append(
                    Diagnostic(
                        "mixed-mu",
                        "error",
                        f"premise {text!r} carries {values} distinct mu values",
                        text,
                    )
                )
                continue
            conclusions = [c for _, run in runs for c in run]
        else:
            conclusions = runs[0][1]
        reps = len(annotated.groups.representatives(conclusions))
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
