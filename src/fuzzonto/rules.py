"""Identifying fuzzy rules from an annotated ontology.

Each table key becomes a premise; each class in its (widened) determining set
becomes one conclusion.  A rule's grade is mu = 1/n, carried as the integer
n, so rules satisfy, by construction, n = the number of equivalence groups
among a premise's conclusions — the check re-verifies that identity from
the rules alone.  Every rule is identifying, so a rule carries no category;
the writers print the one there is.

All rules of one key share its premise and n, so the rules API is runs:
``((premise, n), conclusions)`` pairs.  ``premise_runs`` builds them with
one sort by premise text, and the CLI hands them to ``check_runs`` and the
writers.  ``generate_rules``, ``check_consistency`` and ``emit.rules_to_json``
are list shims over plain ``(premise, conclusion, n)`` tuples, kept because
the traced benchmark harness times them.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .membership import AnnotatedOntology, ComplexKey, group_count
from .model import Diagnostic


def premise_text(premise: str | ComplexKey) -> str:
    """The premise as rules print it: a property name, or a key's text."""
    return premise if isinstance(premise, str) else premise.text


def premise_runs(annotated: AnnotatedOntology) -> list[tuple]:
    """The rules as runs, sorted by (premise text, conclusion): one run per
    key, except where premises print alike (say, a predicate named part_of):
    only those keys are put in table order, their rules merged by conclusion,
    a tie keeping that order, and split into runs where the key changes."""
    premises = [(name, name, entry) for name, entry in annotated.table.property_mu.items()]
    premises += [(key.text, key, entry) for key, entry in annotated.table.complex_mu.items()]
    premises.sort(key=itemgetter(0))

    runs = []
    alike = []  # premises that print alike, a rare case
    for here, after in zip(premises, premises[1:] + [(None,)]):
        if here[0] != after[0] and not alike:
            _, key, entry = here
            runs.append(((key, entry.n), entry.determiners))
            continue
        alike.append(here)
        if here[0] != after[0]:  # the last of them: table order (properties first), then conclusion
            alike.sort(key=lambda premise: (not isinstance(premise[1], str), premise[1]))
            merged = [(key, c, entry.n) for _, key, entry in alike for c in entry.determiners]
            merged.sort(key=itemgetter(1))  # stable
            runs += rule_runs(merged)
            alike = []
    return runs


def generate_rules(annotated: AnnotatedOntology) -> list[tuple]:
    """List shim: the rules of premise_runs as (premise, conclusion, n)
    tuples, in the same order."""
    return [
        (premise, conclusion, n)
        for (premise, n), conclusions in premise_runs(annotated)
        for conclusion in conclusions
    ]


def rule_runs(rules):
    """Maximal runs of consecutive rules that share premise and n, as
    ((premise, n), conclusions) pairs, conclusions a tuple."""
    for shared, run in groupby(rules, itemgetter(0, 2)):
        yield shared, tuple(map(itemgetter(1), run))


def check_consistency(rules: list[tuple], annotated: AnnotatedOntology) -> list[Diagnostic]:
    """List shim: check_runs over rule_runs(rules)."""
    return check_runs(rule_runs(rules), annotated)


def check_runs(runs, annotated: AnnotatedOntology) -> list[Diagnostic]:
    """Violations of the reciprocity identity among the runs; empty on
    premise_runs output."""
    # by key, not by text: a predicate named part_of gives relation keys that
    # print like the part_of keys of the same class.  A premise may come in
    # several runs, adjacent or not: only a premise met again gets a list.
    first: dict[str | ComplexKey, tuple] = {}
    split: dict[str | ComplexKey, list] = {}
    for run in runs:
        premise = run[0][0]
        if premise in first:
            split.setdefault(premise, [first[premise]]).append(run)
        else:
            first[premise] = run

    groups = annotated.groups
    out: list[Diagnostic] = []
    for premise, ((_, n), conclusions) in first.items():
        parts = split.get(premise)
        if parts is not None:
            if any(other != n for (_, other), _ in parts):
                text = premise_text(premise)
                values = len({other for (_, other), _ in parts})
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
        count = group_count(groups, conclusions) if groups else len(set(conclusions))
        if count != n:
            text = premise_text(premise)
            out.append(
                Diagnostic(
                    "identity-violation",
                    "error",
                    f"premise {text!r}: mu=1/{n} but {count} representative conclusions",
                    text,
                )
            )
    out.sort(key=lambda d: d.location)  # stable: premises that print alike
    return out
