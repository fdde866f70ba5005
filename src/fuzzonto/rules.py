"""Identifying fuzzy rules from an annotated ontology.

Each table key becomes a premise; each class in its (widened) determining set
becomes one conclusion.  Rules therefore satisfy, by construction,
mu(premise) * |representative conclusions| = 1 — check_consistency re-verifies
that identity from the finished rule list alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .membership import AnnotatedOntology, ComplexKey
from .model import Diagnostic

IDENTIFYING = "identifying"


@dataclass(frozen=True)
class FuzzyRule:
    premise: str | ComplexKey  # property name, or a relation complex
    conclusion: str
    mu: Fraction
    category: str = IDENTIFYING

    @property
    def premise_text(self) -> str:
        if isinstance(self.premise, str):
            return self.premise
        return self.premise.text


def generate_rules(annotated: AnnotatedOntology) -> list[FuzzyRule]:
    rules = [
        FuzzyRule(premise=key, conclusion=conclusion, mu=entry.mu)
        for _, key, entry in annotated.table.entries()
        for conclusion in entry.determiners
    ]
    rules.sort(key=lambda r: (r.premise_text, r.conclusion))
    return rules


def check_consistency(
    rules: list[FuzzyRule], annotated: AnnotatedOntology
) -> list[Diagnostic]:
    """Violations of the reciprocity identity; empty on generator output."""
    out: list[Diagnostic] = []
    # by key, not by text: a predicate named part_of gives relation keys that
    # print like the part_of keys of the same class
    by_premise: dict[str | ComplexKey, list[FuzzyRule]] = {}
    for rule in rules:
        by_premise.setdefault(rule.premise, []).append(rule)

    for bucket in sorted(by_premise.values(), key=lambda b: b[0].premise_text):
        premise = bucket[0].premise_text
        mu = bucket[0].mu
        if any(rule.mu != mu for rule in bucket):
            values = len({rule.mu for rule in bucket})
            out.append(
                Diagnostic(
                    "mixed-mu",
                    "error",
                    f"premise {premise!r} carries {values} distinct mu values",
                    premise,
                )
            )
            continue
        reps = annotated.groups.representatives(r.conclusion for r in bucket)
        if mu * len(reps) != 1:
            out.append(
                Diagnostic(
                    "identity-violation",
                    "error",
                    f"premise {premise!r}: mu={mu} but {len(reps)} representative "
                    "conclusions",
                    premise,
                )
            )
    return out
