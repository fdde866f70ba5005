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
    by_premise: dict[str, list[FuzzyRule]] = {}
    for rule in rules:
        by_premise.setdefault(rule.premise_text, []).append(rule)

    for premise in sorted(by_premise):
        bucket = by_premise[premise]
        values = {rule.mu for rule in bucket}
        if len(values) > 1:
            out.append(
                Diagnostic(
                    "mixed-mu",
                    "error",
                    f"premise {premise!r} carries {len(values)} distinct mu values",
                    premise,
                )
            )
            continue
        mu = bucket[0].mu
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
