"""Membership-value assignment over a normalized model.

Every key gets mu = 1/n where n counts the *determining* classes collapsed to
one per equivalence group:

* a datatype property is determined by the classes holding it;
* a ``part_of`` complex (one per distinct superclass) is determined by the
  subclasses of its resulting class;
* any other relation complex (one per distinct predicate/object pair) is
  determined by the subjects pointing at its resulting class.

Values are exact rationals, one ``Fraction`` per distinct n; rendering to
decimals happens at serialization only.  After assignment, determining sets
are widened so that every member of an equivalence group appears wherever
its representative does — mu itself never changes, because n is counted over
representatives.

The equivalence groups are the map ``closure.groups`` returns: each class in
a group of two or more mapped to its sorted group.  A class outside them is
its own representative, so ``representatives``, counting and widening look up
just the determiners that sit in a shared group, and an entry with none is
kept as it is.  The assign functions keep the order in which the model's
elements meet a key; ``MembershipTable.entries`` is the one place that sorts
the keys, for the writers and the rules.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from . import closure
from .errors import NotNormalized
from .model import ASSERTED, OntologyModel

PART_OF = "part_of"
RELATION = "relation"
PROPERTY = "property"


class ComplexKey(namedtuple("ComplexKey", "kind predicate resulting_class")):
    """A relation bundled with its resulting class, acting as one premise.

    kind PART_OF keys on subclass axioms (predicate is None); kind RELATION
    keys on ordinary predicates.  A named tuple, so keys hash and compare in
    C.
    """

    __slots__ = ()

    @classmethod
    def part_of(cls, resulting_class: str) -> ComplexKey:
        return cls(PART_OF, None, resulting_class)

    @classmethod
    def relation(cls, predicate: str, resulting_class: str) -> ComplexKey:
        return cls(RELATION, predicate, resulting_class)

    @property
    def text(self) -> str:
        """The premise as rules print it."""
        if self.kind == PART_OF:
            return f"part_of {self.resulting_class}"
        return f"{self.predicate} {self.resulting_class}"


class MembershipEntry(namedtuple("MembershipEntry", "mu determiners")):
    """A key's mu (a Fraction) and its determining classes, sorted; widened
    by copy_to_equivalents."""

    __slots__ = ()


def representatives(group_of: dict[str, tuple[str, ...]], names) -> set[str]:
    """The names with each member of a group replaced by the group's least
    member; group_of maps only the classes in groups of two or more."""
    reps = set(names)
    if group_of:
        shared = group_of.keys() & reps
        if shared:
            reps -= shared
            reps.update(group_of[name][0] for name in shared)
    return reps


class MembershipTable:
    def __init__(
        self,
        property_mu: dict[str, MembershipEntry],
        complex_mu: dict[ComplexKey, MembershipEntry],
    ) -> None:
        self.property_mu = property_mu
        self.complex_mu = complex_mu

    def entries(self):
        """(kind, key, entry) triples in canonical order: properties, part_of
        complexes, then other relation complexes; the only place that orders
        the table."""
        for name in sorted(self.property_mu):
            yield PROPERTY, name, self.property_mu[name]
        # kind first, and "part_of" < "relation": a None predicate meets only None
        for key in sorted(self.complex_mu):
            yield key.kind, key, self.complex_mu[key]


class AnnotatedOntology:
    def __init__(self, model: OntologyModel, table: MembershipTable, groups: dict) -> None:
        self.model = model
        self.table = table
        self.groups = groups


def build_equivalence_groups(m: OntologyModel) -> dict[str, tuple[str, ...]]:
    # two or more members each: equivalences hold no self-pairs
    return closure.groups(m.equivalences)


# per kind: the element collection, and the key and the determiner of an element
_DETERMINED_BY = {
    PROPERTY: ("holdings", itemgetter(0), itemgetter(1)),
    PART_OF: ("subclass_axioms", itemgetter(1), itemgetter(0)),
    RELATION: ("relations", itemgetter(0, 2), itemgetter(1)),
}


def _determiner_index(m: OntologyModel, kind: str, asserted_only: bool) -> dict:
    """Every key of one kind mapped to its determining classes, in one pass:
    property -> holders, superclass -> subclasses, or (predicate, object) ->
    subjects."""
    attr, key_of, determiner_of = _DETERMINED_BY[kind]
    elements = getattr(m, attr)
    if asserted_only:
        elements = [key for key, origin in elements.items() if origin == ASSERTED]
    index: dict = {}
    for key, determiner in zip(map(key_of, elements), map(determiner_of, elements)):
        found = index.get(key)
        if found is None:
            index[key] = {determiner}
        else:
            found.add(determiner)
    return index


@lru_cache(maxsize=4096)
def _unit_fraction(n: int) -> Fraction:
    """1/n, one shared object per n: a Fraction is immutable, and the bound
    caps what a long-lived process keeps."""
    return Fraction(1, n)


def _entry(groups: dict, determiners: set[str]) -> MembershipEntry:
    n = len(representatives(groups, determiners))
    return MembershipEntry(_unit_fraction(n), tuple(sorted(determiners)))


def assign_property_mu(
    m: OntologyModel, groups: dict, asserted_only: bool = False
) -> dict[str, MembershipEntry]:
    index = _determiner_index(m, PROPERTY, asserted_only)
    return {name: _entry(groups, holders) for name, holders in index.items()}


def assign_partof_mu(
    m: OntologyModel, groups: dict, asserted_only: bool = False
) -> dict[ComplexKey, MembershipEntry]:
    index = _determiner_index(m, PART_OF, asserted_only)
    return {ComplexKey.part_of(sup): _entry(groups, subs) for sup, subs in index.items()}


def assign_relation_mu(
    m: OntologyModel, groups: dict, asserted_only: bool = False
) -> dict[ComplexKey, MembershipEntry]:
    index = _determiner_index(m, RELATION, asserted_only)
    return {
        ComplexKey.relation(pred, obj): _entry(groups, subjects)
        for (pred, obj), subjects in index.items()
    }


def copy_to_equivalents(annotated: AnnotatedOntology) -> AnnotatedOntology:
    """Widen every determining set with the equivalents of its members.

    mu values stay as computed: representatives of the widened set are the
    representatives of the original set.  With no groups, annotated itself
    is returned.
    """
    group_of = annotated.groups
    in_groups = group_of.keys()
    if not in_groups:
        return annotated

    def widen(entry: MembershipEntry) -> MembershipEntry:
        if in_groups.isdisjoint(entry.determiners):
            return entry
        widened = set(entry.determiners)
        for name in in_groups & widened:
            widened.update(group_of[name])
        return MembershipEntry(entry.mu, tuple(sorted(widened)))

    table = MembershipTable(
        property_mu={k: widen(v) for k, v in annotated.table.property_mu.items()},
        complex_mu={k: widen(v) for k, v in annotated.table.complex_mu.items()},
    )
    return AnnotatedOntology(annotated.model, table, annotated.groups)


def assign_all(m: OntologyModel, asserted_only: bool = False) -> AnnotatedOntology:
    """Property, part_of and relation assignment followed by the equivalence
    copy, in that order."""
    if not m.normalized:
        raise NotNormalized("membership assignment requires a normalized model")
    groups = build_equivalence_groups(m)
    complex_mu: dict[ComplexKey, MembershipEntry] = {}
    complex_mu.update(assign_partof_mu(m, groups, asserted_only))
    complex_mu.update(assign_relation_mu(m, groups, asserted_only))
    table = MembershipTable(
        property_mu=assign_property_mu(m, groups, asserted_only),
        complex_mu=complex_mu,
    )
    return copy_to_equivalents(AnnotatedOntology(m, table, groups))
