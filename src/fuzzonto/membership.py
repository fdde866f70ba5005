"""Membership-value assignment over a normalized model.

Every key gets mu = 1/n where n counts the *determining* classes collapsed to
one per equivalence group:

* a datatype property is determined by the classes holding it;
* a ``part_of`` complex (one per distinct superclass) is determined by the
  subclasses of its resulting class;
* any other relation complex (one per distinct predicate/object pair) is
  determined by the subjects pointing at its resulting class.

An entry holds the integer n, not 1/n: every grade is a unit fraction, and
the writers render 1/n.  After assignment, determining sets are widened so
that every member of an equivalence group appears wherever its
representative does — n itself never changes, because it is counted over
representatives.

The equivalence groups are the map ``closure.groups`` returns: each class in
a group of two or more mapped to its sorted group.  Any other class is its
own representative: with no groups n is the length of a key's sorted
determiner list, and otherwise counting and widening look up only the
determiners in a shared group; widening keeps an entry with none.  Assign
keeps the order in which the model's elements meet a key; ``entries()``
sorts the keys for the assign JSON, ``rules.premise_runs`` by premise text.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from . import closure
from .errors import NotNormalized
from .model import ASSERTED, OntologyModel

PART_OF = "part_of"
RELATION = "relation"
PROPERTY = "property"

_new = tuple.__new__  # a namedtuple instance built in C, not by its Python __new__


class ComplexKey(namedtuple("ComplexKey", "kind predicate resulting_class")):
    """A relation bundled with its resulting class, acting as one premise.

    kind PART_OF keys on subclass axioms (predicate is None); kind RELATION
    keys on ordinary predicates.  A named tuple, so keys hash and compare in
    C.
    """

    __slots__ = ()

    @property
    def text(self) -> str:
        """The premise as rules print it."""
        if self.kind == PART_OF:
            return f"part_of {self.resulting_class}"
        return f"{self.predicate} {self.resulting_class}"


class MembershipEntry(namedtuple("MembershipEntry", "n determiners")):
    """A key's n, for mu = 1/n, and its determining classes, sorted; widened
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
        complexes, then other relation complexes; the order of the assign
        JSON."""
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


def _entries(m: OntologyModel, kind: str, groups: dict, asserted_only: bool) -> dict:
    """Every key of one kind mapped to its entry, from a determiner index
    built in one pass: property -> holders, superclass -> subclasses, or
    (predicate, object) -> subjects.  Each element is a dict key, so a key's
    list holds each class once; it is sorted in place."""
    attr, key_of, determiner_of = _DETERMINED_BY[kind]
    elements = getattr(m, attr)
    if asserted_only:
        elements = [key for key, origin in elements.items() if origin == ASSERTED]
    index: dict = {}
    for key, determiner in zip(map(key_of, elements), map(determiner_of, elements)):
        found = index.get(key)
        if found is None:
            index[key] = [determiner]
        else:
            found.append(determiner)
    for key, determiners in index.items():
        determiners.sort()
        n = len(representatives(groups, determiners)) if groups else len(determiners)
        index[key] = _new(MembershipEntry, (n, tuple(determiners)))
    return index


def assign_property_mu(
    m: OntologyModel, groups: dict, asserted_only: bool = False
) -> dict[str, MembershipEntry]:
    return _entries(m, PROPERTY, groups, asserted_only)


def assign_partof_mu(
    m: OntologyModel, groups: dict, asserted_only: bool = False
) -> dict[ComplexKey, MembershipEntry]:
    entries = _entries(m, PART_OF, groups, asserted_only)
    return {_new(ComplexKey, (PART_OF, None, sup)): entry for sup, entry in entries.items()}


def assign_relation_mu(
    m: OntologyModel, groups: dict, asserted_only: bool = False
) -> dict[ComplexKey, MembershipEntry]:
    entries = _entries(m, RELATION, groups, asserted_only)
    return {_new(ComplexKey, (RELATION, *key)): entry for key, entry in entries.items()}


def copy_to_equivalents(annotated: AnnotatedOntology) -> AnnotatedOntology:
    """Widen every determining set with the equivalents of its members.

    n stays as computed: representatives of the widened set are the
    representatives of the original set.  With no groups, annotated itself
    is returned, and an entry that gains no class is kept as it is: the
    equivalence copy in normalize already gives most groups in full.
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
        if len(widened) <= len(entry.determiners):
            return entry
        return MembershipEntry(entry.n, tuple(sorted(widened)))

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
