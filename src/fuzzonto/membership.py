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
that every member of an equivalence group appears wherever another member
does — n itself never changes, because widening adds no group.

The equivalence groups are the map ``closure.groups`` returns: each class in
a group of two or more mapped to its sorted group.  Any other class is a
group of its own: with no groups n is the length of a key's sorted
determiner list, and otherwise counting and widening look up only the
determiners in a shared group; widening keeps an entry with none.  Assign
keeps the order in which the model's elements meet a key (relation keys by
predicate); ``entries()`` sorts them for the assign JSON,
``rules.premise_runs`` by premise text.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
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


def group_count(group_of: dict[str, tuple[str, ...]], names) -> int:
    """The number of equivalence groups among the names, counting each name
    that group_of does not map as a group of its own; group_of maps only the
    classes in groups of two or more."""
    names = set(names)
    shared = group_of.keys() & names
    return len(names) - len(shared) + len({group_of[name] for name in shared})


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


def _entry(determiners: list[str], groups: dict) -> MembershipEntry:
    """The entry of a key's determiners, each listed once; the list is sorted
    in place.  Only determiners in a shared group need a group lookup."""
    determiners.sort()
    n = len(determiners)
    if groups and not groups.keys().isdisjoint(determiners):
        n = group_count(groups, determiners)
    return _new(MembershipEntry, (n, tuple(determiners)))


def _entries(keys, determiners, groups: dict) -> dict:
    """Every key mapped to its entry, from a determiner index built in one
    pass over the two columns of one kind of element: property -> holders or
    superclass -> subclasses.  Each element is distinct, so a key's list
    holds each class once."""
    index: dict = {}
    for key, determiner in zip(keys, determiners):
        found = index.get(key)
        if found is None:
            index[key] = [determiner]
        else:
            found.append(determiner)
    for key, determiners in index.items():
        index[key] = _entry(determiners, groups)
    return index


def assign_property_mu(m: OntologyModel, groups: dict) -> dict[str, MembershipEntry]:
    holdings = m.holdings
    return _entries(map(itemgetter(0), holdings), map(itemgetter(1), holdings), groups)


def assign_partof_mu(m: OntologyModel, groups: dict) -> dict[ComplexKey, MembershipEntry]:
    axioms = m.subclass_axioms
    entries = _entries(map(itemgetter(1), axioms), map(itemgetter(0), axioms), groups)
    return {_new(ComplexKey, (PART_OF, None, sup)): entry for sup, entry in entries.items()}


def assign_relation_mu(m: OntologyModel, groups: dict) -> dict[ComplexKey, MembershipEntry]:
    """Entries keyed by predicate, then object, from one pass that indexes
    predicate -> object -> subjects; no (predicate, object) tuple is built."""
    index: defaultdict[str, dict[str, list[str]]] = defaultdict(dict)
    for predicate, subject, obj in m.relations:
        by_object = index[predicate]
        found = by_object.get(obj)
        if found is None:
            by_object[obj] = [subject]
        else:
            found.append(subject)
    return {
        _new(ComplexKey, (RELATION, predicate, obj)): _entry(subjects, groups)
        for predicate, by_object in index.items()
        for obj, subjects in by_object.items()
    }


def copy_to_equivalents(annotated: AnnotatedOntology) -> AnnotatedOntology:
    """Widen every determining set with the equivalents of its members.

    n stays as computed: the widened set falls into the same groups as the
    original set.  With no groups, annotated itself is returned, and an
    entry that gains no class is kept as it is: the equivalence copy in
    normalize already gives most groups in full.
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
    copy, in that order.  With asserted_only, derived holdings, relations and
    subclass axioms neither determine a key nor make one exist; the groups
    and the returned model stay m's."""
    if not m.normalized:
        raise NotNormalized("membership assignment requires a normalized model")
    groups = build_equivalence_groups(m)
    view = m
    if asserted_only:  # a model of m's asserted elements, filtered once
        view = OntologyModel()
        for attr in ("holdings", "relations", "subclass_axioms"):
            elements = getattr(m, attr).items()
            setattr(view, attr, {key: origin for key, origin in elements if origin == ASSERTED})
    complex_mu: dict[ComplexKey, MembershipEntry] = {}
    complex_mu.update(assign_partof_mu(view, groups))
    complex_mu.update(assign_relation_mu(view, groups))
    table = MembershipTable(
        property_mu=assign_property_mu(view, groups),
        complex_mu=complex_mu,
    )
    return copy_to_equivalents(AnnotatedOntology(m, table, groups))
