import itertools

import pytest

from conftest import normalize_fixture
from fuzzonto import NotNormalized, OntologyModel, assign_all, normalize
from fuzzonto.membership import (
    PART_OF,
    PROPERTY,
    RELATION,
    AnnotatedOntology,
    ComplexKey,
    MembershipTable,
    assign_partof_mu,
    assign_property_mu,
    assign_relation_mu,
    build_equivalence_groups,
    copy_to_equivalents,
    group_count,
)
from randmodels import add_holding, add_relation, add_subclass, brute_table, random_model


def normalized(name):
    return normalize_fixture(name).model


def blank_normalized(*classes) -> OntologyModel:
    m = OntologyModel()
    for c in classes:
        m.touch_class(c)
    m.normalized = True
    return m


# -- equivalence groups -----------------------------------------------------


def test_groups_close_transitively():
    m = blank_normalized("A", "B", "C", "X")
    m.add_equivalence("A", "B")
    m.add_equivalence("B", "C")
    groups = build_equivalence_groups(m)
    assert groups == dict.fromkeys("ABC", ("A", "B", "C"))
    assert group_count(groups, ["C", "X"]) == 2
    assert group_count(groups, ["A", "C", "X", "X"]) == 2  # a name met twice counts once


def test_groups_are_singletons_without_equivalences():
    groups = build_equivalence_groups(blank_normalized("X", "Y"))
    assert groups == {}
    assert group_count(groups, ["X", "Y"]) == 2


# -- determiner counts ---------------------------------------------------------


def test_count_property_holders():
    m = blank_normalized("Man", "Woman", "Child")
    m.declare_property("hasAge", "datatype")
    for holder in ("Man", "Woman", "Child"):
        add_holding(m, "hasAge", holder)
    entry = assign_property_mu(m, build_equivalence_groups(m))["hasAge"]
    assert entry.n == 3
    assert entry.determiners == ("Child", "Man", "Woman")


def test_count_collapses_equivalent_holders():
    m = blank_normalized("A", "B")
    m.declare_property("hasAge", "datatype")
    add_holding(m, "hasAge", "A")
    add_holding(m, "hasAge", "B")
    m.add_equivalence("A", "B")
    entry = assign_property_mu(m, build_equivalence_groups(m))["hasAge"]
    assert entry.n == 1
    assert entry.determiners == ("A", "B")


def test_count_partof_complex():
    m = blank_normalized("Paris", "France")
    add_subclass(m, "Paris", "France")
    entry = assign_partof_mu(m, build_equivalence_groups(m))[ComplexKey(PART_OF, None, "France")]
    assert entry.n == 1
    assert entry.determiners == ("Paris",)


def test_absent_key_has_no_entry():
    m = blank_normalized("A")
    table = assign_all(m).table
    assert "ghost" not in table.property_mu
    assert ComplexKey(RELATION, "r", "A") not in table.complex_mu
    assert ComplexKey(PART_OF, None, "A") not in table.complex_mu


# -- assignment -----------------------------------------------------------------


def test_property_mu_simple_counts():
    m = blank_normalized("A", "B", "C", "D")
    m.declare_property("single", "datatype")
    m.declare_property("wide", "datatype")
    add_holding(m, "single", "A")
    for holder in ("A", "B", "C", "D"):
        add_holding(m, "wide", holder)
    table = assign_property_mu(m, build_equivalence_groups(m))
    assert table["single"].n == 1
    assert table["wide"].n == 4


def test_property_mu_with_equivalent_pair():
    m = blank_normalized("A", "B", "C")
    m.declare_property("p", "datatype")
    for holder in ("A", "B", "C"):
        add_holding(m, "p", holder)
    m.add_equivalence("A", "B")
    table = assign_property_mu(m, build_equivalence_groups(m))
    assert table["p"].n == 2


def test_partof_mu_on_closed_chain():
    m = normalized("subclass_chain.owl")
    table = assign_partof_mu(m, build_equivalence_groups(m))
    assert table[ComplexKey(PART_OF, None, "City")].n == 1
    assert table[ComplexKey(PART_OF, None, "City")].determiners == ("House",)
    assert table[ComplexKey(PART_OF, None, "Country")].n == 2
    assert table[ComplexKey(PART_OF, None, "Country")].determiners == ("City", "House")


def test_partof_mu_two_subclasses():
    m = blank_normalized("Paris", "Lyon", "France")
    add_subclass(m, "Paris", "France")
    add_subclass(m, "Lyon", "France")
    table = assign_partof_mu(m, build_equivalence_groups(m))
    assert table[ComplexKey(PART_OF, None, "France")].n == 2


def test_relation_mu_on_expanded_symmetric_fixture():
    m = normalized("symmetric_colleagues.owl")
    table = assign_relation_mu(m, build_equivalence_groups(m))
    engineer = table[ComplexKey(RELATION, "colleagueOf", "Engineer")]
    programmer = table[ComplexKey(RELATION, "colleagueOf", "Programmer")]
    assert engineer.n == 1 and engineer.determiners == ("Programmer",)
    assert programmer.n == 1 and programmer.determiners == ("Engineer",)


def test_relation_mu_shared_object():
    m = blank_normalized("Man", "Woman", "City")
    m.declare_property("livesIn", "object")
    add_relation(m, "livesIn", "Man", "City")
    add_relation(m, "livesIn", "Woman", "City")
    table = assign_relation_mu(m, build_equivalence_groups(m))
    assert table[ComplexKey(RELATION, "livesIn", "City")].n == 2


def test_copy_to_equivalents_widens_determiners_not_mu():
    m = normalized("equivalent_property_copy.owl")
    groups = build_equivalence_groups(m)
    raw = AnnotatedOntology(
        m,
        table=MembershipTable(property_mu=assign_property_mu(m, groups), complex_mu={}),
        groups=groups,
    )
    widened = copy_to_equivalents(raw)
    entry = widened.table.property_mu["hasAge"]
    assert entry.n == 1
    assert entry.determiners == ("Human", "Person")


def test_copy_widens_every_shared_determiner():
    """Determiners from two groups and one outside any group: both groups
    are widened in full, and n counts each group once."""
    m = blank_normalized("A", "B", "C", "D", "E", "F")
    m.add_equivalence("A", "B")
    m.add_equivalence("D", "E")
    m.add_equivalence("E", "F")
    m.declare_property("p", "datatype")
    for holder in ("B", "C", "F"):
        add_holding(m, "p", holder)
    m.declare_property("q", "datatype")
    add_holding(m, "q", "C")
    table = assign_all(m).table.property_mu
    assert table["p"].n == 3
    assert table["p"].determiners == ("A", "B", "C", "D", "E", "F")
    assert table["q"].determiners == ("C",)


def test_groups_keep_only_shared_classes():
    m = blank_normalized("A", "B", "C")
    m.add_equivalence("A", "B")
    groups = build_equivalence_groups(m)
    assert groups == {"A": ("A", "B"), "B": ("A", "B")}
    assert group_count(groups, ["A", "B", "C"]) == 2


def test_copy_keeps_entries_without_shared_determiners():
    m = normalized("equivalent_property_copy.owl")
    m.touch_class("Loner")
    m.declare_property("solo", "datatype")
    add_holding(m, "solo", "Loner")
    annotated = assign_all(m)
    entry = annotated.table.property_mu["solo"]
    assert copy_to_equivalents(annotated).table.property_mu["solo"] is entry


def test_copy_keeps_complete_entries_and_widens_part_of():
    """A holding that the whole group already has comes back as the same
    entry; subclass axioms are not copied to equivalents, so a part_of
    entry with one member of the group still widens."""
    m = blank_normalized("A", "B", "C")
    m.add_equivalence("A", "B")
    m.declare_property("p", "datatype")
    add_holding(m, "p", "A")
    add_holding(m, "p", "B")
    add_subclass(m, "A", "C")
    groups = build_equivalence_groups(m)
    raw = AnnotatedOntology(
        m,
        MembershipTable(assign_property_mu(m, groups), assign_partof_mu(m, groups)),
        groups,
    )
    table = copy_to_equivalents(raw).table
    assert table.property_mu["p"] is raw.table.property_mu["p"]
    part_of = table.complex_mu[ComplexKey(PART_OF, None, "C")]
    assert raw.table.complex_mu[ComplexKey(PART_OF, None, "C")].determiners == ("A",)
    assert part_of.n == 1 and part_of.determiners == ("A", "B")


def test_copy_without_equivalences_is_identity():
    m = normalized("relation_lift.owl")
    annotated = assign_all(m)
    again = copy_to_equivalents(annotated)
    assert again.table.property_mu == annotated.table.property_mu
    assert again.table.complex_mu == annotated.table.complex_mu


def test_assign_all_requires_normalized_model():
    with pytest.raises(NotNormalized):
        assign_all(OntologyModel())


def test_assign_all_empty_model():
    annotated = assign_all(blank_normalized())
    assert list(annotated.table.entries()) == []


def test_assign_all_transitive_fixture_entries():
    annotated = assign_all(normalized("transitive_areas.owl"))
    table = annotated.table.complex_mu
    assert table[ComplexKey(RELATION, "subAreaOf", "Latvia")].n == 1
    assert table[ComplexKey(RELATION, "subAreaOf", "EU")].n == 2
    assert table[ComplexKey(RELATION, "subAreaOf", "EU")].determiners == (
        "Latgale",
        "Latvia",
    )


def test_assign_all_entry_order_is_properties_partof_relations():
    m = blank_normalized("A", "B")
    m.declare_property("zz", "datatype")
    add_holding(m, "zz", "A")
    add_subclass(m, "A", "B")
    m.declare_property("aa", "object")
    add_relation(m, "aa", "A", "B")
    kinds = [kind for kind, _, _ in assign_all(m).table.entries()]
    assert kinds == [PROPERTY, PART_OF, RELATION]


def without_equivalences(model: OntologyModel) -> OntologyModel:
    """model with its equivalence pairs dropped, still flagged normalized."""
    bare = model.copy()
    bare.equivalences = set()
    return bare


def test_assign_all_totality_matches_brute_enumeration():
    """Each seed's normalized model, and the same model without its
    equivalences, which takes the count with no groups."""
    for seed, asserted_only, grouped in itertools.product(
        range(300), (False, True), (True, False)
    ):
        where = f"seed {seed} asserted_only={asserted_only} grouped={grouped}"
        model = normalize(random_model(seed)).model
        if not grouped:
            model = without_equivalences(model)
        annotated = assign_all(model, asserted_only=asserted_only)
        assert bool(annotated.groups) == bool(model.equivalences), where
        expected = brute_table(model, asserted_only=asserted_only)
        got = {}
        for kind, key, entry in annotated.table.entries():
            if kind == PROPERTY:
                got[(PROPERTY, key)] = entry
            elif kind == PART_OF:
                got[(PART_OF, key.resulting_class)] = entry
            else:
                got[(RELATION, key.predicate, key.resulting_class)] = entry
        assert set(got) == set(expected), where
        for key, (n, determiners) in expected.items():
            assert got[key].n == n, f"{where}: {key}"
            assert got[key].determiners == tuple(sorted(determiners)), f"{where}: {key}"


def test_asserted_only_ignores_derived_determiners():
    m = normalized("relation_lift.owl")
    annotated = assign_all(m, asserted_only=True)
    keys = set(annotated.table.complex_mu)
    assert ComplexKey(RELATION, "livesIn", "House") in keys
    assert ComplexKey(RELATION, "livesIn", "City") not in keys  # lifted only
    assert ComplexKey(PART_OF, None, "City") in keys


def test_asserted_only_filters_the_keys_not_the_model():
    """The groups and the returned model stay whole; a derived axiom still
    gets its subclass in by widening."""
    m = blank_normalized("A", "B", "C")
    m.add_equivalence("A", "B")
    add_subclass(m, "A", "C")
    m.subclass_axioms[("B", "C")] = "subclass-closure"
    annotated = assign_all(m, asserted_only=True)
    assert annotated.model is m
    assert annotated.groups == {"A": ("A", "B"), "B": ("A", "B")}
    assert annotated.table.complex_mu == {ComplexKey(PART_OF, None, "C"): (1, ("A", "B"))}


def test_asserted_only_affects_denominator():
    m = normalized("subclass_chain.owl")
    default = assign_all(m).table.complex_mu[ComplexKey(PART_OF, None, "Country")]
    restricted = assign_all(m, asserted_only=True).table.complex_mu[
        ComplexKey(PART_OF, None, "Country")
    ]
    assert default.n == 2
    assert restricted.n == 1  # only City -> Country is asserted
    assert restricted.determiners == ("City",)
