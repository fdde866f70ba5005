from fractions import Fraction

from conftest import normalize_fixture
from fuzzonto import assign_all, check_consistency, generate_rules, normalize
from fuzzonto.membership import ComplexKey
from fuzzonto.model import OntologyModel
from fuzzonto.rules import FuzzyRule, check_runs, premise_runs, rule_runs
from randmodels import random_model


def annotated_fixture(name):
    return assign_all(normalize_fixture(name).model)


def codes(*results):
    """The diagnostic codes of each check result, as a tuple of lists."""
    return tuple([d.code for d in result] for result in results)


def test_property_premise_yields_one_rule_per_holder():
    m = OntologyModel()
    m.touch_class("Man")
    m.touch_class("Woman")
    m.declare_property("hasAge", "datatype")
    m.add_holding("hasAge", "Man")
    m.add_holding("hasAge", "Woman")
    m.normalized = True
    rules = generate_rules(assign_all(m))
    assert [(r.premise_text, r.conclusion, r.mu) for r in rules] == [
        ("hasAge", "Man", Fraction(1, 2)),
        ("hasAge", "Woman", Fraction(1, 2)),
    ]


def test_sole_subclass_yields_single_full_rule():
    rules = generate_rules(annotated_fixture("paris_france.owl"))
    assert len(rules) == 1
    rule = rules[0]
    assert rule.premise_text == "part_of France"
    assert rule.conclusion == "Paris"
    assert rule.mu == Fraction(1)


def test_empty_model_has_no_rules():
    assert generate_rules(annotated_fixture("empty.owl")) == []


def test_rules_are_sorted_by_premise_then_conclusion():
    rules = generate_rules(annotated_fixture("symmetric_equivalent_combo.owl"))
    keys = [(r.premise_text, r.conclusion) for r in rules]
    assert keys == sorted(keys)


def test_equivalence_widened_conclusions_share_mu():
    rules = generate_rules(annotated_fixture("equivalent_property_copy.owl"))
    by_premise = {}
    for r in rules:
        by_premise.setdefault(r.premise_text, []).append(r)
    assert {r.conclusion for r in by_premise["hasAge"]} == {"Human", "Person"}
    assert {r.mu for r in by_premise["hasAge"]} == {Fraction(1)}


def test_consistency_holds_on_generator_output():
    for name in (
        "paris_france.owl",
        "transitive_areas.owl",
        "symmetric_equivalent_combo.owl",
        "subclass_chain.owl",
    ):
        annotated = annotated_fixture(name)
        assert check_consistency(generate_rules(annotated), annotated) == []


def test_consistency_holds_on_random_models():
    for seed in range(60):
        annotated = assign_all(normalize(random_model(seed)).model)
        assert check_consistency(generate_rules(annotated), annotated) == [], (
            f"seed {seed}"
        )


def test_consistency_flags_wrong_denominator():
    annotated = annotated_fixture("empty.owl")
    rules = [
        FuzzyRule(premise="p", conclusion=c, mu=Fraction(1, 2)) for c in ("A", "B", "C")
    ]
    runs = [(("p", Fraction(1, 2)), ("A", "B", "C"))]
    # the list entry point and the run entry point, side by side
    assert codes(check_consistency(rules, annotated), check_runs(runs, annotated)) == (
        ["identity-violation"],
        ["identity-violation"],
    )


def test_consistency_flags_mixed_mu():
    annotated = annotated_fixture("empty.owl")
    rules = [
        FuzzyRule(premise="p", conclusion="A", mu=Fraction(1, 2)),
        FuzzyRule(premise="p", conclusion="B", mu=Fraction(1, 3)),
    ]
    # a mu change splits the premise's rules into two runs, which the run
    # check merges again
    runs = [
        (("p", Fraction(1, 2)), ("A",)),
        (("p", Fraction(1, 3)), ("B",)),
    ]
    assert codes(check_consistency(rules, annotated), check_runs(runs, annotated)) == (
        ["mixed-mu"],
        ["mixed-mu"],
    )
    assert list(rule_runs(rules)) == runs


def test_consistency_tells_apart_premises_that_print_alike():
    """A predicate named part_of gives the relation key "part_of X", which
    prints like the subclass key "part_of X"; the two keys carry different mu
    values and neither is mixed."""
    m = OntologyModel()
    for name in ("A", "B", "C", "X"):
        m.touch_class(name)
    m.declare_property("part_of", "object")
    m.add_subclass("A", "X")
    m.add_relation("part_of", "B", "X")
    m.add_relation("part_of", "C", "X")
    annotated = assign_all(normalize(m).model)
    rules = generate_rules(annotated)
    assert [(r.premise_text, r.conclusion, r.mu) for r in rules] == [
        ("part_of X", "A", Fraction(1)),
        ("part_of X", "B", Fraction(1, 2)),
        ("part_of X", "C", Fraction(1, 2)),
    ]
    assert check_consistency(rules, annotated) == []

    # a wrong mu under either key is still caught, and reported by its text
    wrong = [rules[0], rules[1], FuzzyRule(rules[2].premise, "C", Fraction(1, 3))]
    violations = check_consistency(wrong, annotated)
    assert [(v.code, v.location) for v in violations] == [("mixed-mu", "part_of X")]


def test_consistency_collapses_equivalent_conclusions():
    m = OntologyModel()
    for name in ("A", "B", "C"):
        m.touch_class(name)
    m.add_equivalence("A", "B")
    m.normalized = True
    annotated = assign_all(m)
    rules = [
        FuzzyRule(premise=ComplexKey.part_of("X"), conclusion=c, mu=Fraction(1, 2))
        for c in ("A", "B", "C")
    ]
    assert check_consistency(rules, annotated) == []  # representatives are {A, C}


def sorted_entries_rules(annotated):
    """The plain definition: one rule per (key, determiner) from entries(),
    sorted by (premise text, conclusion)."""
    rules = [
        FuzzyRule(premise=key, conclusion=conclusion, mu=entry.mu)
        for _, key, entry in annotated.table.entries()
        for conclusion in entry.determiners
    ]
    return sorted(rules, key=lambda r: (r.premise_text, r.conclusion))


def alike_premises_model() -> OntologyModel:
    """Premises that print alike across and within kinds: the property
    "part_of X", the part_of key of X, the relation key of a predicate named
    part_of, and the relation keys ("a b", "c") and ("a", "b c")."""
    m = OntologyModel()
    for name in ("A", "B", "C", "D", "E", "X", "c", "b c"):
        m.touch_class(name)
    m.declare_property("part_of X", "datatype")
    m.add_holding("part_of X", "B")
    m.add_holding("part_of X", "E")
    m.add_subclass("C", "X")
    m.add_subclass("A", "X")
    m.declare_property("part_of", "object")
    m.add_relation("part_of", "D", "X")
    m.add_relation("part_of", "B", "X")
    m.declare_property("a b", "object")
    m.declare_property("a", "object")
    m.add_relation("a b", "E", "c")
    m.add_relation("a b", "A", "c")
    m.add_relation("a", "A", "b c")
    m.add_relation("a", "D", "b c")
    m.add_equivalence("D", "E")
    return m


def test_generate_rules_equals_sorted_entries_on_random_models():
    """generate_rules gives the plain definition's rules, and premise_runs
    the maximal runs of those rules."""
    for seed in range(300):
        model = normalize(random_model(seed)).model
        for asserted_only in (False, True):
            annotated = assign_all(model, asserted_only=asserted_only)
            rules = generate_rules(annotated)
            assert rules == sorted_entries_rules(annotated), (
                f"seed {seed} asserted_only={asserted_only}"
            )
            assert premise_runs(annotated) == list(rule_runs(rules)), (
                f"seed {seed} asserted_only={asserted_only}"
            )


def test_generate_rules_merges_premises_that_print_alike():
    annotated = assign_all(normalize(alike_premises_model()).model)
    rules = generate_rules(annotated)
    assert rules == sorted_entries_rules(annotated)
    runs = premise_runs(annotated)
    assert runs == list(rule_runs(rules))
    assert check_runs(runs, annotated) == []

    def described(rule):
        if isinstance(rule.premise, str):
            return (rule.premise_text, rule.conclusion, "property")
        key = rule.premise
        return (rule.premise_text, rule.conclusion, key.kind, key.predicate)

    # merged by conclusion; a tie keeps the table order: property, part_of,
    # then relations by predicate
    assert [described(r) for r in rules] == [
        ("a b c", "A", "relation", "a"),
        ("a b c", "A", "relation", "a b"),
        ("a b c", "D", "relation", "a"),
        ("a b c", "D", "relation", "a b"),
        ("a b c", "E", "relation", "a"),
        ("a b c", "E", "relation", "a b"),
        ("part_of X", "A", "part_of", None),
        ("part_of X", "B", "property"),
        ("part_of X", "B", "relation", "part_of"),
        ("part_of X", "C", "part_of", None),
        ("part_of X", "D", "property"),
        ("part_of X", "D", "relation", "part_of"),
        ("part_of X", "E", "property"),
        ("part_of X", "E", "relation", "part_of"),
    ]
    assert check_consistency(rules, annotated) == []

    # consecutive conclusions of one key among alike premises share a run
    m = alike_premises_model()
    for name in ("Y1", "Y2"):
        m.touch_class(name)
        m.add_subclass(name, "X")
    annotated = assign_all(normalize(m).model)
    runs = premise_runs(annotated)
    assert runs == list(rule_runs(generate_rules(annotated)))
    assert runs[-1] == ((ComplexKey.part_of("X"), Fraction(1, 4)), ("Y1", "Y2"))


def test_consistency_merges_a_premise_split_over_non_adjacent_runs():
    annotated = annotated_fixture("empty.owl")
    half = Fraction(1, 2)
    split = [
        FuzzyRule("p", "A", half),
        FuzzyRule("q", "B", Fraction(1)),
        FuzzyRule("p", "C", Fraction(1, 2)),  # equal to half, not identical
    ]
    assert check_consistency(split, annotated) == []  # p has two conclusions

    mixed = split[:2] + [FuzzyRule("p", "C", Fraction(1, 3))]
    violations = check_consistency(mixed, annotated)
    assert [(v.code, v.location) for v in violations] == [("mixed-mu", "p")]


def test_consistency_merges_equal_but_not_identical_keys():
    annotated = annotated_fixture("empty.owl")
    first, second = ComplexKey.part_of("X"), ComplexKey.part_of("X")
    assert first == second and first is not second
    rules = [
        FuzzyRule(first, "A", Fraction(1, 2)),
        FuzzyRule(second, "B", Fraction(1, 3)),
    ]
    violations = check_consistency(rules, annotated)
    assert [(v.code, v.location) for v in violations] == [("mixed-mu", "part_of X")]
    agreeing = [rules[0], FuzzyRule(second, "B", Fraction(1, 2))]
    assert check_consistency(agreeing, annotated) == []


def test_fuzzy_rule_is_a_named_tuple_of_three_fields():
    rule = FuzzyRule("p", "A", Fraction(1, 2))
    assert rule == ("p", "A", Fraction(1, 2))
    assert rule._fields == ("premise", "conclusion", "mu")
    keyed = FuzzyRule(ComplexKey.relation("r", "X"), "A", Fraction(1))
    assert keyed.premise_text == "r X"
